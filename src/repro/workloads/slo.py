"""Declared SLOs and the grader that turns a replay into pass/fail.

An :class:`SLO` declares the service's promises: latency quantiles over
successful requests, a 503 *error budget* (rejections are legitimate
backpressure — up to a point), a hard error-rate bound (non-503 failures
are never legitimate), and a correctness tolerance for the offline
spot-check. :func:`grade_replay` measures each objective over the whole
replay, and — this is the point — localizes every violation to its
worst trace window before packaging it as a :class:`~repro.workloads.
failure_report.FailureReport`.

Windowing: the trace is cut into fixed windows (default: 20 per trace),
each objective is re-measured per window, and the failing objective's
report names the worst one — its time span, its dominant workload phase
label, and the queue/batch statistics inside it. "p99 blew up" becomes
"p99 blew up in burst-3 at t=[4.2, 4.9]s while batches flushed full at
64 rows and the queue sat at its 512-row cap".
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, List, Optional

import numpy as np

from ..exceptions import DataError
from .failure_report import FailureReport, ObjectiveFailure, suggest
from .harness import ReplayResult

__all__ = ["SLO", "ObjectiveResult", "SLOGrade", "grade_replay"]


@dataclasses.dataclass(frozen=True)
class SLO:
    """One service-level objective set. ``None`` disables an objective."""

    name: str = "default"
    p50_ms: Optional[float] = 50.0
    p99_ms: Optional[float] = 250.0
    #: The 503 error budget: fraction of requests that may be rejected.
    max_reject_rate: float = 0.01
    #: Non-503 failures allowed (default: none, ever).
    max_error_rate: float = 0.0
    #: Offline spot-check tolerance on decision values.
    max_value_diff: float = 1e-6

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SLO":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise DataError(
                f"unknown SLO field(s) {', '.join(map(repr, unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        return cls(**data)


@dataclasses.dataclass
class ObjectiveResult:
    """One objective's verdict over the whole replay."""

    objective: str
    passed: bool
    measured: float
    limit: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class SLOGrade:
    """The graded replay: verdicts, windows, and the failure report."""

    slo: SLO
    passed: bool
    objectives: List[ObjectiveResult]
    windows: List[dict]
    failure_report: Optional[FailureReport] = None

    def as_dict(self) -> dict:
        return {
            "slo": self.slo.as_dict(),
            "passed": self.passed,
            "objectives": [o.as_dict() for o in self.objectives],
            "windows": list(self.windows),
            "failure_report": (
                self.failure_report.as_dict() if self.failure_report else None
            ),
        }

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"SLO {self.slo.name!r}: {verdict}"]
        for obj in self.objectives:
            mark = "ok " if obj.passed else "VIOLATED"
            lines.append(
                f"  [{mark}] {obj.objective}: measured {obj.measured:.4g}, "
                f"limit {obj.limit:.4g}"
            )
        if self.failure_report is not None:
            lines.append(self.failure_report.describe())
        return "\n".join(lines)


def _build_windows(result: ReplayResult, window_seconds: float) -> List[dict]:
    """Cut the replay into fixed windows with local measurements."""
    edges = np.arange(0.0, result.duration + window_seconds, window_seconds)
    windows: List[dict] = []
    for start, end in zip(edges[:-1], edges[1:]):
        members = [
            o for o in result.outcomes if start <= o.scheduled < end
        ]
        if not members:
            continue
        ok_lat = np.array([o.latency_ms for o in members if o.status == "ok"])
        rejected = sum(1 for o in members if o.status == "rejected")
        errors = sum(1 for o in members if o.status == "error")
        phases = Counter(o.phase for o in members)
        depths = [o.queue_depth for o in members if o.queue_depth is not None]
        batch_ids = sorted(
            {o.batch_id for o in members if o.batch_id >= 0}
        )
        batch_info = [
            b for b in result.batches if b["batch_id"] in set(batch_ids)
        ]
        windows.append(
            {
                "start": float(start),
                "end": float(end),
                "events": len(members),
                "phase": phases.most_common(1)[0][0],
                "p50_ms": float(np.percentile(ok_lat, 50)) if ok_lat.size else 0.0,
                "p99_ms": float(np.percentile(ok_lat, 99)) if ok_lat.size else 0.0,
                "reject_rate": rejected / len(members),
                "error_rate": errors / len(members),
                "queue": {
                    "max_depth_rows": float(max(depths)) if depths else 0.0,
                    "mean_depth_rows": float(np.mean(depths)) if depths else 0.0,
                },
                "batches": {
                    "count": len(batch_info),
                    "mean_rows": (
                        float(np.mean([b["rows"] for b in batch_info]))
                        if batch_info
                        else 0.0
                    ),
                    "max_rows": (
                        max(b["rows"] for b in batch_info) if batch_info else 0
                    ),
                    "count_triggered": sum(
                        1 for b in batch_info if b.get("trigger") == "count"
                    ),
                    "wait_triggered": sum(
                        1 for b in batch_info if b.get("trigger") == "wait"
                    ),
                },
            }
        )
    return windows


_WINDOW_METRIC = {
    "latency_p50_ms": "p50_ms",
    "latency_p99_ms": "p99_ms",
    "reject_rate": "reject_rate",
    "error_rate": "error_rate",
}


def _worst_window(windows: List[dict], objective: str) -> Optional[dict]:
    key = _WINDOW_METRIC.get(objective)
    if not key or not windows:
        return None
    return max(windows, key=lambda w: w[key])


def grade_replay(
    result: ReplayResult,
    slo: SLO,
    *,
    window_seconds: Optional[float] = None,
    queue_budget_rows: Optional[int] = None,
) -> SLOGrade:
    """Grade one replay against one SLO, localizing every violation.

    ``queue_budget_rows`` (the policy's ``max_queue_rows``) annotates the
    queue stats so a saturation diagnosis can name the cap it hit; the
    sim replay carries it in its config, live callers pass it in. The
    policy's ``max_wait_ms``, when the config carries it, tells a latency
    diagnosis whether there is a batch deadline to blame.
    """
    if window_seconds is None:
        window_seconds = max(result.duration / 20.0, 1e-3)
    policy = result.config.get("policy")
    policy = policy if isinstance(policy, dict) else {}
    if queue_budget_rows is None:
        queue_budget_rows = policy.get("max_queue_rows", 0)
    windows = _build_windows(result, window_seconds)

    percentiles = result.percentiles_ms(qs=(50, 99))
    objectives: List[ObjectiveResult] = []

    def add(objective: str, measured: float, limit: Optional[float], *, lower_is_better=True):
        if limit is None:
            return
        passed = measured <= limit if lower_is_better else measured >= limit
        objectives.append(
            ObjectiveResult(
                objective=objective,
                passed=bool(passed),
                measured=float(measured),
                limit=float(limit),
            )
        )

    has_ok = result.counts()["ok"] > 0
    if has_ok:
        add("latency_p50_ms", percentiles["p50"], slo.p50_ms)
        add("latency_p99_ms", percentiles["p99"], slo.p99_ms)
    add("reject_rate", result.reject_rate(), slo.max_reject_rate)
    add("error_rate", result.error_rate(), slo.max_error_rate)
    value_diff = result.max_value_diff()
    if value_diff is not None:
        add("correctness", value_diff, slo.max_value_diff)

    failed = [o for o in objectives if not o.passed]
    report: Optional[FailureReport] = None
    if failed:
        failures: List[ObjectiveFailure] = []
        for obj in failed:
            worst = _worst_window(windows, obj.objective)
            if worst is None:
                worst = {
                    "start": 0.0,
                    "end": result.duration,
                    "phase": "whole-trace",
                    "events": len(result.outcomes),
                }
            queue = dict(worst.get("queue", {}))
            queue["budget_rows"] = float(queue_budget_rows)
            batches = dict(worst.get("batches", {}))
            window = {
                "start": worst["start"],
                "end": worst["end"],
                "phase": worst["phase"],
                "events": worst["events"],
            }
            metric_key = _WINDOW_METRIC.get(obj.objective)
            if metric_key and metric_key in worst:
                window["local_" + metric_key] = worst[metric_key]
            failures.append(
                ObjectiveFailure(
                    objective=obj.objective,
                    limit=obj.limit,
                    measured=obj.measured,
                    window=window,
                    queue=queue,
                    batches=batches,
                    suggestion=suggest(
                        obj.objective,
                        queue,
                        batches,
                        max_wait_ms=policy.get("max_wait_ms"),
                    ),
                )
            )
        report = FailureReport(
            workload={
                "traffic_profile": result.trace_profile,
                "seed": result.trace_seed,
                "trace_digest": result.trace_digest,
                "mode": result.mode,
            },
            slo=slo.as_dict(),
            failures=failures,
            summary=(
                f"SLO {slo.name!r} violated on {result.trace_profile!r} "
                f"(seed {result.trace_seed}): "
                + ", ".join(o.objective for o in failed)
            ),
        )
    return SLOGrade(
        slo=slo,
        passed=not failed,
        objectives=objectives,
        windows=windows,
        failure_report=report,
    )
