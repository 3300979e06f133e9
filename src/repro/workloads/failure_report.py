"""Diagnosable SLO failure reports (the profile-driven-generation idiom).

A load harness that prints "SLO failed" detects; one that names *which
phase of the trace* violated *which objective*, with the queue depth and
batch shapes at the violation window, diagnoses. The shape follows the
repo's report convention (hand-rolled schema + ``validate_*`` function,
like ``TrainingReport`` and ``ServingReport``): a failure report is a
JSON object a CI job can parse, a human can read, and a follow-on PR
(adaptive batching, per-model fairness, autoscaling) can be graded
against — "does the new policy clear the window this report names?".

One :class:`ObjectiveFailure` per violated objective carries:

* the objective, its limit, and the measured value over the whole run;
* the **worst window** — start/end seconds, the dominant workload phase
  label inside it ("burst-3", "peak-1"), its event count and its local
  measurement (the window where the violation concentrated);
* **queue** and **batch** statistics inside that window — depth at
  admission, batch sizes, which trigger flushed them — i.e. what the
  serving pipeline was doing while it missed the objective;
* a mechanical ``suggestion`` derived from the failure shape.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..exceptions import TelemetryError

__all__ = [
    "ObjectiveFailure",
    "FailureReport",
    "FAILURE_REPORT_SCHEMA",
    "FAILURE_REPORT_SCHEMA_VERSION",
    "validate_failure_report",
]

FAILURE_REPORT_SCHEMA_VERSION = 1

#: Required top-level keys -> type spec (same conventions as REPORT_SCHEMA).
FAILURE_REPORT_SCHEMA: Dict[str, object] = {
    "schema_version": int,
    "workload": dict,
    "slo": dict,
    "failures": list,
    "summary": str,
}

_REQUIRED_FAILURE_KEYS = ("objective", "limit", "measured", "window")
_REQUIRED_WINDOW_KEYS = ("start", "end", "phase", "events")


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise TelemetryError(message)


def validate_failure_report(data: Union[dict, str]) -> dict:
    """Validate a serialized failure report; returns the parsed dict.

    Raises :class:`~repro.exceptions.TelemetryError` naming the first
    violation, in the same hand-rolled style as ``validate_report`` /
    ``validate_serving_report``.
    """
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise TelemetryError(f"failure report is not valid JSON: {exc}") from exc
    _check(isinstance(data, dict), "failure report must be a JSON object")
    for key, spec in FAILURE_REPORT_SCHEMA.items():
        _check(key in data, f"failure report missing required key {key!r}")
        _check(
            isinstance(data[key], spec),
            f"failure report key {key!r} must be a {spec.__name__}",
        )
    _check(
        data["schema_version"] == FAILURE_REPORT_SCHEMA_VERSION,
        f"unsupported schema_version {data['schema_version']!r} "
        f"(expected {FAILURE_REPORT_SCHEMA_VERSION})",
    )
    _check(len(data["failures"]) >= 1, "failure report must name >= 1 failure")
    for i, failure in enumerate(data["failures"]):
        _check(isinstance(failure, dict), f"failures[{i}] must be an object")
        for key in _REQUIRED_FAILURE_KEYS:
            _check(key in failure, f"failures[{i}] missing key {key!r}")
        window = failure["window"]
        _check(isinstance(window, dict), f"failures[{i}].window must be an object")
        for key in _REQUIRED_WINDOW_KEYS:
            _check(
                key in window, f"failures[{i}].window missing key {key!r}"
            )
    return data


@dataclasses.dataclass
class ObjectiveFailure:
    """One violated objective, localized to its worst trace window."""

    objective: str  #: "latency_p99_ms" | "latency_p50_ms" | "reject_rate" | ...
    limit: float
    measured: float  #: over the whole replay
    window: Dict[str, object]  #: start/end/phase/events + local measurement
    queue: Dict[str, float] = dataclasses.field(default_factory=dict)
    batches: Dict[str, float] = dataclasses.field(default_factory=dict)
    suggestion: str = ""

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class FailureReport:
    """Everything needed to reproduce and reason about one SLO failure."""

    workload: Dict[str, object]  #: data/traffic profile names, seed, digest
    slo: Dict[str, object]  #: the declared objectives
    failures: List[ObjectiveFailure]
    summary: str = ""
    schema_version: int = FAILURE_REPORT_SCHEMA_VERSION

    def as_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "workload": dict(self.workload),
            "slo": dict(self.slo),
            "failures": [f.as_dict() for f in self.failures],
            "summary": self.summary,
        }

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def write_json(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    def describe(self) -> str:
        """One human line per failure — what broke, where, and what to try."""
        lines = [self.summary] if self.summary else []
        for f in self.failures:
            window = f.window
            lines.append(
                f"  {f.objective} = {f.measured:.4g} (limit {f.limit:.4g}) — "
                f"worst in phase {window.get('phase')!r} "
                f"t=[{window.get('start'):.2f}, {window.get('end'):.2f}]s "
                f"({window.get('events')} events)"
                + (f"; {f.suggestion}" if f.suggestion else "")
            )
        return "\n".join(lines)


def suggest(
    objective: str,
    queue: Dict[str, float],
    batches: Dict[str, float],
    *,
    max_wait_ms: Optional[float] = None,
) -> str:
    """A mechanical hint from the failure shape — not a diagnosis oracle,
    but enough to point at the right knob (batch deadline, workers,
    shedding, a compact model).

    ``max_wait_ms`` is the batch policy's deadline when the replay knows
    it. With none (0) a partial batch leaves as soon as the worker is
    free, so every such batch counts as a deadline flush while the wait
    is the worker's backlog, not the deadline."""
    if objective == "reject_rate":
        # Live HTTP replays can't observe the server's queue depth; only
        # quote the numbers when the replay actually measured them.
        depth = queue.get("max_depth_rows", 0)
        budget = queue.get("budget_rows", 0)
        detail = f" (max depth {depth:.0f}/{budget:.0f} rows)" if depth else ""
        return (
            f"queue saturated{detail}"
            "; raise max_queue_rows, shed earlier, or add engine workers"
        )
    if objective in ("latency_p99_ms", "latency_p50_ms"):
        mean_rows = batches.get("mean_rows", 0.0)
        if max_wait_ms == 0:
            return (
                f"batches left as the worker freed up, at {mean_rows:.0f} mean "
                "rows with no batch deadline; the worker is busy — more "
                "workers, shed earlier, or a compact model"
            )
        if batches.get("wait_triggered", 0) > batches.get("count_triggered", 0):
            return (
                f"batches flushed by deadline at {mean_rows:.0f} mean rows; "
                "max_wait_ms dominates latency — lower it or adapt it to load"
            )
        return (
            f"batches flushed full at {mean_rows:.0f} mean rows; the worker "
            "is compute-bound — smaller batches, more workers, or a compact model"
        )
    if objective == "error_rate":
        return "non-503 errors present; inspect the server log — this is a bug, not load"
    if objective == "correctness":
        return "served values diverge from offline decision_function; check model generation/rollout"
    return ""
