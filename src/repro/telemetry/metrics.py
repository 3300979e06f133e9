"""Typed metrics for the per-fit telemetry contexts.

Three metric kinds, mirroring the usual observability trio:

* :class:`Counter` — a monotonically growing tally (``tile_sweeps``,
  ``cg_iterations``, summed seconds like ``precond_setup_seconds``);
* :class:`Gauge` — a last-write-wins sample (``precond_rank``);
* :class:`Histogram` — a streaming summary (count / total / min / max) of
  repeated observations (``sweep_seconds``, ``iteration_seconds``), kept
  O(1) per observation so the solver's hot loop can afford it.

A :class:`MetricsRegistry` holds one namespace of metrics. The solver
counters (:data:`SOLVER_COUNTER_NAMES`, plus the ``precond_rank`` gauge)
are pre-registered as typed metrics, so a registry snapshot can always be
materialized into the solver-counter dict that ``TrainingReport.counters``
and the benchmark output carry.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RESERVOIR_SIZE",
    "SOLVER_COUNTER_NAMES",
    "SOLVER_GAUGE_NAMES",
]

#: Solver counters that accumulate (everything but the rank gauge):
#: tile sweeps and tiles computed by the tile pipeline, cache traffic,
#: CG solves and iterations, preconditioner setups, and the fault-recovery
#: activity of the resilient CG driver.
SOLVER_COUNTER_NAMES: List[str] = [
    "tile_sweeps",
    "tiles_computed",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_oversized",
    "cg_solves",
    "cg_iterations",
    "precond_setups",
    "precond_setup_seconds",
    "devices_lost",
    "redistributions",
    "checkpoint_restores",
    "transient_retries",
    "backoff_seconds",
]

#: Solver metrics that are last-write-wins samples.
SOLVER_GAUGE_NAMES: List[str] = ["precond_rank"]


class Counter:
    """Monotonic tally."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount

    def snapshot(self) -> Union[int, float]:
        return self.value


class Gauge:
    """Last-write-wins sample."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def snapshot(self) -> Union[int, float]:
        return self.value


#: Ring-buffer capacity for histogram quantile reservoirs. Big enough
#: that p99 over a serving window is meaningful, small enough that a
#: long-lived server holds a bounded float list per histogram.
RESERVOIR_SIZE = 2048


class Histogram:
    """Streaming summary of observations: count, total, min, max.

    Deliberately bucket-free — the report consumers (per-phase second
    sums, mean sweep cost) need aggregates, and O(1) state keeps the
    per-iteration overhead negligible. A bounded ring-buffer reservoir
    of the most recent :data:`RESERVOIR_SIZE` observations additionally
    supports :meth:`quantiles` (p50/p95/p99 for the serving report) —
    recency-biased on purpose: a serving quantile should describe the
    server *now*, not its lifetime average.
    """

    kind = "histogram"
    __slots__ = ("name", "count", "total", "minimum", "maximum", "_reservoir")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self._reservoir: List[float] = []

    def observe(self, value: float) -> None:
        if len(self._reservoir) < RESERVOIR_SIZE:
            self._reservoir.append(value)
        else:
            self._reservoir[self.count % RESERVOIR_SIZE] = value
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``0 <= q <= 1``) over the recent reservoir.

        Nearest-rank on a sorted copy; 0.0 when nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q}")
        data = sorted(self._reservoir)
        if not data:
            return 0.0
        rank = min(len(data) - 1, max(0, int(round(q * (len(data) - 1)))))
        return data[rank]

    def quantiles(self, qs=(0.5, 0.95, 0.99)) -> Dict[str, float]:
        """Named quantile snapshot (``{"p50": ..., "p95": ..., ...}``)."""
        data = sorted(self._reservoir)
        out: Dict[str, float] = {}
        for q in qs:
            if not data:
                out[f"p{round(q * 100):g}"] = 0.0
            else:
                rank = min(len(data) - 1, max(0, int(round(q * (len(data) - 1)))))
                out[f"p{round(q * 100):g}"] = data[rank]
        return out

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }


class MetricsRegistry:
    """One namespace of typed metrics, safe for concurrent writers.

    The registry itself does *not* propagate to parents — cross-context
    aggregation (per-fit numbers bubbling into the process root so the
    deprecated global counters stay correct) is the job of
    :class:`repro.telemetry.context.TelemetryContext`, which walks its
    ancestry and updates each registry along the way.
    """

    def __init__(self, *, preregister_solver_metrics: bool = True) -> None:
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}
        self._lock = threading.Lock()
        if preregister_solver_metrics:
            for name in SOLVER_COUNTER_NAMES:
                self._metrics[name] = Counter(name)
            for name in SOLVER_GAUGE_NAMES:
                self._metrics[name] = Gauge(name)

    def _get_or_create(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = cls(name)
                    self._metrics[name] = metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def value(self, name: str) -> Union[int, float]:
        """Scalar value of a counter/gauge (0 when never touched)."""
        metric = self._metrics.get(name)
        if metric is None:
            return 0
        if isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is a histogram; use snapshot()")
        return metric.value

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time dump of every metric, keyed by name."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {m.name: m.snapshot() for m in metrics}

    def solver_counters_dict(self) -> Dict[str, Union[int, float]]:
        """The solver-counter view (incl. derived cache_hit_rate)."""
        out: Dict[str, Union[int, float]] = {}
        for name in SOLVER_COUNTER_NAMES:
            out[name] = self.value(name)
        for name in SOLVER_GAUGE_NAMES:
            out[name] = self.value(name)
        hits = out.get("cache_hits", 0)
        misses = out.get("cache_misses", 0)
        total = hits + misses
        out["cache_hit_rate"] = hits / total if total else 0.0
        return out

    def reset(self) -> None:
        """Zero every registered metric (the benchmark-harness hook)."""
        with self._lock:
            for name, metric in list(self._metrics.items()):
                self._metrics[name] = type(metric)(name)
