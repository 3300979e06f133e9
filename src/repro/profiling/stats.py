"""Aggregate statistics over repeated measurement runs.

The paper reports averages over >= 10 runs and compares implementations by
their *coefficient of variation* (std / mean) to show that the CG-based
LS-SVM has drastically steadier runtimes than the SMO solvers (§IV-C:
0.26 vs 0.92/0.60/0.66 on the CPU, 0.11 vs 0.37 on the GPU). This module
provides those aggregates.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

__all__ = [
    "TimingStats",
    "coefficient_of_variation",
    "summarize",
    "speedup",
]


@dataclasses.dataclass(frozen=True)
class TimingStats:
    """Summary statistics of a sample of runtimes (seconds)."""

    mean: float
    std: float
    minimum: float
    maximum: float
    count: int

    @property
    def cv(self) -> float:
        """Coefficient of variation (std / mean); 0 for a zero mean."""
        return self.std / self.mean if self.mean > 0 else 0.0


def summarize(samples: Sequence[float]) -> TimingStats:
    """Compute :class:`TimingStats` for a non-empty sample.

    Uses the population standard deviation (ddof=0), matching how repeated
    benchmark runs of a deterministic workload are usually reported.
    """
    if len(samples) == 0:
        raise ValueError("cannot summarize an empty sample")
    n = len(samples)
    mean = sum(samples) / n
    var = sum((s - mean) ** 2 for s in samples) / n
    return TimingStats(
        mean=mean,
        std=math.sqrt(var),
        minimum=min(samples),
        maximum=max(samples),
        count=n,
    )


def coefficient_of_variation(samples: Sequence[float]) -> float:
    """``std / mean`` of a runtime sample (the paper's stability metric)."""
    return summarize(samples).cv


def speedup(baseline: float, contender: float) -> float:
    """Speedup factor of ``contender`` over ``baseline`` (``baseline / contender``)."""
    if contender <= 0:
        raise ValueError("contender runtime must be positive")
    if baseline < 0:
        raise ValueError("baseline runtime must be non-negative")
    return baseline / contender
