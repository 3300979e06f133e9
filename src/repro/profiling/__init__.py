"""Timing instrumentation for the PLSSVM component breakdown (paper §IV-E).

The paper decomposes a training run into ``read``, ``transform``, ``cg``,
``write`` and ``total``; :class:`ComponentTimer` reproduces exactly that
bookkeeping, and :mod:`repro.profiling.stats` provides the aggregate
statistics (mean, std, coefficient of variation) used in §IV-C.
"""

from .roofline import KernelRooflineStats, format_roofline, roofline_report
from .stats import TimingStats, coefficient_of_variation, summarize
from .timer import ComponentTimer, Timer

__all__ = [
    "Timer",
    "ComponentTimer",
    "TimingStats",
    "coefficient_of_variation",
    "summarize",
    "roofline_report",
    "format_roofline",
    "KernelRooflineStats",
]
