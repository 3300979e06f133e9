"""Process-level memory budget and peak-RSS sampling.

Out-of-core training promises to keep the resident set under a caller-chosen
byte budget (``LSSVC(memory_budget_mb=...)`` / ``plssvm-train
--memory-budget-mb``).  Two small pieces make that promise enforceable:

* an *active budget* — a context-scoped byte limit that allocation-heavy
  code paths consult before materializing large arrays (``ExplicitQMatrix``
  refuses a dense system past it; the tile pipeline clamps its default
  cache to a quarter of it; the incremental engine turns matrix-free once
  its dense factor would not fit; :class:`repro.io.chunked.ChunkedDataset`
  sizes its blocks against it), and
* a *peak-RSS gauge* — the process's own high-water mark (``VmHWM`` on
  Linux, ``getrusage`` elsewhere) sampled into the telemetry context at
  phase boundaries and CG checkpoints, so the ``TrainingReport`` can
  prove the budget held for a whole fit.

The budget is stored in a :class:`contextvars.ContextVar` so concurrent fits
on different threads (or nested fits) each see their own limit.
"""

from __future__ import annotations

import contextlib
import contextvars
import sys
from typing import Iterator, Optional

from .exceptions import InvalidParameterError

__all__ = [
    "active_memory_budget",
    "set_memory_budget",
    "memory_budget",
    "budget_from_mb",
    "format_bytes",
    "peak_rss_bytes",
    "reset_peak_rss",
    "sample_peak_rss",
]

_BUDGET: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "plssvm_memory_budget_bytes", default=None
)


def active_memory_budget() -> Optional[int]:
    """Return the active memory budget in bytes, or ``None`` when unlimited."""
    return _BUDGET.get()


def set_memory_budget(nbytes: Optional[int]) -> contextvars.Token:
    """Set the active budget (bytes; ``None`` clears it) and return a reset token."""
    if nbytes is not None:
        nbytes = int(nbytes)
        if nbytes <= 0:
            raise InvalidParameterError(f"memory budget must be positive, got {nbytes}")
    return _BUDGET.set(nbytes)


def budget_from_mb(mb: Optional[float]) -> Optional[int]:
    """Convert a megabyte budget (as accepted by the CLI/estimators) to bytes."""
    if mb is None:
        return None
    mb = float(mb)
    if not mb > 0:
        raise InvalidParameterError(f"memory budget must be positive, got {mb} MB")
    return int(mb * 1024 * 1024)


@contextlib.contextmanager
def memory_budget(mb: Optional[float]) -> Iterator[Optional[int]]:
    """Scope an active budget of ``mb`` megabytes (``None`` leaves it unchanged)."""
    if mb is None:
        yield active_memory_budget()
        return
    token = set_memory_budget(budget_from_mb(mb))
    try:
        yield active_memory_budget()
    finally:
        _BUDGET.reset(token)


def format_bytes(nbytes: float) -> str:
    """Human-readable byte count (``512.0 MiB``), for error messages."""
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} TiB"


def peak_rss_bytes() -> int:
    """Peak resident-set size of this process, in bytes.

    On Linux this is ``VmHWM`` from ``/proc/self/status``: the high-water
    mark of this process's own address space since it started — or since
    the last successful :func:`reset_peak_rss`, which the fit entry points
    call so the reported peak is the fit's own. ``getrusage``'s
    ``ru_maxrss`` is the fallback elsewhere (kilobytes on Linux, bytes on
    macOS; 0 without :mod:`resource`, e.g. on Windows). It is not used on
    Linux because a child folds its parent's peak into ``ru_maxrss`` when
    it starts a new program, and no reset lowers it: a child of a 300 MB
    process reads at least 300 MB however little it allocates itself.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return int(peak)
    return int(peak) * 1024


def reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS high-water mark to the current RSS.

    Writes ``5`` to ``/proc/self/clear_refs`` (Linux only), after which
    :func:`peak_rss_bytes` reflects allocations made *since the reset* —
    a per-fit peak instead of a process-lifetime one.  Returns ``True``
    when the reset happened; on other platforms (or a locked-down
    ``/proc``) returns ``False`` and samples keep lifetime semantics.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def sample_peak_rss(ctx=None) -> int:
    """Record the current peak RSS into the telemetry ``peak_rss_bytes`` gauge.

    The gauge keeps the *maximum* of all samples taken in the context, so
    a nested fit calling :func:`reset_peak_rss` mid-way cannot understate
    an outer fit's earlier high-water mark.  Returns the sampled value.
    With no active telemetry context the sample is still returned, just
    not recorded.
    """
    peak = peak_rss_bytes()
    if ctx is None:
        from .telemetry import current_context

        ctx = current_context()
    if ctx is not None:
        prev = float(ctx.metrics.value("peak_rss_bytes") or 0.0)
        ctx.set_gauge("peak_rss_bytes", max(float(peak), prev))
    return peak
