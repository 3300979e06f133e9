"""Statistics and correctness checks the benchmark computes itself.

Nothing here imports ``repro``: the checks must stay independent of the
code they judge.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "percentile",
    "median",
    "capacity",
    "rbf_block",
    "lssvm_residual",
    "quartile_spread",
]


def percentile(samples: Sequence[float], p: float) -> Tuple[Optional[float], int]:
    """The ``p``-th percentile of ``samples`` and the sample count.

    A percentile is only reported when at least ten samples lie beyond
    it (p99 needs 1000 samples, p50 needs 20); otherwise the value is
    ``None``. The count is returned either way so callers print it.
    Nearest-rank on the sorted samples.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {p}")
    n = len(samples)
    beyond = n * (100.0 - p) / 100.0
    if n == 0 or beyond < 10.0 - 1e-9:
        return None, n
    data = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * n))
    return float(data[rank - 1]), n


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sample (no ten-beyond rule: used for repeats)."""
    if not samples:
        raise ValueError("median of an empty sample")
    return float(np.median(np.asarray(samples, dtype=float)))


def capacity(
    steps: Sequence[Dict[str, float]], limit_ms: float
) -> Optional[Dict[str, float]]:
    """The highest ladder step that meets the latency limit without backlog.

    Each step is a dict with ``rate`` (offered requests/s), ``p99_ms``
    (``None`` when too few samples), ``ok`` (requests that succeeded and
    were checked) and ``backlog`` (true when the generator's lateness
    grew during the step). Steps are searched from the lowest rate up and
    the search stops at the first step that fails, so a lucky higher
    step after a failing one does not count. Returns that step or
    ``None`` when even the lowest step fails.
    """
    best = None
    for step in sorted(steps, key=lambda s: s["rate"]):
        p99 = step.get("p99_ms")
        if p99 is None or p99 > limit_ms or step.get("backlog") or step.get("failed"):
            break
        best = step
    return best


def rbf_block(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """``exp(-gamma * ||a - b||^2)`` for every row pair of ``A`` and ``B``."""
    sq = (
        np.einsum("ij,ij->i", A, A)[:, None]
        + np.einsum("ij,ij->i", B, B)[None, :]
        - 2.0 * (A @ B.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def lssvm_residual(
    X: np.ndarray,
    y: np.ndarray,
    alpha: np.ndarray,
    bias: float,
    gamma: float,
    C: float,
    *,
    block: int = 1024,
) -> float:
    """Relative residual of the LS-SVM optimality system.

    ``[0 1ᵀ; 1 K+I/C] [b; α] = [0; y]`` with the RBF kernel ``K``,
    evaluated in row blocks so memory stays at ``block * m`` entries.
    Returns ``||r|| / ||[0; y]||``. The program eliminates one equation
    exactly and solves the rest by CG to relative residual ``ε`` on a
    right-hand side whose norm is at most ``√2 ||y||``, so a correct fit
    stays below ``√2 ε`` up to rounding.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    alpha = np.asarray(alpha, dtype=np.float64).ravel()
    m = X.shape[0]
    if alpha.shape[0] != m or y.shape[0] != m:
        raise ValueError("alpha, y and X disagree in length")
    r = np.empty(m + 1)
    r[0] = alpha.sum()
    for start in range(0, m, block):
        stop = min(start + block, m)
        K = rbf_block(X[start:stop], X, gamma)
        r[1 + start : 1 + stop] = K @ alpha + alpha[start:stop] / C + bias - y[start:stop]
    return float(np.linalg.norm(r) / np.linalg.norm(y))


def quartile_spread(values: Sequence[float]) -> Tuple[float, float]:
    """Median and inter-quartile range over the median of repeated runs.

    Uses ``statistics.quantiles(values, n=4)``, as the acceptance rule
    for the benchmark's bounds does.
    """
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, ((q3 - q1) / q2 if q2 else math.inf)
