"""Kernel functions of the (LS-)SVM (paper §II-E).

Three shapes of evaluation are provided, all sharing one dispatch table:

* :func:`kernel_scalar` — a single pair ``k(x, y)``;
* :func:`kernel_row` — one point against a matrix of points (prediction,
  and the cached ``q`` vector of §III-C2);
* :func:`kernel_matrix` — all pairs between two point sets; the tile
  pipeline (:mod:`repro.core.tile_pipeline`) calls it per row tile so
  that memory stays bounded even for large ``m`` — the NumPy analogue of
  the paper's implicit matrix representation.

All functions accept ``gamma``/``degree``/``coef0`` keyword arguments; the
linear kernel ignores them. Gram computations route through BLAS
(``A @ B.T``); the squared distances of the radial kernel use the
``||x||² - 2<x,y> + ||y||²`` expansion with a clip at zero to stay robust
against cancellation.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..exceptions import InvalidParameterError
from ..types import KernelType

__all__ = [
    "kernel_scalar",
    "kernel_row",
    "kernel_matrix",
    "kernel_diagonal",
    "kernel_flops_per_entry",
    "squared_row_norms",
    "validate_kernel_params",
]


def validate_kernel_params(
    kernel: KernelType, gamma: Optional[float], degree: int, coef0: float
) -> None:
    """Reject parameter combinations the kernel formulas cannot accept."""
    if kernel is KernelType.LINEAR:
        return
    if gamma is None:
        raise InvalidParameterError(
            f"kernel {kernel} requires gamma; resolve it with Parameter.with_gamma_for()"
        )
    if gamma <= 0.0:
        raise InvalidParameterError(f"gamma must be positive, got {gamma}")
    if kernel is KernelType.POLYNOMIAL and degree < 1:
        raise InvalidParameterError(f"degree must be >= 1, got {degree}")


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b.T


def squared_row_norms(points: np.ndarray) -> np.ndarray:
    """``||p||²`` per row — the reusable half of the RBF distance expansion.

    The radial kernel's squared distances expand as
    ``||x||² - 2<x,y> + ||y||²``; the norms depend only on the points, so a
    matvec pipeline that sweeps the same rows every CG iteration computes
    them once and passes them back in via ``kernel_matrix(..., a_sq=, b_sq=)``
    instead of recomputing ``O(m d)`` work per tile per sweep.
    """
    pts = _as_2d(points)
    return np.einsum("ij,ij->i", pts, pts)


def _sq_dists(
    a: np.ndarray,
    b: np.ndarray,
    a_sq: Optional[np.ndarray] = None,
    b_sq: Optional[np.ndarray] = None,
) -> np.ndarray:
    aa = (np.einsum("ij,ij->i", a, a) if a_sq is None else a_sq)[:, None]
    bb = (np.einsum("ij,ij->i", b, b) if b_sq is None else b_sq)[None, :]
    d = aa + bb - 2.0 * _gram(a, b)
    np.maximum(d, 0.0, out=d)
    return d


def _linear(a: np.ndarray, b: np.ndarray, gamma, degree, coef0) -> np.ndarray:
    return _gram(a, b)


def _polynomial(a: np.ndarray, b: np.ndarray, gamma, degree, coef0) -> np.ndarray:
    out = _gram(a, b)
    out *= gamma
    out += coef0
    return out ** degree


def _rbf(
    a: np.ndarray,
    b: np.ndarray,
    gamma,
    degree,
    coef0,
    a_sq: Optional[np.ndarray] = None,
    b_sq: Optional[np.ndarray] = None,
) -> np.ndarray:
    out = _sq_dists(a, b, a_sq, b_sq)
    out *= -gamma
    np.exp(out, out=out)
    return out


def _sigmoid(a: np.ndarray, b: np.ndarray, gamma, degree, coef0) -> np.ndarray:
    out = _gram(a, b)
    out *= gamma
    out += coef0
    np.tanh(out, out=out)
    return out


_KERNELS: Dict[KernelType, Callable[..., np.ndarray]] = {
    KernelType.LINEAR: _linear,
    KernelType.POLYNOMIAL: _polynomial,
    KernelType.RBF: _rbf,
    KernelType.SIGMOID: _sigmoid,
}


def _as_2d(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim == 1:
        return x[None, :]
    if x.ndim != 2:
        raise InvalidParameterError(f"points must be 1-D or 2-D, got ndim={x.ndim}")
    return x


def kernel_matrix(
    a: np.ndarray,
    b: np.ndarray,
    kernel: KernelType,
    *,
    gamma: Optional[float] = None,
    degree: int = 3,
    coef0: float = 0.0,
    a_sq: Optional[np.ndarray] = None,
    b_sq: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Dense kernel matrix ``K[i, j] = k(a_i, b_j)`` of shape ``(len(a), len(b))``.

    ``a_sq`` / ``b_sq`` optionally supply precomputed
    :func:`squared_row_norms` of ``a`` / ``b``; only the radial kernel uses
    them (the dot-product kernels have no distance term).
    """
    kernel = KernelType.from_name(kernel)
    validate_kernel_params(kernel, gamma, degree, coef0)
    a2, b2 = _as_2d(a), _as_2d(b)
    if a2.shape[1] != b2.shape[1]:
        raise InvalidParameterError(
            f"feature dimensions differ: {a2.shape[1]} vs {b2.shape[1]}"
        )
    if kernel is KernelType.RBF:
        return _rbf(a2, b2, gamma, degree, coef0, a_sq, b_sq)
    return _KERNELS[kernel](a2, b2, gamma, degree, coef0)


def kernel_row(
    x: np.ndarray,
    points: np.ndarray,
    kernel: KernelType,
    *,
    gamma: Optional[float] = None,
    degree: int = 3,
    coef0: float = 0.0,
) -> np.ndarray:
    """Vector ``[k(x, p) for p in points]`` for a single point ``x``."""
    return kernel_matrix(
        x, points, kernel, gamma=gamma, degree=degree, coef0=coef0
    ).ravel()


def kernel_scalar(
    x: np.ndarray,
    y: np.ndarray,
    kernel: KernelType,
    *,
    gamma: Optional[float] = None,
    degree: int = 3,
    coef0: float = 0.0,
) -> float:
    """Single kernel value ``k(x, y)``."""
    return float(
        kernel_matrix(x, y, kernel, gamma=gamma, degree=degree, coef0=coef0)[0, 0]
    )


def kernel_diagonal(
    points: np.ndarray,
    kernel: KernelType,
    *,
    gamma: Optional[float] = None,
    degree: int = 3,
    coef0: float = 0.0,
) -> np.ndarray:
    """Diagonal ``[k(p, p) for p in points]`` without forming the full matrix.

    Exploits ``k(p, p) = 1`` for the radial kernel and the self-dot shortcut
    for the dot-product kernels.
    """
    kernel = KernelType.from_name(kernel)
    validate_kernel_params(kernel, gamma, degree, coef0)
    pts = _as_2d(points)
    if kernel is KernelType.RBF:
        return np.ones(pts.shape[0], dtype=pts.dtype)
    self_dots = np.einsum("ij,ij->i", pts, pts)
    if kernel is KernelType.LINEAR:
        return self_dots
    if kernel is KernelType.POLYNOMIAL:
        return (gamma * self_dots + coef0) ** degree
    return np.tanh(gamma * self_dots + coef0)


def kernel_flops_per_entry(kernel: KernelType, num_features: int) -> float:
    """Floating point operations to evaluate one kernel matrix entry.

    Consumed by the simulator's cost model: the dot-product core costs
    ``2d`` FLOPs (multiply + add per feature); the radial kernel's squared
    distance costs ``3d`` (sub, mul, add) plus the exponential, which we
    charge as a fixed 20-FLOP transcendental; the polynomial adds the scale,
    shift and a small power loop.
    """
    kernel = KernelType.from_name(kernel)
    d = float(num_features)
    if kernel is KernelType.LINEAR:
        return 2.0 * d
    if kernel is KernelType.POLYNOMIAL:
        return 2.0 * d + 8.0
    if kernel is KernelType.RBF:
        return 3.0 * d + 20.0
    return 2.0 * d + 20.0
