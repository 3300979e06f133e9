"""Preconditioners for the reduced LS-SVM system.

CG's iteration count on the reduced system of Eq. 14 grows with the
spread of ``Q_tilde``'s spectrum, which for RBF problems grows with the
training-set size — the paper's Fig. 2 shows the ``cg`` component at
>= 92 % of training time, and PR 1 only made each iteration cheaper. This
module attacks the *count*:

* :class:`JacobiPrecond` — the classic diagonal scaling ``M = diag(A)``,
  subsuming the legacy ``preconditioner=<diag vector>`` path of
  :func:`repro.core.cg.conjugate_gradient`. Cheap (O(m) setup), helps when
  the diagonal varies (weighted LS-SVM, dot-product kernels), useless for
  RBF whose diagonal is constant.
* :class:`NystromPrecond` — a randomized Nyström preconditioner in the
  spirit of Frangella/Tropp/Udell (*Randomized Nyström Preconditioning*)
  and Andrecut (*Randomized Kernel Methods for Least-Squares Support
  Vector Machines*): a rank-``r`` approximation ``K_bar ~= F F^T`` of the
  kernel matrix is drawn by **randomly pivoted partial Cholesky**
  (RPCholesky, Chen/Epperly/Tropp/Webber) without ever forming ``K_bar``,
  then ``M = F F^T + diag(ridge)`` is applied in ``O(m r)`` per iteration
  through the Woodbury identity. With the top of the kernel spectrum
  deflated, the preconditioned system's condition number collapses to
  roughly ``(lambda_r + ridge) / ridge`` — iteration counts drop by the
  square root of that ratio.

Both classes implement the :class:`Preconditioner` protocol consumed by
:func:`repro.core.cg.conjugate_gradient` and
:func:`~repro.core.cg.conjugate_gradient_block`. The block solver's rQ
recursion needs a *split* form: any ``E`` with ``E E^T = M^{-1}`` lets it
run its plain (unpreconditioned) recursion on the transformed SPD system
``(E^T A E) Y = E^T B`` with ``X = E Y``. For Jacobi, ``E = D^{-1/2}``
(the transform the block solver already used); for Nyström, ``E`` is the
diagonal scaling composed with a rank-``r`` correction of the identity,
obtained from one thin SVD at setup and applied in ``O(m r)``.

Setup cost and the realized rank are reported through the active
:class:`repro.telemetry.TelemetryContext` so benchmarks and per-fit
reports see the iterations-vs-setup trade-off without plumbing.
"""

from __future__ import annotations

import time
from typing import List, Optional, Protocol, Tuple, Union, runtime_checkable

import numpy as np

from ..exceptions import InvalidParameterError
from ..telemetry.context import current_context
from ..types import KernelType
from .kernels import kernel_diagonal, kernel_row

__all__ = [
    "Preconditioner",
    "JacobiPrecond",
    "NystromPrecond",
    "rpcholesky",
    "refresh_nystrom",
    "default_nystrom_rank",
    "make_preconditioner",
]


@runtime_checkable
class Preconditioner(Protocol):
    """SPD preconditioner interface for the CG solvers.

    ``apply`` is what single-vector PCG consumes (``z = M^{-1} r``); the
    four ``sqrt_*`` methods expose a split factor ``E`` with
    ``E E^T = M^{-1}`` so block CG can run its rQ recursion on the
    symmetrically transformed system (see module docstring). ``E`` need
    not be symmetric — only invertible.
    """

    name: str
    shape: tuple

    def apply(self, R: np.ndarray) -> np.ndarray:
        """``M^{-1} @ R`` for a vector ``(n,)`` or block ``(n, k)``."""
        ...

    def sqrt_apply(self, V: np.ndarray) -> np.ndarray:
        """``E @ V``."""
        ...

    def sqrt_apply_t(self, V: np.ndarray) -> np.ndarray:
        """``E^T @ V``."""
        ...

    def sqrt_unapply(self, V: np.ndarray) -> np.ndarray:
        """``E^{-1} @ V`` (maps an initial guess into transformed space)."""
        ...

    def sqrt_unapply_t(self, V: np.ndarray) -> np.ndarray:
        """``E^{-T} @ V`` (maps transformed residuals back for termination)."""
        ...


def _validate_diag(diag: np.ndarray, *, what: str = "Jacobi preconditioner") -> np.ndarray:
    diag = np.asarray(diag, dtype=np.float64).ravel()
    if diag.size == 0:
        raise InvalidParameterError(f"{what} requires a non-empty diagonal")
    if not np.all(np.isfinite(diag)):
        raise InvalidParameterError(f"{what} requires finite diagonal entries")
    if np.any(diag <= 0):
        raise InvalidParameterError(
            f"{what} requires strictly positive diagonal entries"
        )
    return diag


class JacobiPrecond:
    """Diagonal (Jacobi) preconditioner ``M = diag(d)``.

    Subsumes the legacy ``preconditioner=<diag vector>`` arguments of both
    CG entry points: they now wrap the vector in this class, so the
    positivity/finiteness validation (and its
    :class:`~repro.exceptions.InvalidParameterError`) is identical on the
    single-RHS and block paths.
    """

    name = "jacobi"

    def __init__(self, diag: np.ndarray) -> None:
        d = _validate_diag(diag)
        self.diag = d
        self._inv = 1.0 / d
        self._isqrt = np.sqrt(self._inv)
        self._sqrt = 1.0 / self._isqrt
        self.applies = 0

    @classmethod
    def from_qmatrix(cls, qmat) -> "JacobiPrecond":
        """Jacobi preconditioner of a reduced system (``M = diag(Q_tilde)``)."""
        return cls(qmat.diagonal())

    @property
    def shape(self) -> tuple:
        n = self.diag.shape[0]
        return (n, n)

    @property
    def rank(self) -> int:
        """Low-rank correction rank (0: Jacobi is purely diagonal)."""
        return 0

    def _scale(self, V: np.ndarray, s: np.ndarray) -> np.ndarray:
        V = np.asarray(V)
        return s * V if V.ndim == 1 else s[:, None] * V

    def apply(self, R: np.ndarray) -> np.ndarray:
        self.applies += 1
        return self._scale(R, self._inv)

    def sqrt_apply(self, V: np.ndarray) -> np.ndarray:
        return self._scale(V, self._isqrt)

    # E = D^{-1/2} is symmetric, so E^T == E and E^{-T} == E^{-1}.
    sqrt_apply_t = sqrt_apply

    def sqrt_unapply(self, V: np.ndarray) -> np.ndarray:
        return self._scale(V, self._sqrt)

    sqrt_unapply_t = sqrt_unapply


def _rpcholesky_oracle(
    diag: np.ndarray,
    column,
    *,
    rank: int,
    rng: Union[None, int, np.random.Generator] = None,
    tol: float = 1e-12,
) -> Tuple[np.ndarray, List[int]]:
    """Randomly pivoted partial Cholesky of an implicit PSD matrix.

    Matrix access is via oracles — its ``diag`` and a ``column(s)``
    callable returning column ``s`` — so the ``m x m`` matrix is never
    materialized: ``rank`` columns (``O(m r)`` oracle calls) plus
    ``O(m r^2)`` linear algebra. Pivots are sampled proportionally to the
    residual diagonal, which gives the RPCholesky guarantee of
    Chen/Epperly/Tropp/Webber (2022): the expected trace error is within a
    modest factor of the best rank-``r`` approximation.

    Returns ``(F, pivots)`` with ``A ~= F F^T``; ``F`` has one column per
    accepted pivot and may be narrower than ``rank`` when the residual
    trace is exhausted early (the matrix is then numerically of lower
    rank — a *better* outcome, not a failure).
    """
    if rank < 1:
        raise InvalidParameterError(f"rank must be positive, got {rank}")
    d = np.asarray(diag, dtype=np.float64).copy().ravel()
    m = d.shape[0]
    rank = min(int(rank), m)
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    np.clip(d, 0.0, None, out=d)
    trace0 = float(d.sum())
    F = np.zeros((m, rank), dtype=np.float64)
    pivots: List[int] = []
    for i in range(rank):
        total = float(d.sum())
        if not np.isfinite(total) or total <= tol * max(trace0, 1.0):
            break
        s = int(gen.choice(m, p=d / total))
        col = np.asarray(column(s), dtype=np.float64).ravel()
        if i:
            col -= F[:, :i] @ F[s, :i]
        pivot_val = float(col[s])
        if pivot_val <= tol:
            # Sampled a numerically eliminated point; residual is exhausted.
            break
        F[:, i] = col / np.sqrt(pivot_val)
        d -= F[:, i] ** 2
        np.clip(d, 0.0, None, out=d)
        pivots.append(s)
    return F[:, : len(pivots)], pivots


def rpcholesky(
    points: np.ndarray,
    kernel: Union[str, int, KernelType],
    *,
    rank: int,
    gamma: Optional[float] = None,
    degree: int = 3,
    coef0: float = 0.0,
    rng: Union[None, int, np.random.Generator] = None,
    tol: float = 1e-12,
) -> Tuple[np.ndarray, List[int]]:
    """Randomly pivoted partial Cholesky of a kernel matrix ``K ~= F F^T``.

    Convenience wrapper of the oracle-based factorization for a plain
    kernel matrix over ``points`` — each pivot costs one
    :func:`~repro.core.kernels.kernel_row` evaluation (``O(m d)``), so the
    total work is ``O(m r d + m r^2)`` without ever forming ``K``.
    """
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2:
        raise InvalidParameterError("points must be a 2-D array")
    kernel = KernelType.from_name(kernel)
    kw = dict(gamma=gamma, degree=degree, coef0=coef0)
    return _rpcholesky_oracle(
        kernel_diagonal(pts, kernel, **kw),
        lambda s: kernel_row(pts[s], pts, kernel, **kw),
        rank=rank,
        rng=rng,
        tol=tol,
    )


class NystromPrecond:
    """Low-rank-plus-diagonal preconditioner ``M = F F^T + diag(d)``.

    ``F`` is a (partial-Cholesky / Nyström) factor of the kernel matrix
    and ``d`` the positive ridge vector of the reduced system, so ``M``
    is SPD *for any factor* — including an empty one, where it degrades
    gracefully to Jacobi on the ridge.

    Application uses the Woodbury identity in scaled form: with
    ``Ft = D^{-1/2} F = U diag(s) V^T`` (one thin SVD at setup),

        M^{-1} = D^{-1/2} (I - U diag(s^2/(1+s^2)) U^T) D^{-1/2}

    and the split factor for block CG is ``E = D^{-1/2} S`` with the
    symmetric ``S = (I + Ft Ft^T)^{-1/2} = I + U diag((1+s^2)^{-1/2}-1) U^T``
    (so ``E E^T = M^{-1}`` exactly). Every application is two thin GEMVs
    against ``U`` — ``O(m r)``.

    :meth:`from_qmatrix` factors the reduced system's *corrected* kernel

        G = K_bar - 1 q^T - q 1^T + q_mm 1 1^T

    rather than ``K_bar`` alone: ``G`` is PSD (it is the Gram matrix of
    the centered features ``phi(x_i) - phi(x_m)`` plus
    ``ridge_m * 1 1^T``), it is exactly ``Q_tilde - diag(ridge)``, and its
    rank-one ``q`` terms have spectral norm ``O(m)`` — orders of magnitude
    above the ridge — so a factor that ignored them would leave the
    preconditioned spectrum with huge outliers.
    """

    name = "nystrom"

    #: Reduced-row indices of the RPCholesky pivots the factor was built
    #: from (set by :meth:`from_qmatrix` / :func:`refresh_nystrom`). The
    #: incremental engine reuses them as fixed Nyström landmarks when the
    #: spectrum shift of an appended chunk is small.
    pivots: tuple = ()

    def __init__(self, factor: np.ndarray, diag: np.ndarray) -> None:
        F = np.asarray(factor, dtype=np.float64)
        if F.ndim != 2:
            raise InvalidParameterError("factor must be a 2-D array")
        d = _validate_diag(diag, what="Nystrom preconditioner")
        if F.shape[0] != d.shape[0]:
            raise InvalidParameterError(
                f"factor rows ({F.shape[0]}) do not match diagonal length ({d.shape[0]})"
            )
        if not np.all(np.isfinite(F)):
            raise InvalidParameterError("factor contains NaN or infinite values")
        self.diag = d
        self.rank = int(F.shape[1])
        self._isqrt_d = np.sqrt(1.0 / d)
        self._sqrt_d = 1.0 / self._isqrt_d
        Ft = F * self._isqrt_d[:, None]
        U, s, _ = np.linalg.svd(Ft, full_matrices=False)
        s2 = s ** 2
        self._U = np.ascontiguousarray(U)
        self._w_inv = -s2 / (1.0 + s2)                # M^{-1} core weights
        self._w_s = 1.0 / np.sqrt(1.0 + s2) - 1.0     # S   = I + U w U^T
        self._w_s_inv = np.sqrt(1.0 + s2) - 1.0       # S^-1 = I + U w U^T
        self.applies = 0

    @classmethod
    def from_qmatrix(
        cls,
        qmat,
        *,
        rank: Optional[int] = None,
        rng: Union[None, int, np.random.Generator] = None,
    ) -> "NystromPrecond":
        """Build the preconditioner for a reduced system operator.

        Runs the oracle RPCholesky on the operator's corrected kernel
        ``G = Q_tilde - diag(ridge)`` (see class docstring). Pivot columns
        go through the operator's row-block protocol
        (:meth:`~repro.core.qmatrix.QMatrixBase.kernel_column`) plus O(m)
        corrections, so neither the kernel matrix nor dense ``X`` is ever
        formed — an operator over a row source streams each column.
        ``rank=None`` picks :func:`default_nystrom_rank`.
        """
        n = qmat.shape[0]
        r = default_nystrom_rank(n) if rank is None else int(rank)
        if r < 1:
            raise InvalidParameterError(f"precond_rank must be positive, got {rank}")
        q_bar = np.asarray(qmat.q_bar, dtype=np.float64)
        q_mm = float(qmat.q_mm)

        def corrected_column(s: int) -> np.ndarray:
            col = np.asarray(qmat.kernel_column(s), dtype=np.float64)
            col -= q_bar[s]
            col -= q_bar
            col += q_mm
            return col

        diag = np.asarray(qmat.diagonal(), dtype=np.float64) - np.asarray(
            qmat.ridge_bar, dtype=np.float64
        )
        F, pivots = _rpcholesky_oracle(
            diag, corrected_column, rank=min(r, n), rng=rng
        )
        precond = cls(F, qmat.ridge_bar)
        precond.pivots = tuple(pivots)
        return precond

    @property
    def shape(self) -> tuple:
        n = self.diag.shape[0]
        return (n, n)

    def _low_rank(self, V: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``(I + U diag(w) U^T) @ V`` for a vector or block."""
        if self.rank == 0:
            return np.asarray(V, dtype=np.float64).copy()
        V = np.asarray(V, dtype=np.float64)
        if V.ndim == 1:
            return V + self._U @ (w * (self._U.T @ V))
        return V + self._U @ (w[:, None] * (self._U.T @ V))

    def _scale(self, V: np.ndarray, s: np.ndarray) -> np.ndarray:
        V = np.asarray(V, dtype=np.float64)
        return s * V if V.ndim == 1 else s[:, None] * V

    def apply(self, R: np.ndarray) -> np.ndarray:
        self.applies += 1
        return self._scale(self._low_rank(self._scale(R, self._isqrt_d), self._w_inv), self._isqrt_d)

    def sqrt_apply(self, V: np.ndarray) -> np.ndarray:
        # E = D^{-1/2} S
        return self._scale(self._low_rank(V, self._w_s), self._isqrt_d)

    def sqrt_apply_t(self, V: np.ndarray) -> np.ndarray:
        # E^T = S D^{-1/2}
        return self._low_rank(self._scale(V, self._isqrt_d), self._w_s)

    def sqrt_unapply(self, V: np.ndarray) -> np.ndarray:
        # E^{-1} = S^{-1} D^{1/2}
        return self._low_rank(self._scale(V, self._sqrt_d), self._w_s_inv)

    def sqrt_unapply_t(self, V: np.ndarray) -> np.ndarray:
        # E^{-T} = D^{1/2} S^{-1}
        return self._scale(self._low_rank(V, self._w_s_inv), self._sqrt_d)


def refresh_nystrom(qmat, pivots) -> NystromPrecond:
    """Rebuild a Nyström preconditioner on *fixed* landmark pivots.

    The incremental-training warm path: when ``partial_fit`` appends a
    small chunk, the corrected kernel ``G`` changes — every entry sees the
    new eliminated point — but its dominant eigenspace barely moves, so
    the expensive randomized pivot *search* need not be redone. This
    recomputes only the ``r`` pivot columns of the new ``G`` (``O(m r)``
    kernel entries) and forms the classic fixed-landmark Nyström factor

        G  ~=  C B^{-1} C^T  =  F F^T,   F = C L^{-T},  B = L L^T

    with ``C = G[:, pivots]`` and ``B = G[pivots][:, pivots]`` (jittered
    Cholesky for numerical PSD safety). Pivot indices refer to reduced
    rows of the *previous* system; appended rows only extend the index
    space, so they remain valid verbatim.
    """
    pivots = tuple(int(p) for p in pivots)
    n = qmat.shape[0]
    if not pivots:
        raise InvalidParameterError("refresh_nystrom needs a non-empty pivot set")
    if max(pivots) >= n or min(pivots) < 0:
        raise InvalidParameterError(
            f"pivot index out of range for system size {n}"
        )
    q_bar = np.asarray(qmat.q_bar, dtype=np.float64)
    q_mm = float(qmat.q_mm)

    def corrected_column(s: int) -> np.ndarray:
        col = np.asarray(qmat.kernel_column(s), dtype=np.float64)
        col -= q_bar[s]
        col -= q_bar
        col += q_mm
        return col

    ctx = current_context()
    start = time.perf_counter()
    with ctx.span("precond_setup", kind="nystrom-refresh", rank=len(pivots)):
        C = np.column_stack([corrected_column(s) for s in pivots])
        B = C[list(pivots), :]
        B = 0.5 * (B + B.T)
        jitter = 1e-12 * max(float(np.trace(B)), 1.0)
        L = None
        for _ in range(4):
            try:
                L = np.linalg.cholesky(B + jitter * np.eye(B.shape[0]))
                break
            except np.linalg.LinAlgError:
                jitter *= 1e3
        if L is None:
            raise InvalidParameterError(
                "pivot block is numerically indefinite; rebuild the "
                "preconditioner from scratch"
            )
        # F = C L^{-T}  =>  F F^T = C B^{-1} C^T.
        F = np.linalg.solve(L, C.T).T
        precond = NystromPrecond(F, qmat.ridge_bar)
        precond.pivots = pivots
    ctx.inc("precond_setups")
    ctx.inc("precond_setup_seconds", time.perf_counter() - start)
    ctx.set_gauge("precond_rank", precond.rank)
    return precond


def default_nystrom_rank(n: int) -> int:
    """Rank heuristic: ``~2 sqrt(n)`` clamped to ``[16, min(n, 512)]``.

    Large enough to deflate the slowly decaying head of a smooth kernel
    spectrum, small enough that setup (``O(m r d + m r^2)``) and the
    per-iteration ``O(m r)`` stay well below one tile sweep (``O(m^2)``).
    """
    if n < 1:
        raise InvalidParameterError(f"system size must be positive, got {n}")
    return max(16, min(int(2 * np.sqrt(n)), n, 512))


def make_preconditioner(
    qmat,
    kind: Union[None, str, Preconditioner],
    *,
    rank: Optional[int] = None,
    rng: Union[None, int, np.random.Generator] = None,
) -> Optional[Preconditioner]:
    """Resolve a ``precondition=`` argument against a reduced system.

    ``kind`` may be ``None`` / ``"none"`` (no preconditioning),
    ``"jacobi"``, ``"nystrom"``, or a ready-made :class:`Preconditioner`
    instance (returned as-is). Setup wall time and the realized rank are
    reported through the active :class:`repro.telemetry.TelemetryContext`.
    """
    if kind is None:
        return None
    if not isinstance(kind, str):
        if isinstance(kind, Preconditioner):
            return kind
        raise InvalidParameterError(
            f"precondition must be None, 'jacobi', 'nystrom', or a Preconditioner, "
            f"got {type(kind).__name__}"
        )
    name = kind.strip().lower()
    if name in ("", "none"):
        return None
    ctx = current_context()
    start = time.perf_counter()
    with ctx.span("precond_setup", kind=name):
        if name == "jacobi":
            precond: Preconditioner = JacobiPrecond.from_qmatrix(qmat)
        elif name == "nystrom":
            precond = NystromPrecond.from_qmatrix(qmat, rank=rank, rng=rng)
        else:
            raise InvalidParameterError(
                f"unknown preconditioner {kind!r}; expected 'jacobi', 'nystrom', or None"
            )
    ctx.inc("precond_setups")
    ctx.inc("precond_setup_seconds", time.perf_counter() - start)
    ctx.set_gauge("precond_rank", getattr(precond, "rank", 0))
    return precond
