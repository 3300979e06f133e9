"""Solver strategies for LS-SVM training: exact CG, direct Nyström, RFF.

The paper's exact solver pays O(m²) kernel work per CG matvec. PR 2
already used a rank-``r`` RPCholesky Nyström factorization *as a
preconditioner*; following Andrecut (*Randomized Kernel Methods for
Least-Squares Support Vector Machines*) this module solves the
randomized rank-``r`` problem **directly** — O(m·r) training instead of
O(m²) per iteration — behind a single ``solver=`` strategy switch:

* ``"cg"`` — the exact path (Eq. 14 solved by preconditioned CG), the
  default and the accuracy reference.
* ``"nystrom"`` — the reduced system's corrected kernel is factored by
  randomly pivoted partial Cholesky (reusing
  :class:`repro.core.precond.NystromPrecond`) and the rank-``r``
  surrogate ``(F F^T + diag(ridge)) x = b`` is solved in closed form via
  the Woodbury identity — **no outer CG**. An optional *polish* runs a
  few warm-started exact-CG iterations from the direct solution
  (Glasmachers' recipe: cheap refinement on top of a randomized
  solution recovers most of the exact accuracy).
* ``"rff"`` — a random Fourier feature map (Rahimi & Recht) for the RBF
  kernel: ``z(x) = sqrt(2/r) cos(x Omega + b)`` with
  ``Omega ~ N(0, 2 gamma)`` turns the kernel problem into an
  ``r``-dimensional *primal* ridge regression whose normal equations are
  an ``(r+1) x (r+1)`` SPD solve — O(m r d + m r² + r³) training and a
  **compact model** (feature-map weights, no support set) with O(r d)
  predict cost per row.

All strategies report through the active telemetry context and return a
:class:`SolverInfo` (strategy, realized rank, setup seconds) alongside
the familiar :class:`~repro.core.cg.CGResult` /
:class:`~repro.core.cg.BlockCGResult`, so the per-fit
:class:`~repro.telemetry.TrainingReport` can attribute every fit to the
tier that ran. Randomness is driven by a *single* seed per fit
(``solver_seed``): RPCholesky pivot sampling and RFF frequency sampling
both consume the same seeded generator, making randomized fits
bit-reproducible run-to-run.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Tuple, Union

import numpy as np

from ..exceptions import InvalidParameterError
from ..parameter import Parameter
from ..telemetry.context import current_context
from ..types import KernelType, SolverStatus
from .cg import BlockCGResult, CGResult, conjugate_gradient
from .kernels import kernel_matrix
from .precond import NystromPrecond, rpcholesky

__all__ = [
    "SOLVER_STRATEGIES",
    "SolverInfo",
    "FourierFeatureMap",
    "default_solver_rank",
    "resolve_solver",
    "solve_nystrom",
    "solve_nystrom_block",
    "sample_fourier_features",
    "fit_rff_primal",
    "fit_rff_primal_multi",
    "fit_reduced_set",
]

#: The recognised ``solver=`` strategies.
SOLVER_STRATEGIES = ("cg", "nystrom", "rff")


def resolve_solver(name: Union[str, None]) -> str:
    """Normalize and validate a ``solver=`` argument."""
    if name is None:
        return "cg"
    key = str(name).strip().lower()
    if key not in SOLVER_STRATEGIES:
        raise InvalidParameterError(
            f"unknown solver {name!r}; expected one of {', '.join(SOLVER_STRATEGIES)}"
        )
    return key


def default_solver_rank(n: int) -> int:
    """Rank heuristic for the *direct* randomized solvers: ``~4 sqrt(n)``.

    Twice :func:`repro.core.precond.default_nystrom_rank` — a direct
    solve has no outer CG to mop up the tail of the spectrum, so it
    needs a larger slice of it up front. Clamped to ``[32, min(n, 1024)]``:
    setup stays O(m r d + m r²), far below one exact O(m²) sweep, while
    the rank is large enough that the rank-``r`` surrogate's solution
    classifies within a percent of the exact one on smooth RBF problems.
    """
    if n < 1:
        raise InvalidParameterError(f"system size must be positive, got {n}")
    return max(32, min(int(4 * np.sqrt(n)), n, 1024))


@dataclasses.dataclass
class SolverInfo:
    """Which solver tier ran, at what rank, and what its setup cost.

    Stamped into the per-fit :class:`~repro.telemetry.TrainingReport`'s
    ``solver`` object as ``strategy`` / ``rank`` / ``setup_seconds``.
    ``rank`` is the *realized* rank (RPCholesky may stop early when the
    residual trace is exhausted); 0 for the exact ``cg`` strategy.
    """

    strategy: str = "cg"
    rank: int = 0
    setup_seconds: float = 0.0


def _direct_result(qmat, rhs: np.ndarray, x: np.ndarray) -> CGResult:
    """Wrap a direct solution with one honest true-residual evaluation."""
    rhs = np.asarray(rhs)
    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        residual = 0.0
    else:
        residual = float(np.linalg.norm(rhs - qmat.matvec(x))) / b_norm
    return CGResult(
        x=np.asarray(x),
        iterations=0,
        residual=residual,
        status=SolverStatus.DIRECT,
        residual_history=[residual],
    )


def _build_nystrom(qmat, rank: Optional[int], rng) -> Tuple[NystromPrecond, float]:
    """RPCholesky-factor the reduced system; returns (operator, setup seconds)."""
    n = qmat.shape[0]
    r = default_solver_rank(n) if rank is None else int(rank)
    if r < 1:
        raise InvalidParameterError(f"solver_rank must be positive, got {rank}")
    ctx = current_context()
    start = time.perf_counter()
    with ctx.span("solver_setup", strategy="nystrom", rank=min(r, n)):
        nys = NystromPrecond.from_qmatrix(qmat, rank=min(r, n), rng=rng)
    setup_seconds = time.perf_counter() - start
    ctx.set_gauge("solver_rank", nys.rank)
    return nys, setup_seconds


def solve_nystrom(
    qmat,
    rhs: np.ndarray,
    *,
    rank: Optional[int] = None,
    rng: Union[None, int, np.random.Generator] = None,
    polish_iters: int = 0,
    epsilon: float = 1e-3,
) -> Tuple[CGResult, SolverInfo]:
    """Direct rank-``r`` Nyström solve of the reduced system (Eq. 14).

    Factors the corrected kernel ``G ~= F F^T`` by RPCholesky (never
    materializing it) and solves the surrogate
    ``(F F^T + diag(ridge)) x = b`` exactly through the Woodbury
    identity — :meth:`NystromPrecond.apply` *is* that closed-form
    inverse, one thin SVD at setup and two O(m r) GEMVs to apply.

    ``polish_iters > 0`` then runs warm-started exact CG from the direct
    solution, preconditioned by the very factorization that produced it
    — each polish iteration costs one exact O(m²) sweep but starts from
    a residual already small, so a handful recover exact-CG accuracy.
    """
    nys, setup_seconds = _build_nystrom(qmat, rank, rng)
    x = nys.apply(rhs)
    if polish_iters > 0:
        result = conjugate_gradient(
            qmat,
            rhs,
            epsilon=epsilon,
            max_iter=int(polish_iters),
            x0=x,
            preconditioner=nys,
            warn_on_no_convergence=False,
        )
    else:
        result = _direct_result(qmat, rhs, x)
    return result, SolverInfo("nystrom", nys.rank, setup_seconds)


def solve_nystrom_block(
    qmat,
    B: np.ndarray,
    *,
    rank: Optional[int] = None,
    rng: Union[None, int, np.random.Generator] = None,
    polish_iters: int = 0,
    epsilon: float = 1e-3,
) -> Tuple[BlockCGResult, SolverInfo]:
    """Block variant of :func:`solve_nystrom` (shared multi-class solve).

    The Woodbury apply is already block-shaped — all ``k`` right-hand
    sides ride one factorization and one pair of thin GEMMs. Polish runs
    per column (the block solver has no warm-start), which is fine: the
    point of polish is a *few* iterations.
    """
    B = np.asarray(B)
    if B.ndim != 2:
        raise InvalidParameterError("block right-hand side must be 2-D")
    nys, setup_seconds = _build_nystrom(qmat, rank, rng)
    X = nys.apply(B)
    k = B.shape[1]
    if polish_iters > 0:
        columns = [
            conjugate_gradient(
                qmat,
                B[:, j],
                epsilon=epsilon,
                max_iter=int(polish_iters),
                x0=X[:, j],
                preconditioner=nys,
                warn_on_no_convergence=False,
            )
            for j in range(k)
        ]
        X = np.column_stack([c.x for c in columns])
        residuals = np.asarray([c.residual for c in columns], dtype=np.float64)
        iterations = max(c.iterations for c in columns)
        statuses = [c.status for c in columns]
        status = (
            SolverStatus.CONVERGED
            if all(s is SolverStatus.CONVERGED for s in statuses)
            else SolverStatus.MAX_ITERATIONS
        )
    else:
        R = np.asarray(B, dtype=np.float64) - qmat.matvec_multi(X)
        b_norms = np.linalg.norm(np.asarray(B, dtype=np.float64), axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            residuals = np.where(
                b_norms > 0.0, np.linalg.norm(R, axis=0) / b_norms, 0.0
            )
        iterations = 0
        status = SolverStatus.DIRECT
    result = BlockCGResult(
        X=X,
        iterations=iterations,
        residuals=residuals,
        status=status,
        residual_history=[float(residuals.max()) if residuals.size else 0.0],
    )
    return result, SolverInfo("nystrom", nys.rank, setup_seconds)


# -- random Fourier features --------------------------------------------------


@dataclasses.dataclass
class FourierFeatureMap:
    """The RFF map ``z(x) = sqrt(2/r) cos(x Omega + offsets)``.

    ``Omega`` has shape ``(d, r)`` with entries drawn ``N(0, 2 gamma)``
    — the spectral measure of ``k(x, y) = exp(-gamma ||x - y||²)`` —
    and ``offsets ~ U[0, 2 pi)``, so ``E[z(x) . z(y)] = k(x, y)``
    (Rahimi & Recht, *Random Features for Large-Scale Kernel Machines*).
    This is the one implementation of ``z``, for the rff fit (float64)
    and for a :class:`~repro.core.model.FeatureMapModel`'s engine (the
    model's dtype): it runs in the floating dtype of ``omega``.
    """

    omega: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        omega = np.asarray(self.omega)
        dtype = np.promote_types(omega.dtype, np.float32)
        self.omega = np.ascontiguousarray(omega, dtype=dtype)
        self.offsets = np.asarray(self.offsets, dtype=self.omega.dtype).ravel()
        if self.omega.ndim != 2:
            raise InvalidParameterError("omega must be a 2-D (d, r) array")
        if self.offsets.shape[0] != self.omega.shape[1]:
            raise InvalidParameterError(
                f"{self.offsets.shape[0]} offsets for {self.omega.shape[1]} frequencies"
            )

    @property
    def num_features(self) -> int:
        return self.omega.shape[0]

    @property
    def rank(self) -> int:
        return self.omega.shape[1]

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Feature rows ``z(x)`` for each row of ``X``; shape ``(n, r)``."""
        X = np.asarray(X, dtype=self.omega.dtype)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.shape[1] != self.num_features:
            raise InvalidParameterError(
                f"data has {X.shape[1]} features, feature map expects {self.num_features}"
            )
        Z = X @ self.omega
        Z += self.offsets
        np.cos(Z, out=Z)
        Z *= np.sqrt(2.0 / self.rank)
        return Z[0] if single else Z


def sample_fourier_features(
    num_features: int,
    rank: int,
    gamma: float,
    rng: Union[None, int, np.random.Generator] = None,
) -> FourierFeatureMap:
    """Draw an RFF map for the RBF kernel with the given ``gamma``."""
    if num_features < 1:
        raise InvalidParameterError("num_features must be positive")
    if rank < 1:
        raise InvalidParameterError(f"rank must be positive, got {rank}")
    if gamma is None or gamma <= 0:
        raise InvalidParameterError(f"rff requires gamma > 0, got {gamma}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    omega = gen.normal(0.0, np.sqrt(2.0 * gamma), size=(num_features, int(rank)))
    offsets = gen.uniform(0.0, 2.0 * np.pi, size=int(rank))
    return FourierFeatureMap(omega=omega, offsets=offsets)


def _rff_normal_equations(
    X: np.ndarray,
    Y: np.ndarray,
    fmap: FourierFeatureMap,
    cost: float,
    *,
    block_rows: int = 2048,
) -> Tuple[np.ndarray, np.ndarray]:
    """Assemble the SPD ``(r+1) x (r+1)`` primal system in row blocks.

    The LS-SVM primal on the feature rows ``Z`` (with bias) is ridge
    regression; its normal equations are

        [Z^T Z + I/C   Z^T 1] [w]   [Z^T Y]
        [1^T Z         m    ] [b] = [1^T Y]

    Blocked accumulation keeps peak memory at ``block_rows * r`` feature
    entries — the same bounded-tile idiom as the kernel pipeline. ``X``
    may be a row source (:func:`repro.io.chunked.is_row_source`), in
    which case blocks stream straight from disk and dense ``X`` is never
    materialized.
    """
    from ..io.chunked import is_row_source

    m = X.shape[0] if not is_row_source(X) else X.num_rows
    r = fmap.rank
    k = Y.shape[1]
    G = np.zeros((r + 1, r + 1), dtype=np.float64)
    rhs = np.zeros((r + 1, k), dtype=np.float64)
    if is_row_source(X):
        blocks = X.iter_blocks(block_rows)
    else:
        blocks = (
            (start, min(start + block_rows, m), X[start : min(start + block_rows, m)])
            for start in range(0, m, block_rows)
        )
    for start, stop, block in blocks:
        Z = fmap.transform(block)
        G[:r, :r] += Z.T @ Z
        G[:r, r] += Z.sum(axis=0)
        rhs[:r] += Z.T @ Y[start:stop]
    G[r, :r] = G[:r, r]
    G[r, r] = float(m)
    G[:r, :r] += np.eye(r) / float(cost)
    rhs[r] = Y.sum(axis=0)
    return G, rhs


def _solve_spd(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        theta = np.linalg.solve(G, rhs)
        if np.all(np.isfinite(theta)):
            return theta
    except np.linalg.LinAlgError:
        pass
    return np.linalg.lstsq(G, rhs, rcond=None)[0]


def fit_rff_primal_multi(
    X: np.ndarray,
    Y: np.ndarray,
    param: Parameter,
    *,
    rank: Optional[int] = None,
    rng: Union[None, int, np.random.Generator] = None,
) -> Tuple[FourierFeatureMap, np.ndarray, np.ndarray, BlockCGResult, SolverInfo]:
    """RFF primal fit with ``k`` target columns sharing one feature map.

    Returns ``(fmap, W, biases, result, info)`` with ``W`` of shape
    ``(r, k)``; column ``j`` solves targets ``Y[:, j]``. The shared
    multi-class path uses this: one frequency draw, one Gram assembly,
    one factorization for all classes.
    """
    if param.kernel is not KernelType.RBF:
        raise InvalidParameterError(
            f"solver='rff' maps the RBF kernel only, not {param.kernel}"
        )
    from ..io.chunked import is_row_source

    if not is_row_source(X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise InvalidParameterError("training data must be 2-D")
    Y = np.asarray(Y, dtype=np.float64)
    single = Y.ndim == 1
    if single:
        Y = Y[:, None]
    if Y.shape[0] != X.shape[0]:
        raise InvalidParameterError("data and targets disagree in length")
    m, d = X.shape
    param = param.with_gamma_for(d)
    r = default_solver_rank(m) if rank is None else int(rank)
    if r < 1:
        raise InvalidParameterError(f"solver_rank must be positive, got {rank}")

    ctx = current_context()
    start = time.perf_counter()
    with ctx.span("solver_setup", strategy="rff", rank=r):
        fmap = sample_fourier_features(d, r, param.gamma, rng)
        G, rhs = _rff_normal_equations(X, Y, fmap, param.cost)
    setup_seconds = time.perf_counter() - start
    ctx.set_gauge("solver_rank", r)

    theta = _solve_spd(G, rhs)
    W = theta[:r, :]
    biases = theta[r, :]
    # Residual of the normal equations themselves (one honest check of
    # the r³ factorization, not of the kernel approximation).
    rhs_norms = np.linalg.norm(rhs, axis=0)
    res_norms = np.linalg.norm(G @ theta - rhs, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        residuals = np.where(rhs_norms > 0.0, res_norms / rhs_norms, 0.0)
    result = BlockCGResult(
        X=W,
        iterations=0,
        residuals=residuals,
        status=SolverStatus.DIRECT,
        residual_history=[float(residuals.max()) if residuals.size else 0.0],
    )
    return fmap, W, biases, result, SolverInfo("rff", r, setup_seconds)


def fit_rff_primal(
    X: np.ndarray,
    y: np.ndarray,
    param: Parameter,
    *,
    rank: Optional[int] = None,
    rng: Union[None, int, np.random.Generator] = None,
) -> Tuple[FourierFeatureMap, np.ndarray, float, CGResult, SolverInfo]:
    """Single-target RFF primal fit; see :func:`fit_rff_primal_multi`.

    Returns ``(fmap, weights, bias, result, info)``.
    """
    fmap, W, biases, block_result, info = fit_rff_primal_multi(
        X, y, param, rank=rank, rng=rng
    )
    return fmap, W[:, 0], float(biases[0]), block_result.column(0), info


# -- reduced-set (landmark) solve ---------------------------------------------


def fit_reduced_set(
    X: np.ndarray,
    y: np.ndarray,
    param: Parameter,
    *,
    rank: int,
    rng: Union[None, int, np.random.Generator] = None,
    pivots: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float, np.ndarray, SolverInfo]:
    """Sparse LS-SVM on RPCholesky landmarks (the reduced-set method).

    Restricts the expansion to ``r`` landmark points — the RPCholesky
    pivots, which by construction chase the kernel matrix's residual
    diagonal and so land on the most informative points — and solves the
    regularized primal least squares over their coefficients:

        min_{beta, b}  C/2 ||y - K_mr beta - b 1||² + 1/2 beta^T K_rr beta

    whose normal equations are the SPD ``(r+1) x (r+1)`` system

        [K_rm K_mr + K_rr / C   K_rm 1] [beta]   [K_rm y]
        [1^T K_mr               m     ] [b   ] = [1^T y ].

    This is the one randomized-approximation code path the deprecated
    pruning-based ``SparseLSSVC`` now routes through. Returns
    ``(beta, bias, pivots, info)``; the model is a standard
    :class:`~repro.core.model.LSSVMModel` over ``X[pivots]``.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise InvalidParameterError("training data must be 2-D")
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.shape[0] != X.shape[0]:
        raise InvalidParameterError("data and targets disagree in length")
    m, d = X.shape
    param = param.with_gamma_for(d)
    if rank < 1:
        raise InvalidParameterError(f"rank must be positive, got {rank}")
    kw = param.kernel_kwargs()

    start = time.perf_counter()
    if pivots is None:
        _, pivot_list = rpcholesky(
            X, param.kernel, rank=min(int(rank), m), rng=rng, **kw
        )
        pivots = np.asarray(pivot_list, dtype=np.intp)
    else:
        pivots = np.asarray(pivots, dtype=np.intp).ravel()
    if pivots.size < 1:
        raise InvalidParameterError("reduced-set solve needs at least one landmark")
    landmarks = X[pivots]
    K_mr = kernel_matrix(X, landmarks, param.kernel, **kw).astype(np.float64)
    K_rr = K_mr[pivots]
    r = pivots.size
    G = np.zeros((r + 1, r + 1), dtype=np.float64)
    G[:r, :r] = K_mr.T @ K_mr + K_rr / float(param.cost)
    col_sums = K_mr.sum(axis=0)
    G[:r, r] = col_sums
    G[r, :r] = col_sums
    G[r, r] = float(m)
    # K_rr may be numerically singular (coherent landmarks); a trace-scaled
    # jitter keeps the factorization alive without moving the solution.
    G[:r, :r] += np.eye(r) * (1e-10 * max(np.trace(K_rr) / r, 1.0))
    rhs = np.concatenate([K_mr.T @ y, [float(y.sum())]])
    theta = _solve_spd(G, rhs[:, None])[:, 0]
    setup_seconds = time.perf_counter() - start
    ctx = current_context()
    ctx.set_gauge("solver_rank", int(r))
    return (
        theta[:r],
        float(theta[r]),
        pivots,
        SolverInfo("nystrom", int(r), setup_seconds),
    )
