"""The LS-SVM core and the high-level classifier (``plssvm::csvm``).

:class:`LSSVC` is a scikit-learn-style binary classifier:

>>> from repro import LSSVC
>>> clf = LSSVC(kernel="rbf", C=10.0).fit(X_train, y_train)
>>> accuracy = clf.score(X_test, y_test)

Training follows the four steps of §III: the data is (1) already read,
(2) handed to the selected backend (which converts it into its SoA device
layout — the ``transform`` component), (3) the reduced system is solved by
CG (``cg``), and (4) the model can be written via ``save()`` (``write``).
All steps are timed through :class:`repro.profiling.ComponentTimer`.

Every estimator trains through the one core in this module. The reduced
system of Eq. 13/14 is the same for binary labels, regression targets and
the one-vs-rest columns of a multiclass fit; only the targets differ, an
m-vector or an m x k block. :func:`_solve_lssvm` builds the operator,
dispatches the solver (CG, block CG for k > 1 — Tyree et al.'s batching of
right-hand sides — Nyström, RFF or the checkpointed resilient solve),
warm-starts from a previous reduced-system solution and recovers the bias
by Eq. 15; :func:`_append_lssvm` appends a chunk through the
:class:`repro.core.incremental.IncrementalEngine`. Estimators keep only
label encoding and their model objects.

The ``backend`` argument selects who executes the implicit matrix-vector
products: ``None`` keeps the plain NumPy reference path; a name or
:class:`repro.types.BackendType` routes through the backend framework
(OpenMP thread pool, or the simulated CUDA/OpenCL/SYCL devices).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Tuple, Union

import numpy as np

from ..exceptions import DataError, InvalidParameterError, NotFittedError
from ..membudget import memory_budget, reset_peak_rss, sample_peak_rss
from ..parallel.thread_pool import blas_cap
from ..parameter import Parameter, ResourceConfig, SolverConfig
from ..profiling import ComponentTimer
from ..sparse.csr import CSRMatrix
from ..telemetry import TrainingReport, build_report, fit_scope
from ..types import BackendType, KernelType, TargetPlatform
from .cg import CGResult, conjugate_gradient, conjugate_gradient_block
from .estimator import ParamsMixin, apply_config, warn_deprecated_flat_kwargs
from .incremental import IncrementalEngine
from .model import FeatureMapModel, LSSVMModel
from .precond import make_preconditioner
from .qmatrix import (
    build_reduced_system,
    recover_bias_and_alpha,
    reduced_rhs,
    _warm_start_guess,
)
from .resilience import resilient_solve
from .solvers import (
    SolverInfo,
    fit_rff_primal_multi,
    resolve_solver,
    solve_nystrom,
    solve_nystrom_block,
)

__all__ = ["LSSVC", "encode_labels", "decode_labels"]


# -- the LS-SVM core ----------------------------------------------------------


@dataclasses.dataclass
class _Solution:
    """What an estimator keeps of one solve: points, parameters, alpha, b.

    ``alpha``/``bias`` are ``(m,)``/float for a target vector and
    ``(m, k)``/``(k,)`` for a block. An rff fit keeps no points: ``alpha``
    holds the primal weights of ``fmap``. ``targets`` are kept only when a
    later ``partial_fit`` can append to the fit (a dense reduced-system
    fit). The operator is never kept: its tile cache dies with the fit.
    """

    points: object
    param: Parameter
    alpha: np.ndarray
    bias: Union[float, np.ndarray]
    result: object
    report: TrainingReport
    timings: ComponentTimer
    targets: Optional[np.ndarray] = None
    fmap: object = None
    seed: Optional[int] = None


def _configs(est) -> Tuple[SolverConfig, ResourceConfig]:
    """An estimator's solver and resource knobs as the two config groups.

    Knobs the estimator does not expose keep their defaults.
    """

    def group(cls):
        return cls(**{name: getattr(est, name) for name in cls.fields if hasattr(est, name)})

    return group(SolverConfig), group(ResourceConfig)


def _check_options(est) -> None:
    """Validate and normalize an estimator's solver options.

    Every estimator's ``_sync_params`` runs this one check, so each
    exclusion holds alike at construction and in ``set_params``; knobs an
    estimator does not expose read as their defaults.
    """
    config, res = _configs(est)
    backend = getattr(est, "backend", None)
    sparse = bool(getattr(est, "sparse", False))
    solver = resolve_solver(config.solver)
    if config.polish_iters < 0:
        raise InvalidParameterError("polish_iters must be >= 0")
    if config.solver_rank is not None and config.solver_rank < 1:
        raise InvalidParameterError("solver_rank must be positive")
    if res.checkpoint_interval is not None and res.checkpoint_interval < 1:
        raise InvalidParameterError("checkpoint_interval must be positive")
    if res.max_retries < 0:
        raise InvalidParameterError("max_retries must be >= 0")
    if res.fault_plan is not None and (
        backend is None
        or (
            isinstance(backend, (str, BackendType))
            and BackendType.from_name(backend) is BackendType.OPENMP
        )
    ):
        raise InvalidParameterError(
            "fault_plan requires a device backend (cuda/opencl/sycl); "
            "the host paths have no devices to fault"
        )
    if sparse and backend is not None:
        raise DataError("sparse CG runs on the NumPy path; use backend=None")
    if solver != "cg":
        if res.fault_plan is not None or res.checkpoint_interval is not None:
            raise InvalidParameterError(
                "fault_plan/checkpoint_interval require the resilient "
                f"checkpointed CG; solver={solver!r} is a direct randomized solve"
            )
        if config.precondition is not None:
            raise InvalidParameterError(
                f"precondition applies to solver='cg' only; solver="
                f"{solver!r} has no outer CG (use polish_iters for "
                "refinement)"
            )
        if sparse:
            raise InvalidParameterError(
                "sparse CG and the randomized solvers are exclusive paths"
            )
    if config.polish_iters and solver != "nystrom":
        raise InvalidParameterError(
            "polish_iters refines the nystrom direct solve; it does not "
            f"apply to solver={solver!r}"
        )
    if solver == "rff":
        if est.param.kernel is not KernelType.RBF:
            raise InvalidParameterError(
                f"solver='rff' maps the RBF kernel only (got kernel={est.param.kernel})"
            )
        if backend is not None:
            raise InvalidParameterError(
                "solver='rff' is a host-side primal solve; use backend=None"
            )
    if res.memory_budget_mb is not None and res.memory_budget_mb <= 0:
        raise InvalidParameterError(
            f"memory_budget_mb must be positive, got {res.memory_budget_mb}"
        )
    est.solver = solver
    est.polish_iters = int(config.polish_iters)
    if hasattr(est, "max_retries"):
        est.max_retries = int(res.max_retries)


def _solve_lssvm(
    X,
    T: np.ndarray,
    param: Parameter,
    config: SolverConfig,
    resources: ResourceConfig,
    *,
    estimator: str,
    backend=None,
    sparse: bool = False,
    ridge: Optional[np.ndarray] = None,
    binary_labels: bool = True,
    warm_from: Optional[_Solution] = None,
) -> _Solution:
    """Solve the LS-SVM system for the targets ``T``: every estimator's fit.

    ``T`` is an m-vector or an ``(m, k)`` block sharing one operator; a
    single column runs vector CG, a block runs block CG (one kernel sweep
    per iteration for all columns). ``X`` may be a row source
    (:class:`repro.io.ChunkedDataset`), streamed and never densified.
    ``backend`` is a resolved backend instance (``None``: the NumPy path);
    ``ridge``/``binary_labels`` pass through to the operator (weighted
    fits, regression targets). ``warm_from`` starts exact CG from a
    previous reduced-system solution.
    """
    from ..io.chunked import is_row_source  # deferred: io imports core

    timings = ComponentTimer()
    T = np.asarray(T, dtype=param.dtype)
    block = T.ndim == 2
    warm_iterations = 0
    fmap = None
    # Reset the kernel RSS high-water mark before the wall clock starts:
    # the /proc write is a syscall (and GIL-switch point) that should not
    # count against the fit's phase accounting.
    reset_peak_rss()
    with fit_scope(
        f"{estimator}.fit", estimator=estimator, **({"classes": T.shape[1]} if block else {})
    ) as ctx:
        with memory_budget(resources.memory_budget_mb), timings.section("total"):
            if is_row_source(X):
                if backend is not None or sparse:
                    raise InvalidParameterError(
                        "chunked/row-source training data requires the "
                        "NumPy dense-free path (backend=None, sparse=False)"
                    )
            else:
                X = np.asarray(X, dtype=param.dtype)
                if X.ndim != 2:
                    raise DataError(f"training data must be 2-D, got ndim={X.ndim}")
            if config.solver == "rff":
                # No reduced system: feature sampling, one blocked Gram
                # accumulation and an (r+1)-dimensional SPD solve.
                with timings.section("cg"):
                    fmap, W, biases, result, info = fit_rff_primal_multi(
                        X, T, param, rank=config.solver_rank, rng=config.solver_seed
                    )
                    # The peak is monotone within the fit, so one sample at
                    # the end of the dominant phase captures it.
                    sample_peak_rss(ctx)
                alpha, bias = (W, biases) if block else (W[:, 0], float(biases[0]))
                result = result if block else result.column(0)
                points, fit_param = None, param.with_gamma_for(X.shape[1])
            else:
                # Backends transform the data into their device layout here
                # (the paper's "transform" component); the NumPy path's
                # operator setup is accounted as "assembly".
                setup = "assembly" if backend is None else "transform"
                with timings.section(setup), ctx.span(setup):
                    if backend is None:
                        qmat, _ = build_reduced_system(
                            CSRMatrix.from_dense(X) if sparse else X,
                            T[:, 0] if block else T,
                            param,
                            solver_threads=resources.solver_threads,
                            tile_cache_mb=resources.tile_cache_mb,
                            compute_dtype=resources.compute_dtype,
                            ridge=ridge,
                            binary_labels=binary_labels,
                        )
                    else:
                        qmat = backend.create_qmatrix(X, T, param)
                    sample_peak_rss(ctx)
                rhs = reduced_rhs(T)
                # Solver setup (preconditioner / randomized factorization)
                # trades setup time for iterations, so it is accounted
                # inside the paper's cg section.
                with timings.section("cg"):
                    if config.solver == "nystrom":
                        result, info = (solve_nystrom_block if block else solve_nystrom)(
                            qmat,
                            rhs,
                            rank=config.solver_rank,
                            rng=config.solver_seed,
                            polish_iters=config.polish_iters,
                            epsilon=param.epsilon,
                        )
                    else:
                        info = SolverInfo()
                        precond = make_preconditioner(
                            qmat,
                            config.precondition,
                            rank=config.precond_rank,
                            rng=config.precond_rng,
                        )
                        solve_kwargs = dict(
                            epsilon=param.epsilon,
                            max_iter=param.max_iter,
                            preconditioner=precond,
                        )
                        if (
                            resources.fault_plan is not None
                            or resources.checkpoint_interval is not None
                        ):
                            # Checkpointed CG plus transient retry and
                            # device-loss redistribution.
                            if resources.checkpoint_interval is not None:
                                solve_kwargs["checkpoint_interval"] = (
                                    resources.checkpoint_interval
                                )
                            result = resilient_solve(
                                qmat, rhs, max_retries=resources.max_retries, **solve_kwargs
                            )
                        else:
                            # Warm start only from a previous reduced-system
                            # solution (an rff fit's primal weights are not).
                            x0 = None
                            if warm_from is not None and warm_from.fmap is None:
                                x0 = _warm_start_guess(warm_from.alpha, rhs.shape, qmat.dtype)
                            if block:
                                result = conjugate_gradient_block(qmat, rhs, X0=x0, **solve_kwargs)
                            else:
                                result = conjugate_gradient(qmat, rhs, x0=x0, **solve_kwargs)
                            if x0 is not None:
                                warm_iterations = result.iterations
                    sample_peak_rss(ctx)
                alpha, bias = recover_bias_and_alpha(
                    qmat, result.X if block else result.x, T[-1]
                )
                points, fit_param = qmat.X, qmat.param
                if backend is not None:
                    backend.finalize(qmat, timings)
    if backend is not None:
        label = backend.describe()
    else:
        label = "numpy (sparse)" if sparse else "numpy"
    report = build_report(
        ctx,
        estimator=estimator,
        backend=label,
        num_samples=X.shape[0],
        num_features=X.shape[1],
        timings=timings,
        result=result,
        solver_strategy=info.strategy,
        solver_rank=info.rank,
        solver_setup_seconds=info.setup_seconds,
        warm_start_iterations=warm_iterations,
    )
    appendable = fmap is None and isinstance(X, np.ndarray)
    return _Solution(
        points,
        fit_param,
        alpha,
        bias,
        result,
        report,
        timings,
        targets=T if appendable else None,
        fmap=fmap,
        seed=config.solver_seed if isinstance(config.solver_seed, int) else None,
    )


def _append_lssvm(
    engine: Optional[IncrementalEngine],
    previous: Optional[_Solution],
    X,
    y,
    encode: Callable,
    param: Parameter,
    config: SolverConfig,
    resources: ResourceConfig,
    *,
    estimator: str,
    backend=None,
    sparse: bool = False,
    binary_labels: bool = True,
):
    """Append a chunk and re-solve warm: every estimator's ``partial_fit``.

    ``encode(y)`` returns ``(T, labels)``: the chunk's targets and the
    estimator's label state after it. Without an ``engine`` a fresh one
    is built and seeded from ``previous`` (the last fit), so only the
    new kernel rows are evaluated. Returns ``None`` for a zero-row chunk
    (a bit-exact no-op), else ``(engine, solution, labels)``; callers
    store them only then, and the engine validates a chunk before it
    changes any state, so a rejected chunk leaves the estimator exactly
    as it was.
    """
    if backend is not None:
        raise InvalidParameterError("partial_fit runs on the NumPy path; use backend=None")
    if sparse:
        raise InvalidParameterError("partial_fit does not support sparse CG")
    if config.solver != "cg":
        raise InvalidParameterError(
            "partial_fit requires solver='cg' (the randomized direct "
            "solves have no warm-startable iteration)"
        )
    if resources.fault_plan is not None or resources.checkpoint_interval is not None:
        raise InvalidParameterError("partial_fit does not drive the resilient solver")
    X = np.asarray(X, dtype=param.dtype)
    if X.ndim != 2:
        raise DataError("training data must be 2-D")
    if X.shape[0] == 0:
        if engine is None and previous is None:
            raise DataError("the first partial_fit chunk is empty")
        return None
    T, labels = encode(y)
    if engine is None:
        engine = IncrementalEngine(
            param,
            precondition=config.precondition,
            precond_rank=config.precond_rank,
            precond_rng=config.precond_rng,
            binary_labels=binary_labels,
            solver_threads=resources.solver_threads,
            tile_cache_mb=resources.tile_cache_mb,
            compute_dtype=resources.compute_dtype,
        )
        if previous is not None:
            if previous.targets is None:
                raise InvalidParameterError(
                    "cannot continue incrementally from the previous fit "
                    "(compact/row-source models keep no appendable support "
                    "set); start from a fresh estimator"
                )
            engine.seed(previous.points, previous.targets, previous.alpha)
    timings = ComponentTimer()
    reset_peak_rss()
    with fit_scope(
        f"{estimator}.partial_fit",
        estimator=estimator,
        **({"classes": T.shape[1]} if T.ndim == 2 else {}),
    ) as ctx:
        with memory_budget(resources.memory_budget_mb), timings.section("total"):
            # Every BLAS call of the refit runs on one thread: the pool's
            # workers split the factor extension, and OpenBLAS's default
            # team made the refit slower and noisier, as on the tiles.
            with timings.section("refit"), ctx.span(
                "refit", new_rows=X.shape[0], total_rows=engine.num_rows + X.shape[0]
            ), blas_cap:
                res = engine.update(X, T)
            sample_peak_rss(ctx)
    report = build_report(
        ctx,
        estimator=estimator,
        backend="numpy",
        num_samples=engine.num_rows,
        num_features=engine.X.shape[1],
        timings=timings,
        result=res.result,
        warm_start_iterations=res.warm_start_iterations,
    )
    solution = _Solution(
        engine.X, engine.param, res.alpha, res.bias, res.result, report, timings,
        targets=engine.y,
    )
    return engine, solution, labels


def _model_from(sol: _Solution, labels, column: Optional[int] = None, *, into=None):
    """The fitted model of ``sol`` (of its ``column``-th target for a block).

    ``into``, a fitted :class:`LSSVMModel`, is updated in place and its
    caches are invalidated, so serving handles holding it
    (``model.engine()``, a :class:`repro.serve.ModelRegistry` entry)
    observe the new coefficients without a reload.
    """
    alpha = sol.alpha if column is None else np.ascontiguousarray(sol.alpha[:, column])
    bias = float(sol.bias if column is None else sol.bias[column])
    if sol.fmap is not None:
        return FeatureMapModel(
            omega=sol.fmap.omega,
            offsets=sol.fmap.offsets,
            weights=alpha,
            bias=bias,
            param=sol.param,
            labels=labels,
            seed=sol.seed,
        )
    if isinstance(into, LSSVMModel):
        into.support_vectors = sol.points
        into.alpha = alpha
        into.bias = bias
        into.param = sol.param
        into.labels = labels
        into.invalidate_caches()
        return into
    return LSSVMModel(
        support_vectors=sol.points, alpha=alpha, bias=bias, param=sol.param, labels=labels
    )


# -- binary classification ----------------------------------------------------


def encode_labels(y: np.ndarray) -> Tuple[np.ndarray, Tuple[float, float]]:
    """Map a two-class label vector onto internal {-1, +1} labels.

    Following LIBSVM, the first label encountered in the file/array becomes
    the internal ``+1`` class. Returns ``(encoded, (positive, negative))``.
    NaN or infinite labels raise :class:`~repro.exceptions.DataError`.
    """
    y = np.asarray(y).ravel()
    if y.size == 0:
        raise DataError("label vector is empty")
    values = y.astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise DataError("labels contain NaN or infinite values")
    classes, first = np.unique(values, return_index=True)
    if classes.size != 2:
        raise DataError(
            f"binary classification requires exactly two classes, got {classes.size}"
        )
    pos, neg = (float(c) for c in classes[np.argsort(first)])
    encoded = np.where(y == pos, 1.0, -1.0)
    return encoded, (pos, neg)


def decode_labels(y_internal: np.ndarray, labels: Tuple[float, float]) -> np.ndarray:
    """Map internal {-1, +1} predictions back to the original labels."""
    pos, neg = labels
    return np.where(np.asarray(y_internal) >= 0.0, pos, neg)


class LSSVC(ParamsMixin):
    """Least Squares Support Vector Classifier.

    Parameters
    ----------
    kernel:
        ``"linear"`` / ``"polynomial"`` / ``"rbf"`` (or ``KernelType`` /
        LIBSVM integer code). A ``"sigmoid"`` extension is also available.
    C:
        Regularization weight (``-c`` in LIBSVM terms); larger values fit
        the training data harder.
    gamma, degree, coef0:
        Kernel coefficients; ``gamma=None`` defaults to ``1/num_features``.
    epsilon:
        CG relative-residual termination criterion (paper default 1e-3).
    max_iter:
        CG iteration cap (default: ``max(2 * n, 10)`` for system size
        ``n``; see :func:`repro.core.cg.conjugate_gradient`).
    backend:
        ``None`` for the plain NumPy path, otherwise a backend name /
        :class:`BackendType` / ready-made backend instance. ``"automatic"``
        picks the best available backend for ``target``.
    target:
        Target platform for backend resolution (``"cpu"``, ``"gpu_nvidia"``,
        ...).
    n_devices:
        Number of (simulated) devices for multi-GPU execution of the linear
        kernel (§III-C5).
    dtype:
        Working precision, ``float64`` (default) or ``float32``.
    solver:
        Solver strategy: ``"cg"`` (exact, the default), ``"nystrom"``
        (direct rank-``r`` Woodbury solve of the RPCholesky-factored
        reduced system — O(m·r) training, no outer CG), or ``"rff"``
        (random Fourier feature primal for the RBF kernel — O(m·r)
        training *and* a compact O(r) model; see
        :mod:`repro.core.solvers`).
    solver_rank:
        Rank ``r`` of the randomized strategies; ``None`` picks
        :func:`repro.core.solvers.default_solver_rank` (~``4 sqrt(m)``).
    solver_seed:
        Single seed driving *all* of a randomized fit's sampling
        (RPCholesky pivots / RFF frequencies) — equal seeds give
        bit-identical fits.
    polish_iters:
        ``solver="nystrom"`` only: run this many warm-started exact-CG
        iterations from the direct solution (0 = pure direct solve).
    precondition:
        CG preconditioner: ``None`` (plain CG), ``"jacobi"`` (diagonal
        scaling), ``"nystrom"`` (randomized low-rank kernel approximation
        via randomly pivoted partial Cholesky — collapses iteration counts
        on ill-conditioned RBF systems), or a ready-made
        :class:`repro.core.precond.Preconditioner` instance.
    precond_rank:
        Rank of the Nyström approximation; ``None`` picks
        :func:`repro.core.precond.default_nystrom_rank` (~``2 sqrt(m)``).
    precond_rng:
        Seed / generator for the randomized pivot sampling (default 0 for
        reproducible fits).
    sparse:
        Run the CG matvecs on a CSR representation of the data — the
        paper's "sparse data structures for the CG solver" future-work
        item, delivered for the linear kernel. Requires ``backend=None``.
    solver_threads:
        Worker threads for the kernel-tile sweeps of the implicit matvec
        (and the OpenMP backend's pool when ``backend="openmp"``);
        ``None`` resolves like an OpenMP runtime.
    tile_cache_mb:
        Byte budget (MiB) of the cross-iteration kernel-tile cache used by
        the matrix-free non-linear path; ``0`` disables it, ``None`` keeps
        the default (:data:`repro.core.tile_pipeline.DEFAULT_TILE_CACHE_MB`).
    compute_dtype:
        Mixed precision: evaluate and cache kernel tiles in this dtype
        (``float32`` halves tile-cache bytes and bandwidth) while the CG
        recursion, reductions, and termination criterion stay in ``dtype``.
        ``None`` keeps tiles in ``dtype``. Only the matrix-free non-linear
        path has tiles; other paths ignore it.
    fault_plan:
        Optional :class:`repro.simgpu.FaultPlan` injected into the
        simulated devices (requires a device backend). Training then runs
        through :func:`repro.core.resilience.resilient_solve`: transient
        faults are retried with backoff, lost devices trigger feature-split
        redistribution over the survivors, and the CG solve resumes from
        its last checkpoint.
    checkpoint_interval:
        CG checkpoint cadence for the resilient path; ``None`` uses
        :data:`repro.core.resilience.DEFAULT_CHECKPOINT_INTERVAL` when a
        fault plan is active. Setting it without a fault plan also routes
        the solve through the resilient driver (checkpoints are taken, but
        nothing faults).
    max_retries:
        Transient-fault retry budget of the resilient driver (see
        :func:`repro.core.resilience.resilient_solve`).
    memory_budget_mb:
        Hard training-memory budget in MiB. Activates the budget for the
        duration of :meth:`fit`: the default tile cache is clamped to a
        quarter of it, chunked row sources size their streaming blocks
        against it, and :meth:`partial_fit` keeps the incremental
        engine's dense factor only while twice its size stays within it.
        The realized peak RSS lands in ``report_.peak_rss_bytes``.
    config:
        A :class:`repro.parameter.SolverConfig` grouping the solver
        strategy knobs (``solver`` / ``solver_rank`` / ``solver_seed`` /
        ``polish_iters`` / ``precondition`` / ``precond_rank`` /
        ``precond_rng``). The config is authoritative: its fields
        overwrite the flat keywords of the same name on every
        ``_sync_params`` — to change one grouped knob on a config-built
        estimator, pass a replaced config
        (``set_params(config=dataclasses.replace(cfg, ...))``) rather
        than the flat keyword. The flat spellings still work without a
        config but emit a ``DeprecationWarning``.
    resources:
        A :class:`repro.parameter.ResourceConfig` grouping the execution
        resource knobs (``solver_threads`` / ``tile_cache_mb`` /
        ``compute_dtype`` / ``fault_plan`` / ``checkpoint_interval`` /
        ``max_retries`` / ``memory_budget_mb``), with
        the same authoritative-overlay semantics as ``config``.
    warm_start:
        When ``True``, a repeated :meth:`fit` on the exact-CG path
        starts the solve from the previous model's multipliers (padded
        with zeros for any new rows) instead of from zero. The realized
        warm iterations land in
        ``report_.solver["warm_start_iterations"]``.
    """

    def __init__(
        self,
        kernel: Union[str, int, KernelType] = "linear",
        C: float = 1.0,
        *,
        gamma: Optional[float] = None,
        degree: int = 3,
        coef0: float = 0.0,
        epsilon: float = 1e-3,
        max_iter: Optional[int] = None,
        backend: Union[None, str, BackendType, object] = None,
        target: Union[str, TargetPlatform] = TargetPlatform.AUTOMATIC,
        n_devices: int = 1,
        dtype=np.float64,
        solver: str = "cg",
        solver_rank: Optional[int] = None,
        solver_seed: Union[None, int, np.random.Generator] = 0,
        polish_iters: int = 0,
        precondition: Union[None, str, object] = None,
        precond_rank: Optional[int] = None,
        precond_rng: Union[None, int, np.random.Generator] = 0,
        sparse: bool = False,
        solver_threads: Optional[int] = None,
        tile_cache_mb: Optional[float] = None,
        compute_dtype=None,
        fault_plan=None,
        checkpoint_interval: Optional[int] = None,
        max_retries: int = 3,
        memory_budget_mb: Optional[float] = None,
        config: Optional[SolverConfig] = None,
        resources: Optional[ResourceConfig] = None,
        warm_start: bool = False,
    ) -> None:
        # Every constructor argument lands under its own attribute name
        # (the ParamsMixin/get_params contract); derived state is built in
        # _sync_params so set_params revalidates exactly like __init__.
        self.kernel = kernel
        self.C = C
        self.gamma = gamma
        self.degree = degree
        self.coef0 = coef0
        self.epsilon = epsilon
        self.max_iter = max_iter
        self.dtype = dtype
        self.backend = backend
        self.target = target
        self.n_devices = n_devices
        self.solver = solver
        self.solver_rank = solver_rank
        self.solver_seed = solver_seed
        self.polish_iters = polish_iters
        self.precondition = precondition
        self.precond_rank = precond_rank
        self.precond_rng = precond_rng
        self.sparse = sparse
        self.solver_threads = solver_threads
        self.tile_cache_mb = tile_cache_mb
        self.compute_dtype = compute_dtype
        self.fault_plan = fault_plan
        self.checkpoint_interval = checkpoint_interval
        self.max_retries = max_retries
        self.memory_budget_mb = memory_budget_mb
        self.config = config
        self.resources = resources
        self.warm_start = warm_start
        # Deprecation check first, against the raw flat values — after
        # _sync_params the config overlay has rewritten them.
        warn_deprecated_flat_kwargs(
            self, (SolverConfig, config), (ResourceConfig, resources)
        )
        self._sync_params()
        self.model_: Union[None, LSSVMModel, FeatureMapModel] = None
        self.result_: Optional[CGResult] = None
        self.report_: Optional[TrainingReport] = None
        self.timings_: ComponentTimer = ComponentTimer()
        self._solution: Optional[_Solution] = None
        self._labels: Optional[Tuple[float, float]] = None

    def _sync_params(self) -> None:
        """Validate parameters and rebuild derived state.

        Called from ``__init__`` and after every :meth:`set_params`, so a
        parameter update invalidates the cached backend instance and runs
        the same cross-parameter checks as construction.
        """
        # The grouped configs are authoritative over the flat attributes
        # (running here keeps set_params(config=...) effective too).
        apply_config(self, getattr(self, "config", None))
        apply_config(self, getattr(self, "resources", None))
        self.warm_start = bool(getattr(self, "warm_start", False))
        self.param = Parameter(
            kernel=self.kernel,
            cost=self.C,
            gamma=self.gamma,
            degree=self.degree,
            coef0=self.coef0,
            epsilon=self.epsilon,
            max_iter=self.max_iter,
            dtype=self.dtype,
        )
        self.target = TargetPlatform.from_name(self.target)
        if self.n_devices < 1:
            raise DataError("n_devices must be positive")
        self.n_devices = int(self.n_devices)
        self.sparse = bool(self.sparse)
        _check_options(self)
        self._backend_instance = None
        # Any hyper-parameter change invalidates an in-flight incremental
        # continuation: the next partial_fit starts a fresh engine.
        self._engine = None

    # -- backend plumbing ---------------------------------------------------

    def _resolve_backend(self):
        """Instantiate the backend lazily (keeps core importable standalone)."""
        if self.backend is None:
            return None
        if self._backend_instance is not None:
            return self._backend_instance
        from ..backends import create_backend  # deferred: backends import core

        if isinstance(self.backend, (str, BackendType)):
            kwargs = {}
            if BackendType.from_name(self.backend) is BackendType.OPENMP:
                # The host backend shares the solver's threading/cache/precision knobs.
                if self.solver_threads is not None:
                    kwargs["num_threads"] = self.solver_threads
                if self.tile_cache_mb is not None:
                    kwargs["tile_cache_mb"] = self.tile_cache_mb
                if self.compute_dtype is not None:
                    kwargs["compute_dtype"] = self.compute_dtype
            elif self.fault_plan is not None:
                kwargs["fault_plan"] = self.fault_plan
            self._backend_instance = create_backend(
                self.backend, target=self.target, n_devices=self.n_devices, **kwargs
            )
        else:
            self._backend_instance = self.backend
        return self._backend_instance

    # -- estimator API --------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LSSVC":
        """Train on ``(X, y)``; ``y`` may use any two distinct labels.

        ``X`` may also be a row source (:class:`repro.io.ChunkedDataset`
        or anything :func:`repro.io.is_row_source` accepts) — it is then
        streamed block-by-block and never densified. The whole fit runs
        under :func:`repro.membudget.memory_budget` when
        ``memory_budget_mb`` is set.
        """
        y_enc, labels = encode_labels(y)
        solution = _solve_lssvm(
            X,
            y_enc,
            self.param,
            *_configs(self),
            estimator="LSSVC",
            backend=self._resolve_backend(),
            sparse=self.sparse,
            warm_from=self._solution if self.warm_start else None,
        )
        # A fresh batch fit restarts any incremental continuation; a later
        # partial_fit seeds its engine from this very solution.
        self._engine = None
        self._adopt(solution, labels)
        return self

    def _adopt(self, solution: _Solution, labels, *, into=None) -> None:
        self._solution = solution
        self._labels = labels
        self.model_ = _model_from(solution, labels, into=into)
        self.result_ = solution.result
        self.report_ = solution.report
        self.timings_ = solution.timings

    def partial_fit(self, X: np.ndarray, y: np.ndarray) -> "LSSVC":
        """Extend the training set by a chunk and refit incrementally.

        The first call (on an unfitted estimator) is an ordinary cold
        fit and must contain both classes; every further call appends
        ``(X, y)`` to the accumulated support set and re-solves through
        the :class:`repro.core.incremental.IncrementalEngine` — only the
        new kernel rows are evaluated, CG warm-starts from the previous
        multipliers, and a Nyström preconditioner's pivots are reused
        when the appended chunk is small. After a regular :meth:`fit`,
        ``partial_fit`` continues from that model (one O(m²) kernel
        bootstrap on the first chunk).

        A chunk with **zero rows is a bit-exact no-op**: the model object
        and every coefficient stay untouched. A rejected chunk (NaN or
        infinite values, a wrong feature width, an unknown label) leaves
        the estimator as it was.

        The fitted model is updated *in place* and its caches are
        invalidated, so serving handles (``model_.engine()``, a
        :class:`repro.serve.ModelRegistry` entry holding the model)
        observe the refreshed coefficients without an explicit reload.

        Requires the plain exact-CG NumPy path: ``backend=None``,
        ``solver="cg"``, no ``sparse`` / ``fault_plan`` /
        ``checkpoint_interval``.
        """
        step = _append_lssvm(
            self._engine,
            self._solution,
            X,
            y,
            self._encode_chunk,
            self.param,
            *_configs(self),
            estimator="LSSVC",
            backend=self.backend,
            sparse=self.sparse,
        )
        if step is not None:
            self._engine, solution, labels = step
            self._adopt(solution, labels, into=self.model_)
        return self

    def _encode_chunk(self, y) -> Tuple[np.ndarray, Tuple[float, float]]:
        """Encode a chunk against the label alphabet (the first one sets it)."""
        if self._labels is None:
            return encode_labels(y)
        y = np.asarray(y).ravel()
        if y.size == 0:
            raise DataError("label vector is empty")
        pos, neg = self._labels
        unknown = (y != pos) & (y != neg)
        if unknown.any():
            raise DataError(
                f"chunk contains labels outside the fitted alphabet "
                f"({pos:g}, {neg:g})"
            )
        return np.where(y == pos, 1.0, -1.0), self._labels

    def _require_model(self) -> LSSVMModel:
        if self.model_ is None:
            raise NotFittedError("LSSVC is not fitted yet; call fit() first")
        return self.model_

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw values of ``f(x) = sum_i alpha_i k(x_i, x) + b``."""
        return self._require_model().decision_function(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted labels, in the alphabet seen during :meth:`fit`."""
        return self._require_model().predict(X)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy on ``(X, y)``."""
        return self._require_model().score(X, y)

    def save(self, path) -> None:
        """Write the fitted model in LIBSVM model format (the ``write`` step)."""
        model = self._require_model()
        with self.timings_.section("write"):
            model.save(path)

    @property
    def iterations_(self) -> int:
        """CG iterations of the last fit."""
        if self.result_ is None:
            raise NotFittedError("LSSVC is not fitted yet; call fit() first")
        return self.result_.iterations
