"""High-level LS-SVM classifier (the Python face of ``plssvm::csvm``).

:class:`LSSVC` is a scikit-learn-style binary classifier:

>>> from repro import LSSVC
>>> clf = LSSVC(kernel="rbf", C=10.0).fit(X_train, y_train)
>>> accuracy = clf.score(X_test, y_test)

Training follows the four steps of §III: the data is (1) already read,
(2) handed to the selected backend (which converts it into its SoA device
layout — the ``transform`` component), (3) the reduced system is solved by
CG (``cg``), and (4) the model can be written via ``save()`` (``write``).
All steps are timed through :class:`repro.profiling.ComponentTimer`.

The ``backend`` argument selects who executes the implicit matrix-vector
products: ``None`` keeps the plain NumPy reference path; a name or
:class:`repro.types.BackendType` routes through the backend framework
(OpenMP thread pool, or the simulated CUDA/OpenCL/SYCL devices).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..exceptions import DataError, InvalidParameterError, NotFittedError
from ..membudget import memory_budget, reset_peak_rss, sample_peak_rss
from ..parameter import Parameter, ResourceConfig, SolverConfig
from ..profiling import ComponentTimer
from ..sparse.csr import CSRMatrix
from ..telemetry import TrainingReport, build_report, fit_scope
from ..types import BackendType, KernelType, TargetPlatform
from .cg import CGResult, conjugate_gradient
from .estimator import ParamsMixin, apply_config, warn_deprecated_flat_kwargs
from .incremental import IncrementalEngine
from .model import FeatureMapModel, LSSVMModel
from .precond import make_preconditioner
from .qmatrix import QMatrixBase, build_reduced_system, recover_bias_and_alpha
from .resilience import resilient_solve
from .solvers import (
    SolverInfo,
    fit_rff_primal,
    resolve_solver,
    solve_nystrom,
)

__all__ = ["LSSVC", "encode_labels", "decode_labels"]


def encode_labels(y: np.ndarray) -> Tuple[np.ndarray, Tuple[float, float]]:
    """Map a two-class label vector onto internal {-1, +1} labels.

    Following LIBSVM, the first label encountered in the file/array becomes
    the internal ``+1`` class. Returns ``(encoded, (positive, negative))``.
    """
    y = np.asarray(y).ravel()
    if y.size == 0:
        raise DataError("label vector is empty")
    classes = []
    for value in y:
        v = float(value)
        if v not in classes:
            classes.append(v)
        if len(classes) > 2:
            break
    if len(classes) != 2:
        raise DataError(
            f"binary classification requires exactly two classes, got {len(classes)}"
        )
    pos, neg = classes[0], classes[1]
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
    implicit:
        Force the matrix-free (``True``) or explicit (``False``) reduced
        system on the NumPy path; ``None`` selects by problem size.
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
    jacobi:
        Deprecated alias for ``precondition="jacobi"`` (kept for
        back-compat with the ablation benchmarks).
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
        duration of :meth:`fit`: the explicit reduced system refuses to
        materialize past it, operator selection turns matrix-free, and
        chunked row sources size their streaming blocks against it. The
        realized peak RSS lands in ``report_.peak_rss_bytes``.
    shard_rows:
        Split the reduced system into this many sample row-shards and run
        CG matvecs shard-by-shard through the row-shard partition of
        :class:`repro.core.qmatrix.ImplicitQMatrix` — partial products are
        combined by deterministic allreduce. ``X`` may then
        be a row source (e.g. :class:`repro.io.ChunkedDataset`) so dense
        data never enters memory. Requires ``backend=None``.
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
        ``max_retries`` / ``memory_budget_mb`` / ``shard_rows``), with
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
        implicit: Optional[bool] = None,
        solver: str = "cg",
        solver_rank: Optional[int] = None,
        solver_seed: Union[None, int, np.random.Generator] = 0,
        polish_iters: int = 0,
        precondition: Union[None, str, object] = None,
        precond_rank: Optional[int] = None,
        precond_rng: Union[None, int, np.random.Generator] = 0,
        jacobi: bool = False,
        sparse: bool = False,
        solver_threads: Optional[int] = None,
        tile_cache_mb: Optional[float] = None,
        compute_dtype=None,
        fault_plan=None,
        checkpoint_interval: Optional[int] = None,
        max_retries: int = 3,
        memory_budget_mb: Optional[float] = None,
        shard_rows: Optional[int] = None,
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
        self.implicit = implicit
        self.solver = solver
        self.solver_rank = solver_rank
        self.solver_seed = solver_seed
        self.polish_iters = polish_iters
        self.precondition = precondition
        self.precond_rank = precond_rank
        self.precond_rng = precond_rng
        self.jacobi = jacobi
        self.sparse = sparse
        self.solver_threads = solver_threads
        self.tile_cache_mb = tile_cache_mb
        self.compute_dtype = compute_dtype
        self.fault_plan = fault_plan
        self.checkpoint_interval = checkpoint_interval
        self.max_retries = max_retries
        self.memory_budget_mb = memory_budget_mb
        self.shard_rows = shard_rows
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
        self._train_targets: Optional[np.ndarray] = None

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
        if (
            self.jacobi
            and self.precondition is not None
            and self.precondition != "jacobi"
        ):
            raise DataError(
                f"jacobi=True conflicts with precondition={self.precondition!r}; "
                "drop the legacy flag"
            )
        if self.jacobi and self.precondition is None:
            self.precondition = "jacobi"
        self.sparse = bool(self.sparse)
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise InvalidParameterError("checkpoint_interval must be positive")
        if self.max_retries < 0:
            raise InvalidParameterError("max_retries must be >= 0")
        self.max_retries = int(self.max_retries)
        if self.fault_plan is not None:
            is_host = self.backend is None or (
                isinstance(self.backend, (str, BackendType))
                and BackendType.from_name(self.backend) is BackendType.OPENMP
            )
            if is_host:
                raise InvalidParameterError(
                    "fault_plan requires a device backend (cuda/opencl/sycl); "
                    "the host paths have no devices to fault"
                )
        if self.sparse and self.backend is not None:
            raise DataError("sparse CG runs on the NumPy path; use backend=None")
        self.solver = resolve_solver(self.solver)
        if self.polish_iters < 0:
            raise InvalidParameterError("polish_iters must be >= 0")
        self.polish_iters = int(self.polish_iters)
        if self.solver_rank is not None and self.solver_rank < 1:
            raise InvalidParameterError("solver_rank must be positive")
        if self.solver != "cg":
            if self.fault_plan is not None or self.checkpoint_interval is not None:
                raise InvalidParameterError(
                    "fault_plan/checkpoint_interval require the resilient CG "
                    f"driver; solver={self.solver!r} is a direct randomized solve"
                )
            if self.precondition is not None or self.jacobi:
                raise InvalidParameterError(
                    f"precondition applies to solver='cg' only; solver="
                    f"{self.solver!r} has no outer CG (use polish_iters for "
                    "refinement)"
                )
            if self.sparse:
                raise InvalidParameterError(
                    "sparse CG and the randomized solvers are exclusive paths"
                )
        if self.polish_iters and self.solver != "nystrom":
            raise InvalidParameterError(
                "polish_iters refines the nystrom direct solve; it does not "
                f"apply to solver={self.solver!r}"
            )
        if self.solver == "rff":
            if self.param.kernel is not KernelType.RBF:
                raise InvalidParameterError(
                    "solver='rff' maps the RBF kernel only "
                    f"(got kernel={self.param.kernel})"
                )
            if self.backend is not None:
                raise InvalidParameterError(
                    "solver='rff' is a host-side primal solve; use backend=None"
                )
        if self.memory_budget_mb is not None and self.memory_budget_mb <= 0:
            raise InvalidParameterError(
                f"memory_budget_mb must be positive, got {self.memory_budget_mb}"
            )
        if self.shard_rows is not None:
            if self.shard_rows < 1:
                raise InvalidParameterError(
                    f"shard_rows must be positive, got {self.shard_rows}"
                )
            self.shard_rows = int(self.shard_rows)
            if self.backend is not None:
                raise InvalidParameterError(
                    "shard_rows runs the row-sharded NumPy operator; "
                    "use backend=None"
                )
            if self.sparse:
                raise InvalidParameterError(
                    "shard_rows and the sparse CG path are exclusive"
                )
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

    def _build_operator(self, X: np.ndarray, y: np.ndarray) -> Tuple[QMatrixBase, np.ndarray]:
        backend = self._resolve_backend()
        if backend is None:
            if self.sparse:
                X = CSRMatrix.from_dense(np.asarray(X, dtype=self.param.dtype))
            return build_reduced_system(
                X,
                y,
                self.param,
                implicit=self.implicit,
                solver_threads=self.solver_threads,
                tile_cache_mb=self.tile_cache_mb,
                compute_dtype=self.compute_dtype,
                shard_rows=self.shard_rows,
            )
        qmat = backend.create_qmatrix(X, y, self.param)
        return qmat, qmat.rhs()

    # -- estimator API --------------------------------------------------------

    def _backend_description(self) -> str:
        if self.backend is None:
            return "numpy (sparse)" if self.sparse else "numpy"
        backend = self._resolve_backend()
        return backend.describe()

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LSSVC":
        """Train on ``(X, y)``; ``y`` may use any two distinct labels.

        ``X`` may also be a row source (:class:`repro.io.ChunkedDataset`
        or anything :func:`repro.io.is_row_source` accepts) — it is then
        streamed block-by-block and never densified. The whole fit runs
        under :func:`repro.membudget.memory_budget` when
        ``memory_budget_mb`` is set.
        """
        from ..io.chunked import is_row_source  # deferred: io imports core

        self.timings_ = ComponentTimer()
        self._warm_iterations = 0
        # Reset the kernel RSS high-water mark before the wall clock
        # starts: the /proc write is a syscall (and GIL-switch point)
        # that should not count against the fit's phase accounting.
        reset_peak_rss()
        with fit_scope("LSSVC.fit", estimator="LSSVC") as ctx:
            with memory_budget(self.memory_budget_mb), self.timings_.section("total"):
                if is_row_source(X):
                    if self.backend is not None or self.sparse:
                        raise InvalidParameterError(
                            "chunked/row-source training data requires the "
                            "NumPy dense-free path (backend=None, sparse=False)"
                        )
                else:
                    X = np.asarray(X, dtype=self.param.dtype)
                y_enc, labels = encode_labels(y)
                if self.solver == "rff":
                    result, info = self._fit_rff(ctx, X, y_enc, labels)
                else:
                    result, info = self._fit_reduced(ctx, X, y_enc, labels)
        # A fresh batch fit restarts any incremental continuation; keep
        # the encoded targets so a later partial_fit can seed its engine
        # from this very model (see partial_fit).
        self._engine = None
        self._train_targets = y_enc if isinstance(X, np.ndarray) else None
        self.report_ = build_report(
            ctx,
            estimator="LSSVC",
            backend=self._backend_description(),
            num_samples=X.shape[0],
            num_features=X.shape[1] if X.ndim > 1 else 1,
            timings=self.timings_,
            result=result,
            solver_strategy=info.strategy,
            solver_rank=info.rank,
            solver_setup_seconds=info.setup_seconds,
            warm_start_iterations=self._warm_iterations,
        )
        return self

    def _fit_rff(self, ctx, X, y_enc, labels) -> Tuple[CGResult, SolverInfo]:
        """The random-feature primal path: no reduced system, compact model.

        Skips operator assembly entirely — the O(m²)-capable machinery is
        never touched; the whole fit is feature sampling, one blocked Gram
        accumulation, and an (r+1)-dimensional SPD solve.
        """
        with self.timings_.section("cg"):
            fmap, weights, bias, result, info = fit_rff_primal(
                X,
                y_enc,
                self.param,
                rank=self.solver_rank,
                rng=self.solver_seed,
            )
            # ru_maxrss is monotone within the fit, so the one sample at
            # the end of the dominant phase captures the fit's peak; it
            # sits inside the section so the syscall stays accounted.
            sample_peak_rss(ctx)
        self.result_ = result
        self.model_ = FeatureMapModel(
            omega=fmap.omega,
            offsets=fmap.offsets,
            weights=weights,
            bias=bias,
            param=self.param.with_gamma_for(X.shape[1]),
            labels=labels,
            seed=self.solver_seed if isinstance(self.solver_seed, int) else None,
        )
        return result, info

    def _fit_reduced(self, ctx, X, y_enc, labels) -> Tuple[CGResult, SolverInfo]:
        """The reduced-system paths: exact CG and the direct Nyström solve."""
        # Backends transform the data into their device layout here
        # (the paper's "transform" component); the plain NumPy path's
        # operator setup is accounted separately as "assembly".
        setup_section = "transform" if self.backend is not None else "assembly"
        with self.timings_.section(setup_section), ctx.span(setup_section):
            qmat, rhs = self._build_operator(X, y_enc)
            sample_peak_rss(ctx)
        # Solver setup (preconditioner / randomized factorization) is
        # solver work — it trades setup time for iterations — so it is
        # accounted inside the paper's cg section.
        with self.timings_.section("cg"):
            if self.solver == "nystrom":
                result, info = solve_nystrom(
                    qmat,
                    rhs,
                    rank=self.solver_rank,
                    rng=self.solver_seed,
                    polish_iters=self.polish_iters,
                    epsilon=self.param.epsilon,
                )
            else:
                info = SolverInfo()
                precond = make_preconditioner(
                    qmat,
                    self.precondition,
                    rank=self.precond_rank,
                    rng=self.precond_rng,
                )
                if (
                    self.fault_plan is not None
                    or self.checkpoint_interval is not None
                ):
                    # Fault-tolerant driving: checkpointed CG plus
                    # transient retry and device-loss redistribution.
                    solve_kwargs = {}
                    if self.checkpoint_interval is not None:
                        solve_kwargs["checkpoint_interval"] = (
                            self.checkpoint_interval
                        )
                    result = resilient_solve(
                        qmat,
                        rhs,
                        epsilon=self.param.epsilon,
                        max_iter=self.param.max_iter,
                        preconditioner=precond,
                        max_retries=self.max_retries,
                        **solve_kwargs,
                    )
                else:
                    x0 = self._warm_x0(rhs.shape[0], qmat.dtype)
                    result = conjugate_gradient(
                        qmat,
                        rhs,
                        epsilon=self.param.epsilon,
                        max_iter=self.param.max_iter,
                        preconditioner=precond,
                        x0=x0,
                    )
                    if x0 is not None:
                        self._warm_iterations = result.iterations
            sample_peak_rss(ctx)
        alpha, bias = recover_bias_and_alpha(qmat, result.x)
        self.result_ = result
        self.model_ = LSSVMModel(
            support_vectors=qmat.X,
            alpha=alpha,
            bias=bias,
            param=qmat.param,
            labels=labels,
        )
        backend = self._resolve_backend()
        if backend is not None:
            backend.finalize(qmat, self.timings_)
        return result, info

    def _warm_x0(self, n: int, dtype) -> Optional[np.ndarray]:
        """Initial CG guess from the previous model (``warm_start=True``).

        The previous full multiplier vector maps onto the leading entries
        of the reduced unknown (the reduced system eliminates the *last*
        point, so earlier rows keep their indices); new rows start at
        zero. ``None`` when warm starting is off, no compatible previous
        model exists, or the system shrank below the previous size.
        """
        if not self.warm_start or not isinstance(self.model_, LSSVMModel):
            return None
        prev = np.asarray(self.model_.alpha)
        if prev.ndim != 1:
            return None
        if prev.shape[0] == n + 1:
            # Same system size as before (a refit, no appended rows): the
            # previous *reduced* solution is the full vector minus its
            # recovered eliminated entry.
            return np.array(prev[:n], dtype=dtype)
        if not 0 < prev.shape[0] <= n:
            return None
        x0 = np.zeros(n, dtype=dtype)
        x0[: prev.shape[0]] = prev
        return x0

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
        and every coefficient stay untouched.

        The fitted model is updated *in place* and its caches are
        invalidated, so serving handles (``model_.engine()``, a
        :class:`repro.serve.ModelRegistry` entry holding the model)
        observe the refreshed coefficients without an explicit reload.

        Requires the plain exact-CG NumPy path: ``backend=None``,
        ``solver="cg"``, no ``sparse`` / ``shard_rows`` / ``fault_plan``
        / ``checkpoint_interval``.
        """
        if self.backend is not None:
            raise InvalidParameterError(
                "partial_fit runs on the NumPy path; use backend=None"
            )
        if self.sparse or self.shard_rows is not None:
            raise InvalidParameterError(
                "partial_fit supports neither sparse CG nor row sharding"
            )
        if self.solver != "cg":
            raise InvalidParameterError(
                "partial_fit requires solver='cg' (the randomized direct "
                "solves have no warm-startable iteration)"
            )
        if self.fault_plan is not None or self.checkpoint_interval is not None:
            raise InvalidParameterError(
                "partial_fit does not drive the resilient solver"
            )
        X = np.asarray(X, dtype=self.param.dtype)
        if X.ndim != 2:
            raise DataError("training data must be 2-D")
        if X.shape[0] == 0:
            if self.model_ is None:
                raise DataError("the first partial_fit chunk is empty")
            return self  # bit-exact no-op: nothing changes
        engine = self._engine
        if engine is None:
            engine = IncrementalEngine(
                self.param,
                precondition=self.precondition,
                precond_rank=self.precond_rank,
                precond_rng=self.precond_rng,
                solver_threads=self.solver_threads,
                tile_cache_mb=self.tile_cache_mb,
                compute_dtype=self.compute_dtype,
            )
            if self.implicit is True:
                engine.explicit_limit = 0
            elif self.implicit is False:
                engine.explicit_limit = 2**62
            if self.model_ is not None:
                if (
                    not isinstance(self.model_, LSSVMModel)
                    or self._train_targets is None
                    or not isinstance(self.model_.support_vectors, np.ndarray)
                ):
                    raise InvalidParameterError(
                        "cannot continue incrementally from the previous fit "
                        "(compact/row-source models keep no appendable "
                        "support set); start from a fresh estimator"
                    )
                engine.seed(
                    self.model_.support_vectors,
                    self._train_targets,
                    self.model_.alpha,
                )
                self._partial_labels = self.model_.labels
            self._engine = engine
        labels = getattr(self, "_partial_labels", None)
        if labels is None:
            y_enc, labels = encode_labels(y)
            self._partial_labels = labels
        else:
            y_enc = self._encode_chunk(y, labels)
        self.timings_ = ComponentTimer()
        reset_peak_rss()
        with fit_scope("LSSVC.partial_fit", estimator="LSSVC") as ctx:
            with memory_budget(self.memory_budget_mb), self.timings_.section("total"):
                with self.timings_.section("refit"), ctx.span(
                    "refit", new_rows=X.shape[0], total_rows=engine.num_rows + X.shape[0]
                ):
                    res = engine.update(X, y_enc)
                sample_peak_rss(ctx)
                model = self.model_
                if isinstance(model, LSSVMModel):
                    # Mutate in place: live serving handles keep pointing at
                    # this object; invalidation refreshes their caches and
                    # fires any registry generation bump.
                    model.support_vectors = engine.X
                    model.alpha = res.alpha
                    model.bias = float(res.bias)
                    model.param = engine.param
                    model.labels = labels
                    model.invalidate_caches()
                else:
                    self.model_ = LSSVMModel(
                        support_vectors=engine.X,
                        alpha=res.alpha,
                        bias=float(res.bias),
                        param=engine.param,
                        labels=labels,
                    )
        self.result_ = res.result
        self._train_targets = engine.y
        self.report_ = build_report(
            ctx,
            estimator="LSSVC",
            backend=self._backend_description(),
            num_samples=engine.num_rows,
            num_features=engine.X.shape[1],
            timings=self.timings_,
            result=res.result,
            warm_start_iterations=res.warm_start_iterations,
        )
        return self

    @staticmethod
    def _encode_chunk(y, labels) -> np.ndarray:
        """Encode a follow-up chunk against the established label alphabet."""
        y = np.asarray(y).ravel()
        if y.size == 0:
            raise DataError("label vector is empty")
        pos, neg = labels
        unknown = (y != pos) & (y != neg)
        if unknown.any():
            raise DataError(
                f"chunk contains labels outside the fitted alphabet "
                f"({pos:g}, {neg:g})"
            )
        return np.where(y == pos, 1.0, -1.0)

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
