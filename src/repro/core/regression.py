"""Least Squares Support Vector Regression (paper §V future work).

The paper's conclusion lists regression as a planned LIBSVM-parity
feature. The LS-SVM machinery delivers it almost for free: the saddle
system of Eq. 11 never uses the fact that the targets are +/-1 — with
real-valued targets it *is* kernel ridge regression with a bias term
(Saunders et al.'s dual ridge regression, the paper's reference [33]):

    [K + I/C   1] [alpha]   [y]
    [1^T       0] [b    ] = [0]

so the identical reduction (Eq. 13/14), the identical matrix-free CG solve
and the identical bias recovery apply. Prediction drops the sign:

    f(x) = sum_i alpha_i k(x_i, x) + b
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..exceptions import DataError, InvalidParameterError, NotFittedError
from ..parameter import Parameter, SolverConfig
from ..profiling import ComponentTimer
from ..telemetry import TrainingReport, build_report, fit_scope
from ..types import KernelType
from .cg import CGResult, conjugate_gradient
from .estimator import ParamsMixin, apply_config, warn_deprecated_flat_kwargs
from .incremental import IncrementalEngine
from .qmatrix import (
    EXPLICIT_LIMIT,
    ExplicitQMatrix,
    ImplicitQMatrix,
    recover_bias_and_alpha,
)
from .solvers import (
    SolverInfo,
    fit_rff_primal,
    resolve_solver,
    solve_nystrom,
)
from .tile_pipeline import TilePipeline, _prediction_tile_rows

__all__ = ["LSSVR"]

#: SolverConfig fields LSSVR exposes as constructor keywords.
_REG_SOLVER_FIELDS = ("solver", "solver_rank", "solver_seed", "polish_iters")


class LSSVR(ParamsMixin):
    """Least Squares Support Vector Regressor.

    Parameters match :class:`repro.core.lssvm.LSSVC` where they apply;
    ``C`` trades the fit against the flatness of the function exactly as in
    classification (it is the inverse ridge).

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> X = rng.uniform(-3, 3, size=(200, 1))
    >>> y = np.sin(X[:, 0])
    >>> reg = LSSVR(kernel="rbf", C=100.0, gamma=1.0).fit(X, y)
    >>> float(np.abs(reg.predict(X) - y).mean()) < 0.05
    True
    """

    def __init__(
        self,
        kernel: Union[str, int, KernelType] = "rbf",
        C: float = 1.0,
        *,
        gamma: Optional[float] = None,
        degree: int = 3,
        coef0: float = 0.0,
        epsilon: float = 1e-6,
        max_iter: Optional[int] = None,
        dtype=np.float64,
        implicit: Optional[bool] = None,
        solver: str = "cg",
        solver_rank: Optional[int] = None,
        solver_seed: Union[None, int, np.random.Generator] = 0,
        polish_iters: int = 0,
        config: Optional[SolverConfig] = None,
        warm_start: bool = False,
    ) -> None:
        self.kernel = kernel
        self.C = C
        self.gamma = gamma
        self.degree = degree
        self.coef0 = coef0
        self.epsilon = epsilon
        self.max_iter = max_iter
        self.dtype = dtype
        self.implicit = implicit
        self.solver = solver
        self.solver_rank = solver_rank
        self.solver_seed = solver_seed
        self.polish_iters = polish_iters
        self.config = config
        self.warm_start = warm_start
        warn_deprecated_flat_kwargs(self, (SolverConfig, config))
        self._sync_params()
        self.result_: Optional[CGResult] = None
        self.report_: Optional[TrainingReport] = None
        self.timings_ = ComponentTimer()
        self._qmat = None
        self._alpha: Optional[np.ndarray] = None
        self._bias = 0.0
        self._fmap = None
        self._train_targets: Optional[np.ndarray] = None

    def _sync_params(self) -> None:
        apply_config(
            self, getattr(self, "config", None), supported=_REG_SOLVER_FIELDS
        )
        self.warm_start = bool(getattr(self, "warm_start", False))
        # A parameter change invalidates an incremental continuation.
        self._engine_inc = None
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
        self.solver = resolve_solver(self.solver)
        self.polish_iters = int(self.polish_iters)
        if self.polish_iters < 0:
            raise InvalidParameterError("polish_iters must be non-negative")
        if self.polish_iters and self.solver != "nystrom":
            raise InvalidParameterError(
                "polish_iters only applies to solver='nystrom'"
            )
        if self.solver == "rff" and self.param.kernel is not KernelType.RBF:
            raise InvalidParameterError(
                "solver='rff' requires the RBF kernel "
                f"(got {self.param.kernel})"
            )

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LSSVR":
        """Fit on real-valued targets ``y``."""
        y = np.asarray(y, dtype=self.param.dtype).ravel()
        X = np.asarray(X, dtype=self.param.dtype)
        if X.ndim != 2:
            raise DataError("training data must be 2-D")
        # Targets must vary, otherwise the reduced rhs is zero and the model
        # degenerates to the constant (still valid, but surprising).
        implicit = self.implicit
        if implicit is None:
            implicit = X.shape[0] > EXPLICIT_LIMIT
        self.timings_ = ComponentTimer()
        self._qmat = None
        self._fmap = None
        self._engine_inc = None
        warm_iterations = 0
        with fit_scope("LSSVR.fit", estimator="LSSVR") as ctx:
            with self.timings_.section("total"):
                if self.solver == "rff":
                    # The dual ridge system never appears: the primal
                    # normal equations accept real targets verbatim.
                    with self.timings_.section("cg"):
                        fmap, weights, bias, result, info = fit_rff_primal(
                            X,
                            y,
                            self.param,
                            rank=self.solver_rank,
                            rng=self.solver_seed,
                        )
                    self._fmap = fmap
                    alpha = weights
                else:
                    with self.timings_.section("assembly"), ctx.span("assembly"):
                        if implicit:
                            qmat = ImplicitQMatrix(
                                X, y, self.param, binary_labels=False
                            )
                        else:
                            qmat = ExplicitQMatrix(
                                X, y, self.param, binary_labels=False
                            )
                    with self.timings_.section("cg"):
                        if self.solver == "nystrom":
                            result, info = solve_nystrom(
                                qmat,
                                qmat.rhs(),
                                rank=self.solver_rank,
                                rng=self.solver_seed,
                                polish_iters=self.polish_iters,
                                epsilon=self.param.epsilon,
                            )
                        else:
                            info = SolverInfo()
                            rhs = qmat.rhs()
                            x0 = None
                            if self.warm_start and self._alpha is not None:
                                prev = np.asarray(self._alpha)
                                n = rhs.shape[0]
                                if prev.ndim == 1 and prev.shape[0] == n + 1:
                                    # Same-size refit: drop the recovered
                                    # eliminated entry.
                                    x0 = np.array(prev[:n], dtype=qmat.dtype)
                                elif prev.ndim == 1 and 0 < prev.shape[0] <= n:
                                    x0 = np.zeros(n, dtype=qmat.dtype)
                                    x0[: prev.shape[0]] = prev
                            result = conjugate_gradient(
                                qmat,
                                rhs,
                                epsilon=self.param.epsilon,
                                max_iter=self.param.max_iter,
                                x0=x0,
                            )
                            if x0 is not None:
                                warm_iterations = result.iterations
                    alpha, bias = recover_bias_and_alpha(qmat, result.x)
                    self._qmat = qmat
        self.report_ = build_report(
            ctx,
            estimator="LSSVR",
            backend="numpy",
            num_samples=X.shape[0],
            num_features=X.shape[1],
            timings=self.timings_,
            result=result,
            solver_strategy=info.strategy,
            solver_rank=info.rank,
            solver_setup_seconds=info.setup_seconds,
            warm_start_iterations=warm_iterations,
        )
        self.result_ = result
        self._alpha = alpha
        self._bias = bias
        # Keep the targets so partial_fit can continue from this fit.
        self._train_targets = y if self._fmap is None else None
        return self

    def partial_fit(self, X: np.ndarray, y: np.ndarray) -> "LSSVR":
        """Extend the training set by a chunk and refit incrementally.

        The regression twin of :meth:`repro.core.lssvm.LSSVC.partial_fit`:
        the accumulated kernel matrix grows by the new rows only and CG
        warm-starts from the previous multipliers. A zero-row chunk is a
        bit-exact no-op; a regular :meth:`fit` can be continued (one
        kernel bootstrap on the first chunk). Requires ``solver="cg"``.
        """
        if self.solver != "cg":
            raise InvalidParameterError(
                "partial_fit requires solver='cg' (the randomized direct "
                "solves have no warm-startable iteration)"
            )
        X = np.asarray(X, dtype=self.param.dtype)
        if X.ndim != 2:
            raise DataError("training data must be 2-D")
        if X.shape[0] == 0:
            if self._alpha is None:
                raise DataError("the first partial_fit chunk is empty")
            return self  # bit-exact no-op
        y = np.asarray(y, dtype=self.param.dtype).ravel()
        engine = self._engine_inc
        if engine is None:
            engine = IncrementalEngine(
                self.param,
                binary_labels=False,
            )
            if self.implicit is True:
                engine.explicit_limit = 0
            elif self.implicit is False:
                engine.explicit_limit = 2**62
            if self._alpha is not None:
                if self._qmat is None or self._train_targets is None:
                    raise InvalidParameterError(
                        "cannot continue incrementally from the previous fit "
                        "(compact rff models keep no appendable support set); "
                        "start from a fresh estimator"
                    )
                engine.seed(self._qmat.X, self._train_targets, self._alpha)
            self._engine_inc = engine
        self.timings_ = ComponentTimer()
        with fit_scope("LSSVR.partial_fit", estimator="LSSVR") as ctx:
            with self.timings_.section("total"):
                with self.timings_.section("refit"), ctx.span(
                    "refit", new_rows=X.shape[0]
                ):
                    res = engine.update(X, y)
        self._qmat = res.qmat
        self._alpha = res.alpha
        self._bias = float(res.bias)
        self._fmap = None
        self._train_targets = engine.y
        self.result_ = res.result
        self.report_ = build_report(
            ctx,
            estimator="LSSVR",
            backend="numpy",
            num_samples=engine.num_rows,
            num_features=engine.X.shape[1],
            timings=self.timings_,
            result=res.result,
            warm_start_iterations=res.warm_start_iterations,
        )
        return self

    def _require_fitted(self) -> None:
        if self._alpha is None:
            raise NotFittedError("LSSVR is not fitted yet; call fit() first")

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted function values for each row of ``X``.

        The kernel expansion is one cross sweep of the tile pipeline over
        the training points, in query tiles of at most 64 MiB.
        """
        self._require_fitted()
        X = np.asarray(X, dtype=self.param.dtype)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if self._fmap is not None:
            if X.shape[1] != self._fmap.num_features:
                raise DataError(
                    f"test data has {X.shape[1]} features, model expects "
                    f"{self._fmap.num_features}"
                )
            out = self._fmap.transform(X) @ self._alpha + self._bias
            return out[0] if single else out
        points = self._qmat.X
        if X.shape[1] != points.shape[1]:
            raise DataError(
                f"test data has {X.shape[1]} features, model expects "
                f"{points.shape[1]}"
            )
        pipeline = TilePipeline(
            points,
            self._qmat.param.kernel,
            **self._qmat.param.kernel_kwargs(),
            tile_rows=_prediction_tile_rows(points.shape[0], self.param.dtype),
            cache_mb=0.0,
            dtype=self.param.dtype,
        )
        out = pipeline.cross_sweep(X, self._alpha)
        out += self._bias
        return out[0] if single else out

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Coefficient of determination R^2 (1 is perfect, 0 is the mean)."""
        self._require_fitted()
        y = np.asarray(y, dtype=self.param.dtype).ravel()
        pred = np.atleast_1d(self.predict(X))
        if pred.shape[0] != y.shape[0]:
            raise DataError("target vector length does not match data")
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        if ss_tot == 0.0:
            return 1.0 if ss_res == 0.0 else 0.0
        return 1.0 - ss_res / ss_tot

    @property
    def iterations_(self) -> int:
        if self.result_ is None:
            raise NotFittedError("LSSVR is not fitted yet; call fit() first")
        return self.result_.iterations

    @property
    def alpha_(self) -> np.ndarray:
        self._require_fitted()
        return self._alpha

    @property
    def bias_(self) -> float:
        self._require_fitted()
        return self._bias
