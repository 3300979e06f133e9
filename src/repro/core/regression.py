"""Least Squares Support Vector Regression (paper §V future work).

The paper's conclusion lists regression as a planned LIBSVM-parity
feature. The LS-SVM machinery delivers it almost for free: the saddle
system of Eq. 11 never uses the fact that the targets are +/-1 — with
real-valued targets it *is* kernel ridge regression with a bias term
(Saunders et al.'s dual ridge regression, the paper's reference [33]):

    [K + I/C   1] [alpha]   [y]
    [1^T       0] [b    ] = [0]

so the identical reduction (Eq. 13/14), the identical matrix-free CG solve
and the identical bias recovery apply — :class:`LSSVR` trains through the
same LS-SVM core as the classifiers (:mod:`repro.core.lssvm`). Prediction
drops the sign:

    f(x) = sum_i alpha_i k(x_i, x) + b
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..exceptions import DataError, NotFittedError
from ..parameter import Parameter, SolverConfig
from ..profiling import ComponentTimer
from ..telemetry import TrainingReport
from ..types import KernelType
from .cg import CGResult
from .estimator import ParamsMixin, apply_config, warn_deprecated_flat_kwargs
from .lssvm import _Solution, _append_lssvm, _check_options, _configs, _solve_lssvm

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
        self._solution: Optional[_Solution] = None
        self._predictor = None

    def _sync_params(self) -> None:
        apply_config(
            self, getattr(self, "config", None), supported=_REG_SOLVER_FIELDS
        )
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
        _check_options(self)
        # A parameter change invalidates an incremental continuation.
        self._engine = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LSSVR":
        """Fit on real-valued targets ``y``."""
        solution = _solve_lssvm(
            X,
            np.ravel(y),
            self.param,
            *_configs(self),
            estimator="LSSVR",
            binary_labels=False,
            warm_from=self._solution if self.warm_start else None,
        )
        self._engine = None
        self._adopt(solution)
        return self

    def _adopt(self, solution) -> None:
        self._solution = solution
        self._predictor = None
        self.result_ = solution.result
        self.report_ = solution.report
        self.timings_ = solution.timings

    @staticmethod
    def _targets(y):
        """Regression targets are used as given; there is no label state."""
        return np.ravel(y), None

    def partial_fit(self, X: np.ndarray, y: np.ndarray) -> "LSSVR":
        """Extend the training set by a chunk and refit incrementally.

        The regression twin of :meth:`repro.core.lssvm.LSSVC.partial_fit`:
        the accumulated kernel matrix grows by the new rows only and CG
        warm-starts from the previous multipliers. A zero-row chunk is a
        bit-exact no-op, a rejected chunk leaves the estimator as it was;
        a regular :meth:`fit` can be continued (one kernel bootstrap on
        the first chunk). Requires ``solver="cg"``.
        """
        step = _append_lssvm(
            self._engine,
            self._solution,
            X,
            y,
            self._targets,
            self.param,
            *_configs(self),
            estimator="LSSVR",
            binary_labels=False,
        )
        if step is not None:
            self._engine, solution, _ = step
            self._adopt(solution)
        return self

    def _require_fitted(self) -> _Solution:
        if self._solution is None:
            raise NotFittedError("LSSVR is not fitted yet; call fit() first")
        return self._solution

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted function values for each row of ``X`` (a scalar for a 1-D row).

        One :class:`~repro.serve.PredictionEngine` over the solution, built
        on the first call, evaluates ``K(X, SV) @ alpha + b`` in query
        tiles of at most :data:`~repro.core.tile_pipeline.TILE_BYTES`
        (``z(X) @ w + b`` after an rff fit).
        """
        fit = self._require_fitted()
        if self._predictor is None:
            from ..serve.engine import PredictionEngine  # deferred: serve imports core

            self._predictor = PredictionEngine(fit)
        out = self._predictor.decision_function(X)
        return out[0] if np.ndim(X) == 1 else out

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
        return self._require_fitted().alpha

    @property
    def bias_(self) -> float:
        return self._require_fitted().bias
