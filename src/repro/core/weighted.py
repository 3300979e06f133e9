"""Weighted (robust) LS-SVM — Suykens et al.'s extension (paper ref. [25]).

The plain LS-SVM's squared loss is sensitive to outliers: every point's
error enters the objective quadratically, so mislabeled points drag the
hyperplane. Suykens' two-stage remedy:

1. fit an unweighted LS-SVM; its multipliers directly expose the per-point
   errors, ``e_i = alpha_i / C`` (from the stationarity condition
   ``alpha_i = C * xi_i``);
2. convert the standardized errors into robustness weights ``v_i`` with a
   Hampel-style score (1 inside ``c1`` robust standard deviations, linearly
   decaying to ``v_min`` at ``c2``, clamped beyond), and refit with the
   per-point ridge ``1 / (C * v_i)`` — outliers get a tiny effective C.

The reduced system machinery accepts per-point ridges directly
(:class:`repro.core.qmatrix.QMatrixBase`'s ``ridge``), so every stage is
the same LS-SVM core solve (:mod:`repro.core.lssvm`) on a reweighted
diagonal.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..exceptions import InvalidParameterError, NotFittedError
from ..parameter import Parameter
from ..profiling import ComponentTimer
from ..types import KernelType
from .lssvm import _configs, _model_from, _solve_lssvm, encode_labels
from .model import LSSVMModel

__all__ = ["WeightedLSSVC", "hampel_weights"]


def hampel_weights(
    errors: np.ndarray, *, c1: float = 2.5, c2: float = 3.0, v_min: float = 1e-4
) -> np.ndarray:
    """Robustness weights from LS-SVM errors (Suykens et al. 2002).

    The spread estimate is the normalized interquartile range (a robust
    stand-in for the error standard deviation); weights are

    * 1 for ``|e| / s <= c1``,
    * ``(c2 - |e|/s) / (c2 - c1)`` between ``c1`` and ``c2``,
    * ``v_min`` beyond ``c2``.
    """
    if not 0 < c1 < c2:
        raise InvalidParameterError(f"need 0 < c1 < c2, got c1={c1}, c2={c2}")
    if not 0 < v_min <= 1:
        raise InvalidParameterError(f"v_min must lie in (0, 1], got {v_min}")
    errors = np.asarray(errors, dtype=np.float64).ravel()
    q75, q25 = np.percentile(errors, [75, 25])
    spread = (q75 - q25) / 1.349  # IQR -> sigma for a normal distribution
    if spread <= 0:
        return np.ones_like(errors)
    z = np.abs(errors) / spread
    weights = np.where(
        z <= c1, 1.0, np.where(z <= c2, (c2 - z) / (c2 - c1), v_min)
    )
    return np.maximum(weights, v_min)


class WeightedLSSVC:
    """Two-stage robust LS-SVM classifier.

    Parameters
    ----------
    kernel, C, gamma, degree, coef0, epsilon:
        As in :class:`repro.core.lssvm.LSSVC`.
    c1, c2, v_min:
        Hampel weight breakpoints (defaults from Suykens et al.).
    stages:
        Number of reweighting passes (1 = plain LS-SVM, 2 = the published
        scheme; more passes iterate the reweighting).
    """

    def __init__(
        self,
        kernel: Union[str, int, KernelType] = "linear",
        C: float = 1.0,
        *,
        gamma: Optional[float] = None,
        degree: int = 3,
        coef0: float = 0.0,
        epsilon: float = 1e-6,
        c1: float = 2.5,
        c2: float = 3.0,
        v_min: float = 1e-4,
        stages: int = 2,
    ) -> None:
        if stages < 1:
            raise InvalidParameterError("stages must be >= 1")
        self.param = Parameter(
            kernel=kernel, cost=C, gamma=gamma, degree=degree, coef0=coef0,
            epsilon=epsilon,
        )
        self.c1, self.c2, self.v_min = c1, c2, v_min
        self.stages = int(stages)
        self.model_: Optional[LSSVMModel] = None
        self.weights_: Optional[np.ndarray] = None
        self.timings_ = ComponentTimer()

    def fit(self, X: np.ndarray, y: np.ndarray) -> "WeightedLSSVC":
        X = np.asarray(X, dtype=self.param.dtype)
        y_enc, labels = encode_labels(y)
        weights = np.ones(X.shape[0], dtype=np.float64)
        timings = ComponentTimer()
        for stage in range(self.stages):
            ridge = 1.0 / (self.param.cost * weights)
            solution = _solve_lssvm(
                X,
                y_enc,
                self.param,
                *_configs(self),
                estimator="WeightedLSSVC",
                ridge=ridge,
            )
            timings.merge(solution.timings)
            if stage + 1 < self.stages:
                errors = solution.alpha * ridge  # e_i = alpha_i / (C v_i)
                weights = hampel_weights(
                    errors, c1=self.c1, c2=self.c2, v_min=self.v_min
                )
        self.weights_ = weights
        self.model_ = _model_from(solution, labels)
        self.timings_ = timings
        return self

    def _require_model(self) -> LSSVMModel:
        if self.model_ is None:
            raise NotFittedError("WeightedLSSVC is not fitted yet; call fit() first")
        return self.model_

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return self._require_model().decision_function(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._require_model().predict(X)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        return self._require_model().score(X, y)
