"""The one prediction path: a warm engine over a coefficient vector or block.

Every LS-SVM prediction is the kernel-row product
``f(X) = K(X, SV) @ A + b`` that the implicit CG matvec computes, with
every training point a support vector (§II-C). A cold path would
re-derive everything that evaluation needs on every call: the RBF
support-vector norms, any ``compute_dtype`` cast of the support set, and
(implicitly) a thread to run on. All of that row-independent work is
hoisted to engine construction, the same observation PLSSVM's training
pipeline exploits.

A :class:`PredictionEngine` does that hoisting and is the only code that
evaluates ``f``. It takes its coefficients from the object it is given:

* an :class:`~repro.core.model.LSSVMModel` (``A`` is the alpha vector);
* a :class:`~repro.core.model.FeatureMapModel` (``z(X) @ w + b``: no
  support set, so no pipeline);
* a solution of the LS-SVM core (``repro.core.lssvm._Solution``), whose
  ``A`` may be an ``(m, k)`` block with a ``(k,)`` bias — one column per
  regression target or one-vs-all class, all evaluated by one sweep.

The support-set kinds route through a warm
:class:`~repro.core.tile_pipeline.TilePipeline`'s
:meth:`~repro.core.tile_pipeline.TilePipeline.cross_sweep` — threaded,
query tiles of at most :data:`~repro.core.tile_pipeline.TILE_BYTES` and
1024 rows, mixed-precision capable. The linear kernel takes PLSSVM's
primal path ``X @ w + b`` instead, with ``w`` derived once. Offline
``LSSVMModel.decision_function``, ``LSSVR.predict`` and
``OneVsAllLSSVC.decision_matrix`` all go through an engine, so offline
and served values come from one expression. ``decision_function`` is
thread-safe and stateless per call, so one engine serves arbitrarily many
concurrent callers (the micro-batcher counts on it).
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

import numpy as np

from ..core.model import FeatureMapModel, LSSVMModel
from ..core.solvers import FourierFeatureMap
from ..core.tile_pipeline import TilePipeline, _prediction_tile_rows
from ..exceptions import DataError
from ..telemetry.context import current_context
from ..types import KernelType

__all__ = ["PredictionEngine"]


class PredictionEngine:
    """A fitted model kept warm for repeated, concurrent prediction.

    Parameters
    ----------
    model:
        What to evaluate: an :class:`~repro.core.model.LSSVMModel`, a
        :class:`~repro.core.model.FeatureMapModel`, or an LS-SVM core
        solution with a coefficient vector or ``(m, k)`` block (see the
        module docstring). :meth:`evaluate`/:meth:`predict` need the
        binary models' ``labels``.
    solver_threads:
        Worker-thread count for the tile sweeps (``None`` resolves like
        the training pipeline: ``PLSSVM_NUM_THREADS`` / CPU count).
    compute_dtype:
        Mixed precision for the kernel tiles (``float32`` halves the
        bandwidth per request); decision values are accumulated back into
        the model's ``dtype``. ``None`` keeps full precision — and with
        it bit-identity against ``model.predict``.
    name / generation:
        Registry bookkeeping: the model's registered name and the
        hot-swap generation this engine was built from. Stamped into
        responses so a client can detect which model build answered.
    """

    def __init__(
        self,
        model,
        *,
        solver_threads: Optional[int] = None,
        compute_dtype=None,
        name: str = "default",
        generation: int = 0,
    ) -> None:
        self.model = model
        self.name = name
        self.generation = int(generation)
        param = model.param
        if isinstance(model, FeatureMapModel):
            fmap = FourierFeatureMap(model.omega, model.offsets)
            points, coef = None, model.weights
        elif isinstance(model, LSSVMModel):
            points, fmap, coef = model.support_vectors, None, model.alpha
        else:
            # An LS-SVM core solution: a support set or an rff map, and an
            # alpha vector or (m, k) block with a (k,) bias.
            points, fmap, coef = model.points, model.fmap, model.alpha
        coef = np.ascontiguousarray(coef, dtype=param.dtype)
        self._fmap = fmap
        self.pipeline = None
        self._alpha = None
        self._weight = None
        if fmap is not None:
            # Compact artifact: no support set, no pipeline — the whole
            # warm state is the (d, r) feature map plus the primal weights.
            self._weight = coef
            self.num_support_vectors, self.num_features = 0, fmap.num_features
        else:
            # cache_mb=0: the square support x support cache never pays
            # off in serving (queries are novel rows); the pipeline is
            # kept for its warm norms, casts, and pool.
            self.pipeline = TilePipeline(
                points,
                param.kernel,
                gamma=param.gamma,
                degree=param.degree,
                coef0=param.coef0,
                tile_rows=_prediction_tile_rows(points.shape[0], param.dtype),
                num_threads=solver_threads,
                cache_mb=0.0,
                dtype=param.dtype,
                compute_dtype=compute_dtype,
            )
            self._alpha = coef
            self.num_support_vectors, self.num_features = points.shape
            if param.kernel is KernelType.LINEAR:
                # The linear kernel's O(d)-per-point primal path: one
                # w = SVᵀ a per coefficient column (Eq. 15), derived once.
                columns = coef.reshape(len(points), -1).T
                W = np.column_stack([a @ points for a in columns])
                self._weight = W if coef.ndim == 2 else W[:, 0]
        self._lock = threading.Lock()
        self.requests = 0
        self.rows_served = 0

    # -- introspection --------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Resident bytes of the warm state (the registry's eviction unit)."""
        if self.pipeline is None:
            parts = [self._fmap.omega, self._fmap.offsets, self._weight]
        else:
            pipe = self.pipeline
            parts = [pipe.points, self._alpha, pipe.row_norms, self._weight]
            if pipe._points_c is not pipe.points:
                parts.append(pipe._points_c)
        return sum(part.nbytes for part in parts if part is not None)

    def describe(self) -> dict:
        """JSON-ready summary for the ``/models`` endpoint."""
        if self.pipeline is not None:
            compute_dtype = self.pipeline.compute_dtype.name
        else:
            compute_dtype = np.dtype(self.model.param.dtype).name
        summary = {
            "name": self.name,
            "generation": self.generation,
            "kernel": self.model.param.kernel.name.lower(),
            "num_support_vectors": self.num_support_vectors,
            "num_features": self.num_features,
            "compute_dtype": compute_dtype,
            "nbytes": int(self.nbytes),
            "requests": self.requests,
            "rows_served": self.rows_served,
        }
        if self._fmap is not None:
            summary["kind"] = "compact"
            summary["rank"] = self._fmap.rank
        return summary

    # -- prediction -----------------------------------------------------------

    def _validate(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=self.model.param.dtype)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2:
            raise DataError("prediction input must be a row or a 2-D block of rows")
        self.check_features(X.shape[1])
        return X

    def check_features(self, num_features: int) -> None:
        """Raise :class:`DataError` unless rows of this width fit the model."""
        if num_features != self.num_features:
            raise DataError(
                f"request has {num_features} features, model {self.name!r} "
                f"expects {self.num_features}"
            )

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """``f(x)`` per row: shape ``(n,)``, or ``(n, k)`` for a coefficient block.

        A 1-D ``X`` is one row. ``LSSVMModel.decision_function`` is this
        method on the model's own cached engine, so offline and served
        values are bit-identical at full precision.
        """
        X = self._validate(X)
        if self._weight is not None:
            # Generalized primal path: identity map for the linear
            # kernel, the random Fourier map for compact models. Either
            # way f(x) = z(x) @ w + b, O(features-out) per row.
            Z = X if self._fmap is None else self._fmap.transform(X)
            f = Z @ self._weight + self.model.bias
        else:
            f = self.pipeline.cross_sweep(X, self._alpha)
            f += self.model.bias
        with self._lock:
            self.requests += 1
            self.rows_served += X.shape[0]
        ctx = current_context()
        ctx.inc("serve_rows", X.shape[0])
        return f

    def evaluate(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(labels, decision_values)`` for a block of rows."""
        f = self.decision_function(X)
        pos, neg = self.model.labels
        return np.where(f >= 0.0, pos, neg), f

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class labels (original label alphabet); thread-safe."""
        return self.evaluate(X)[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PredictionEngine({self.name!r}, gen={self.generation}, "
            f"sv={self.num_support_vectors}, kernel={self.model.param.kernel.name})"
        )
