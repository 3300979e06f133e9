"""The warm per-model prediction engine behind the serving subsystem.

A cold prediction path would re-derive everything a kernel evaluation
needs on every call: the RBF support-vector norms, any ``compute_dtype``
cast of the support set, and (implicitly) a thread to run on. Amortized
over a server's lifetime that is the entire point — kernel-SVM inference
cost is dominated by evaluating kernel rows against the support set (the
same observation PLSSVM's training pipeline exploits), and all of the
row-independent half of that work can be hoisted to model-load time.
Offline ``LSSVMModel.decision_function`` goes through the model's own
cached engine too, so there is one prediction path.

A :class:`PredictionEngine` does that hoisting: it owns a loaded
:class:`~repro.core.model.LSSVMModel` plus a warm
:class:`~repro.core.tile_pipeline.TilePipeline` over its support vectors
(precomputed row norms, compute-dtype cast, shared worker pool) and
routes every prediction through
:meth:`~repro.core.tile_pipeline.TilePipeline.cross_sweep` — threaded,
budget-tiled (one query tile stays under 64 MiB and 1024 rows),
mixed-precision capable.
``predict`` is thread-safe and stateless per call, so one engine serves
arbitrarily many concurrent callers (the micro-batcher counts on it).

Compact :class:`~repro.core.model.FeatureMapModel` artifacts take a
generalized primal fast path instead: there is no support set to tile
over, so the engine skips the pipeline entirely and serves
``z(x) @ w + b`` — the same O(r)-per-row expression the model itself
evaluates, hence bit-identical to offline prediction. The linear
kernel's materialized-``w`` path is the special case of this with an
identity feature map.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

import numpy as np

from ..core.model import FeatureMapModel, LSSVMModel
from ..core.tile_pipeline import TilePipeline, _prediction_tile_rows
from ..exceptions import DataError
from ..telemetry.context import current_context
from ..types import KernelType

__all__ = ["PredictionEngine"]


class PredictionEngine:
    """A loaded model kept warm for repeated, concurrent prediction.

    Parameters
    ----------
    model:
        The fitted binary LS-SVM to serve.
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
        model: LSSVMModel,
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
        self._transform = None
        if isinstance(model, FeatureMapModel):
            # Compact artifact: no support set, no pipeline — the whole
            # warm state is the (d, r) feature map plus the primal weights.
            self.pipeline = None
            self._alpha = None
            self._weight = np.ascontiguousarray(model.weights, dtype=param.dtype)
            self._transform = model.transform
        else:
            # cache_mb=0: the square support x support cache never pays off
            # in serving (queries are novel rows); the pipeline is kept for
            # its warm norms, casts, and pool.
            self.pipeline = TilePipeline(
                model.support_vectors,
                param.kernel,
                gamma=param.gamma,
                degree=param.degree,
                coef0=param.coef0,
                tile_rows=_prediction_tile_rows(model.num_support_vectors, param.dtype),
                num_threads=solver_threads,
                cache_mb=0.0,
                dtype=param.dtype,
                compute_dtype=compute_dtype,
            )
            self._alpha = np.ascontiguousarray(model.alpha, dtype=param.dtype)
            # The linear kernel's O(d)-per-point primal fast path:
            # materialize w once at load time instead of lazily on the
            # first request.
            self._weight = (
                model.weight_vector() if param.kernel is KernelType.LINEAR else None
            )
        self._lock = threading.Lock()
        self.requests = 0
        self.rows_served = 0

    # -- introspection --------------------------------------------------------

    @property
    def num_features(self) -> int:
        return self.model.num_features

    @property
    def num_support_vectors(self) -> int:
        return self.model.num_support_vectors

    @property
    def nbytes(self) -> int:
        """Resident bytes of the warm state (the registry's eviction unit)."""
        if self.pipeline is None:
            return int(self.model.nbytes)
        total = self.model.support_vectors.nbytes + self._alpha.nbytes
        pipe = self.pipeline
        if pipe._points_c is not pipe.points:
            total += pipe._points_c.nbytes
        if pipe.row_norms is not None:
            total += pipe.row_norms.nbytes
        if self._weight is not None:
            total += self._weight.nbytes
        return total

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
        if self._transform is not None:
            summary["kind"] = "compact"
            summary["rank"] = self.model.rank
        return summary

    # -- prediction -----------------------------------------------------------

    def _validate(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=self.model.param.dtype)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2:
            raise DataError("prediction input must be a row or a 2-D block of rows")
        if X.shape[1] != self.num_features:
            raise DataError(
                f"request has {X.shape[1]} features, model {self.name!r} "
                f"expects {self.num_features}"
            )
        return X

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """``f(x)`` per row, through the warm tile pipeline.

        ``LSSVMModel.decision_function`` is this method on the model's own
        cached engine, so offline and served values are bit-identical at
        full precision.
        """
        X = self._validate(X)
        if self._weight is not None:
            # Generalized primal fast path: identity map for the linear
            # kernel, the random Fourier map for compact models. Either
            # way f(x) = z(x) @ w + b, O(features-out) per row.
            Z = X if self._transform is None else self._transform(X)
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
