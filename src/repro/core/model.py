"""Trained LS-SVM model container and LIBSVM-format serialization.

An LS-SVM interprets *every* training point as a support vector (§II-C), so
the model stores the full training set together with the learned multipliers
``alpha`` and bias ``b``. The decision function is

    f(x) = sum_i alpha_i * k(x_i, x) + b

(the labels are already folded into the alphas by the linear system of
Eq. 11, so no explicit ``y_i`` factor appears).

The on-disk format is the LIBSVM model format — the reproduction keeps
PLSSVM's drop-in compatibility promise, mapping ``rho = -b`` and writing one
``alpha_i`` coefficient per support vector row.

A second, *compact* artifact kind exists for the randomized ``rff``
solver: :class:`FeatureMapModel` stores random-Fourier-feature weights
instead of the full support set, so the file is O(r·d) rather than
O(m·d) and prediction costs O(r·d) per row. It serializes as a small
JSON document; :func:`load_model` sniffs the two formats apart (a
compact file starts with ``{``, a LIBSVM file never does), so every
consumer — the predict CLI, the serving registry — loads either kind
through the same entry point.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from ..exceptions import ModelFormatError, NotFittedError
from ..parameter import Parameter
from ..types import KernelType

__all__ = [
    "LSSVMModel",
    "FeatureMapModel",
    "MODEL_TYPES",
    "save_model",
    "load_model",
]

#: On-disk format tag of the compact feature-map artifact.
COMPACT_FORMAT = "plssvm-compact"
COMPACT_FORMAT_VERSION = 1

_KERNEL_NAMES = {
    KernelType.LINEAR: "linear",
    KernelType.POLYNOMIAL: "polynomial",
    KernelType.RBF: "rbf",
    KernelType.SIGMOID: "sigmoid",
}
_KERNEL_FROM_NAME = {v: k for k, v in _KERNEL_NAMES.items()}


class _EngineModel:
    """Prediction shared by the two artifact kinds: one cached engine.

    ``decision_function`` is :meth:`LSSVMModel.decision_function` for both;
    labels and accuracy follow from its sign.
    """

    def engine(self):
        """The warm :class:`repro.serve.PredictionEngine` over this model.

        Built on the first call and cached: precomputed RBF row norms, the
        support set's pipeline and pool (or the feature map), amortized
        across calls. Imported lazily — ``core`` stays below ``serve`` in
        the layering. The engine's hoisted state is valid only for the
        coefficients it was built from, so anything that mutates the
        model — a ``partial_fit`` refit — calls ``invalidate_caches``,
        after which the next call builds a fresh engine.
        """
        engine = getattr(self, "_cached_engine", None)
        if engine is None:
            from ..serve.engine import PredictionEngine

            engine = self._cached_engine = PredictionEngine(self)
        return engine

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class labels (in the original label alphabet)."""
        f = np.atleast_1d(self.decision_function(X))
        pos, neg = self.labels
        return np.where(f >= 0.0, pos, neg)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Classification accuracy on ``(X, y)``."""
        y = np.asarray(y).ravel()
        pred = self.predict(X)
        if pred.shape[0] != y.shape[0]:
            raise ModelFormatError("label vector length does not match data")
        return float(np.mean(pred == y))


@dataclasses.dataclass
class LSSVMModel(_EngineModel):
    """A fitted LS-SVM binary classifier.

    Attributes
    ----------
    support_vectors:
        The full training set, shape ``(m, d)``.
    alpha:
        Lagrange multipliers, shape ``(m,)`` (sums to zero by the equality
        constraint of Eq. 11).
    bias:
        Hyperplane offset ``b``.
    param:
        Hyper-parameters used during training (with gamma resolved).
    labels:
        The two original class labels, ordered as ``(positive, negative)``
        — i.e. ``labels[0]`` is the class encoded internally as ``+1``.
    """

    support_vectors: np.ndarray
    alpha: np.ndarray
    bias: float
    param: Parameter
    labels: Tuple[float, float] = (1.0, -1.0)

    def __post_init__(self) -> None:
        self.support_vectors = np.asarray(self.support_vectors, dtype=self.param.dtype)
        self.alpha = np.asarray(self.alpha, dtype=self.param.dtype).ravel()
        if self.support_vectors.ndim != 2:
            raise ModelFormatError("support vectors must form a 2-D array")
        if self.alpha.shape[0] != self.support_vectors.shape[0]:
            raise ModelFormatError(
                f"{self.alpha.shape[0]} coefficients for "
                f"{self.support_vectors.shape[0]} support vectors"
            )

    @property
    def num_support_vectors(self) -> int:
        return self.support_vectors.shape[0]

    @property
    def num_features(self) -> int:
        return self.support_vectors.shape[1]

    def weight_vector(self) -> np.ndarray:
        """The primal normal vector ``w = sum_i alpha_i x_i`` (Eq. 15).

        Only the linear kernel has an explicit primal representation (for
        the others ``w`` lives in the implicit feature space). With ``w``
        in hand, prediction costs O(d) per point instead of O(m d) — the
        reason PLSSVM derives it at the end of training. Computed lazily
        and cached.
        """
        if self.param.kernel is not KernelType.LINEAR:
            raise ModelFormatError(
                f"the explicit weight vector exists only for the linear kernel, "
                f"not {self.param.kernel}"
            )
        cached = getattr(self, "_weight_cache", None)
        if cached is None:
            cached = self.alpha @ self.support_vectors
            self._weight_cache = cached
        return cached

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed distance surrogate ``f(x)`` for each row of ``X``.

        A 1-D ``X`` is one row and gives a scalar. Evaluated by this
        model's cached :meth:`engine`: the linear kernel takes the
        O(d)-per-point primal path ``X @ w + b``; the non-linear kernels
        evaluate the kernel expansion as a threaded cross sweep over the
        support vectors, in query tiles of at most
        :data:`~repro.core.tile_pipeline.TILE_BYTES` (2 MiB) and 1024 rows,
        so prediction memory stays bounded for any test-set size. Each
        output row is an independent kernel-row dot product, so tiling
        changes values by BLAS rounding at most.
        """
        X = np.asarray(X, dtype=self.param.dtype)
        if X.shape[-1] != self.num_features:
            raise ModelFormatError(
                f"test data has {X.shape[-1]} features, model expects {self.num_features}"
            )
        out = self.engine().decision_function(X)
        return out[0] if X.ndim == 1 else out

    def invalidate_caches(self) -> None:
        """Drop derived state after an in-place mutation of the model.

        Clears the cached prediction engine and the lazy linear weight
        vector, then fires every registered invalidation hook — the
        mechanism a :class:`repro.serve.registry.ModelRegistry` uses to
        bump its generation (and drop its warm engine) the moment a
        ``partial_fit`` refit rewrites ``alpha``/``support_vectors``, so
        serving never answers from a stale solution.
        """
        self._cached_engine = None
        self._weight_cache = None
        for hook in tuple(getattr(self, "_invalidation_hooks", {}).values()):
            hook(self)

    def add_invalidation_hook(self, key, hook) -> None:
        """Register ``hook(model)`` to fire on :meth:`invalidate_caches`.

        ``key`` deduplicates registrations (re-adding under the same key
        replaces the previous hook).
        """
        hooks = getattr(self, "_invalidation_hooks", None)
        if hooks is None:
            hooks = {}
            self._invalidation_hooks = hooks
        hooks[key] = hook

    def remove_invalidation_hook(self, key) -> None:
        getattr(self, "_invalidation_hooks", {}).pop(key, None)

    def save(self, path: Union[str, Path]) -> None:
        save_model(self, path)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "LSSVMModel":
        return load_model(path)


@dataclasses.dataclass
class FeatureMapModel(_EngineModel):
    """A compact fitted LS-SVM: feature-map weights, no support set.

    Produced by the ``rff`` solver strategy: the decision function is the
    *primal* form over the random Fourier features,

        f(x) = z(x) . w + b,      z(x) = sqrt(2/r) cos(x Omega + offsets)

    so prediction never touches training points — O(r·d) per row versus
    the exact model's O(m·d). The sampled frequencies ``Omega`` and phase
    ``offsets`` are part of the model (they *are* the kernel
    approximation); ``seed`` records the solver seed for provenance.

    Attributes
    ----------
    omega:
        Sampled frequencies, shape ``(d, r)``.
    offsets:
        Phase offsets, shape ``(r,)``.
    weights:
        Primal weight vector over the features, shape ``(r,)``.
    bias:
        Hyperplane offset ``b``.
    param:
        Hyper-parameters used during training (gamma resolved).
    labels:
        The two original class labels, ``(positive, negative)``.
    seed:
        The solver seed the frequencies were drawn with (``None`` when a
        live generator was passed).
    """

    omega: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray
    bias: float
    param: Parameter
    labels: Tuple[float, float] = (1.0, -1.0)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.omega = np.ascontiguousarray(np.asarray(self.omega, dtype=self.param.dtype))
        self.offsets = np.asarray(self.offsets, dtype=self.param.dtype).ravel()
        self.weights = np.asarray(self.weights, dtype=self.param.dtype).ravel()
        if self.omega.ndim != 2:
            raise ModelFormatError("feature-map frequencies must form a 2-D array")
        if self.offsets.shape[0] != self.omega.shape[1]:
            raise ModelFormatError(
                f"{self.offsets.shape[0]} offsets for {self.omega.shape[1]} frequencies"
            )
        if self.weights.shape[0] != self.omega.shape[1]:
            raise ModelFormatError(
                f"{self.weights.shape[0]} weights for {self.omega.shape[1]} features"
            )

    @property
    def num_features(self) -> int:
        return self.omega.shape[0]

    @property
    def rank(self) -> int:
        """Feature-map width ``r`` (the model's whole size driver)."""
        return self.omega.shape[1]

    @property
    def num_support_vectors(self) -> int:
        """0 — the compact model keeps no support set (drop-in introspection)."""
        return 0

    @property
    def nbytes(self) -> int:
        return self.omega.nbytes + self.offsets.nbytes + self.weights.nbytes

    #: ``f(x) = z(x) . w + b`` per row, through the same cached engine.
    decision_function = LSSVMModel.decision_function

    def save(self, path: Union[str, Path]) -> None:
        save_compact_model(self, path)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FeatureMapModel":
        return load_compact_model(path)


#: Every fitted-model artifact kind (isinstance checks in registries etc.).
MODEL_TYPES = (LSSVMModel, FeatureMapModel)


def save_compact_model(model: FeatureMapModel, path: Union[str, Path]) -> None:
    """Write the compact feature-map artifact as JSON.

    Floats serialize via ``repr`` (Python's ``json``), which round-trips
    IEEE doubles exactly — a saved/loaded compact model predicts
    bit-identically to the in-memory one.
    """
    param = model.param
    doc = {
        "format": COMPACT_FORMAT,
        "version": COMPACT_FORMAT_VERSION,
        "kind": "rff",
        "kernel_type": _KERNEL_NAMES[param.kernel],
        "gamma": param.gamma,
        "cost": param.cost,
        "rho": -model.bias,
        "label": [model.labels[0], model.labels[1]],
        "seed": model.seed,
        "num_features": model.num_features,
        "rank": model.rank,
        "omega": model.omega.tolist(),
        "offsets": model.offsets.tolist(),
        "weights": model.weights.tolist(),
    }
    Path(path).write_text(json.dumps(doc), encoding="ascii")


def load_compact_model(path: Union[str, Path]) -> FeatureMapModel:
    """Read a compact model written by :func:`save_compact_model`."""
    try:
        doc = json.loads(Path(path).read_text(encoding="ascii"))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"compact model is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != COMPACT_FORMAT:
        raise ModelFormatError(
            f"not a compact model file (format tag {doc.get('format')!r})"
        )
    if doc.get("version") != COMPACT_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported compact model version {doc.get('version')!r}"
        )
    for required in ("kernel_type", "rho", "omega", "offsets", "weights"):
        if required not in doc:
            raise ModelFormatError(f"compact model missing {required!r}")
    try:
        kernel = _KERNEL_FROM_NAME[doc["kernel_type"]]
    except KeyError:
        raise ModelFormatError(
            f"unsupported kernel_type {doc['kernel_type']!r}"
        ) from None
    param = Parameter(
        kernel=kernel,
        cost=float(doc.get("cost", 1.0)),
        gamma=float(doc["gamma"]) if doc.get("gamma") is not None else None,
    )
    labels = tuple(float(v) for v in doc.get("label", (1.0, -1.0)))
    if len(labels) != 2:
        raise ModelFormatError("compact model must list exactly two labels")
    seed = doc.get("seed")
    return FeatureMapModel(
        omega=np.asarray(doc["omega"], dtype=np.float64),
        offsets=np.asarray(doc["offsets"], dtype=np.float64),
        weights=np.asarray(doc["weights"], dtype=np.float64),
        bias=-float(doc["rho"]),
        param=param,
        labels=labels,  # type: ignore[arg-type]
        seed=int(seed) if seed is not None else None,
    )


def _write_sparse_row(stream: TextIO, coef: float, features: Sequence[float]) -> None:
    parts = [f"{coef:.17g}"]
    for idx, value in enumerate(features, start=1):
        if value != 0.0:
            parts.append(f"{idx}:{value:.17g}")
    stream.write(" ".join(parts))
    stream.write("\n")


def save_model(model: LSSVMModel, path: Union[str, Path]) -> None:
    """Write ``model`` in the LIBSVM model file format.

    The header mirrors LIBSVM/PLSSVM: ``rho`` is the negated bias, ``label``
    lists the class labels in internal (+1, -1) order, and every training
    point appears in the SV section (``nr_sv`` counts per class follow the
    sign of the training labels, which LS-SVM keeps alongside the alphas).
    """
    param = model.param
    path = Path(path)
    with path.open("w", encoding="ascii") as f:
        f.write("svm_type c_svc\n")
        f.write(f"kernel_type {_KERNEL_NAMES[param.kernel]}\n")
        if param.kernel is KernelType.POLYNOMIAL:
            f.write(f"degree {param.degree}\n")
        if param.kernel is not KernelType.LINEAR:
            f.write(f"gamma {param.gamma:.17g}\n")
        if param.kernel in (KernelType.POLYNOMIAL, KernelType.SIGMOID):
            f.write(f"coef0 {param.coef0:.17g}\n")
        f.write("nr_class 2\n")
        f.write(f"total_sv {model.num_support_vectors}\n")
        f.write(f"rho {-model.bias:.17g}\n")
        pos, neg = model.labels
        f.write(f"label {_format_label(pos)} {_format_label(neg)}\n")
        n_pos = int(np.count_nonzero(model.alpha >= 0.0))
        f.write(f"nr_sv {n_pos} {model.num_support_vectors - n_pos}\n")
        f.write("SV\n")
        for coef, row in zip(model.alpha, model.support_vectors):
            _write_sparse_row(f, float(coef), row)


def _format_label(label: float) -> str:
    return f"{int(label)}" if float(label).is_integer() else f"{label:g}"


def load_model(path: Union[str, Path]) -> Union[LSSVMModel, FeatureMapModel]:
    """Read a model file of either artifact kind.

    Sniffs the format: a compact feature-map model is a JSON object (its
    first non-whitespace character is ``{``, which no LIBSVM model file
    starts with); anything else parses as the LIBSVM format written by
    :func:`save_model`.
    """
    path = Path(path)
    with path.open("r", encoding="ascii") as probe:
        head = probe.read(64)
    if head.lstrip()[:1] == "{":
        return load_compact_model(path)
    header: dict = {}
    sv_lines: list = []
    with path.open("r", encoding="ascii") as f:
        in_sv = False
        for raw in f:
            line = raw.strip()
            if not line:
                continue
            if in_sv:
                sv_lines.append(line)
                continue
            if line == "SV":
                in_sv = True
                continue
            key, _, value = line.partition(" ")
            header[key] = value.strip()

    for required in ("svm_type", "kernel_type", "rho", "total_sv"):
        if required not in header:
            raise ModelFormatError(f"model file missing '{required}' header line")
    if header["svm_type"] != "c_svc":
        raise ModelFormatError(f"unsupported svm_type {header['svm_type']!r}")
    try:
        kernel = _KERNEL_FROM_NAME[header["kernel_type"]]
    except KeyError:
        raise ModelFormatError(
            f"unsupported kernel_type {header['kernel_type']!r}"
        ) from None

    param = Parameter(
        kernel=kernel,
        gamma=float(header["gamma"]) if "gamma" in header else None,
        degree=int(header.get("degree", 3)),
        coef0=float(header.get("coef0", 0.0)),
    )
    bias = -float(header["rho"])
    total_sv = int(header["total_sv"])
    if total_sv != len(sv_lines):
        raise ModelFormatError(
            f"header announces {total_sv} support vectors, file contains {len(sv_lines)}"
        )
    labels: Tuple[float, float] = (1.0, -1.0)
    if "label" in header:
        parts = header["label"].split()
        if len(parts) != 2:
            raise ModelFormatError("binary model must list exactly two labels")
        labels = (float(parts[0]), float(parts[1]))

    alphas = np.empty(total_sv, dtype=np.float64)
    feature_maps = []
    max_index = 0
    for i, line in enumerate(sv_lines):
        tokens = line.split()
        try:
            alphas[i] = float(tokens[0])
        except (ValueError, IndexError):
            raise ModelFormatError(f"malformed SV line {i + 1}: {line!r}") from None
        entries = {}
        for token in tokens[1:]:
            idx_str, _, val_str = token.partition(":")
            try:
                idx, val = int(idx_str), float(val_str)
            except ValueError:
                raise ModelFormatError(
                    f"malformed feature entry {token!r} on SV line {i + 1}"
                ) from None
            if idx < 1:
                raise ModelFormatError(f"feature indices are 1-based, got {idx}")
            entries[idx] = val
            max_index = max(max_index, idx)
        feature_maps.append(entries)

    X = np.zeros((total_sv, max_index), dtype=np.float64)
    for i, entries in enumerate(feature_maps):
        for idx, val in entries.items():
            X[i, idx - 1] = val
    return LSSVMModel(
        support_vectors=X, alpha=alphas, bias=bias, param=param, labels=labels
    )


def require_fitted(model: Optional[LSSVMModel], what: str = "model") -> LSSVMModel:
    """Raise :class:`NotFittedError` when ``model`` is ``None``."""
    if model is None:
        raise NotFittedError(f"{what} is not fitted yet; call fit() first")
    return model
