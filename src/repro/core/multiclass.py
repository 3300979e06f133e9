"""Multi-class LS-SVM classification (paper §V future work).

The paper supports only binary classification and names multi-class
support as the canonical extension ("it is not difficult to include these
functionalities on the basis of our library"). Both standard decompositions
are provided, following Suykens & Vandewalle's multiclass LS-SVM paper and
LIBSVM's convention respectively:

* :class:`OneVsAllLSSVC` — one binary machine per class (class k vs the
  rest); prediction takes the argmax of the decision values.
* :class:`OneVsOneLSSVC` — one machine per class pair (LIBSVM's scheme);
  prediction by majority vote with decision-value tie-breaking.

Any binary estimator with the ``fit`` / ``decision_function`` interface
can be plugged in via ``estimator_factory`` — by default a fresh
:class:`repro.core.lssvm.LSSVC` with the given hyper-parameters. With the
default machines, one-vs-all trains all ``K`` of them with one LS-SVM core
solve of the ``(m, K)`` one-vs-rest target block.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..exceptions import DataError, InvalidParameterError, NotFittedError
from ..parameter import Parameter, ResourceConfig, SolverConfig
from ..profiling import ComponentTimer
from ..telemetry import TrainingReport
from ..types import KernelType
from .estimator import ParamsMixin, apply_config, warn_deprecated_flat_kwargs
from .lssvm import (
    LSSVC,
    _Solution,
    _append_lssvm,
    _check_options,
    _configs,
    _model_from,
    _solve_lssvm,
)
from .model import FeatureMapModel

__all__ = ["OneVsAllLSSVC", "OneVsOneLSSVC"]

#: Config fields the multiclass wrappers expose as constructor keywords;
#: a passed config carrying a non-default value outside these raises.
_MC_SOLVER_FIELDS = (
    "solver",
    "solver_rank",
    "solver_seed",
    "polish_iters",
    "precondition",
    "precond_rank",
)
_MC_RESOURCE_FIELDS = (
    "solver_threads",
    "tile_cache_mb",
    "compute_dtype",
    "memory_budget_mb",
    "shard_rows",
)


def _unique_labels(y: np.ndarray) -> np.ndarray:
    labels = np.unique(np.asarray(y).ravel())
    if labels.size < 2:
        raise DataError("multi-class training requires at least two classes")
    return labels


def _one_vs_rest(y: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """The ``(m, K)`` block of per-class +1/-1 targets."""
    return np.stack([np.where(y == label, 1.0, -1.0) for label in classes], axis=1)


def _positive_first(X: np.ndarray, binary: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Reorder so a +1 sample leads the arrays.

    The binary estimators follow LIBSVM's convention of mapping the
    *first-seen* label to the internal positive class, which would flip the
    sign of ``decision_function`` whenever a -1 sample happens to come
    first. Swapping one positive sample to index 0 pins the orientation.
    """
    if binary[0] == 1.0:
        return X, binary
    pos = int(np.argmax(binary == 1.0))
    order = np.arange(binary.shape[0])
    order[0], order[pos] = order[pos], order[0]
    return X[order], binary[order]


class _MulticlassBase(ParamsMixin):
    """Shared constructor/plumbing of the two decompositions."""

    def __init__(
        self,
        kernel: Union[str, int, KernelType] = "linear",
        C: float = 1.0,
        *,
        gamma: Optional[float] = None,
        degree: int = 3,
        coef0: float = 0.0,
        epsilon: float = 1e-3,
        implicit: Optional[bool] = None,
        precondition: Union[None, str, object] = None,
        precond_rank: Optional[int] = None,
        compute_dtype=None,
        solver_threads: Optional[int] = None,
        tile_cache_mb: Optional[float] = None,
        solver: str = "cg",
        solver_rank: Optional[int] = None,
        solver_seed: Union[None, int, np.random.Generator] = 0,
        polish_iters: int = 0,
        estimator_factory: Optional[Callable[[], object]] = None,
        memory_budget_mb: Optional[float] = None,
        shard_rows: Optional[int] = None,
        config: Optional[SolverConfig] = None,
        resources: Optional[ResourceConfig] = None,
    ) -> None:
        self.kernel = kernel
        self.C = C
        self.gamma = gamma
        self.degree = degree
        self.coef0 = coef0
        self.epsilon = epsilon
        self.implicit = implicit
        self.precondition = precondition
        self.precond_rank = precond_rank
        self.compute_dtype = compute_dtype
        self.solver_threads = solver_threads
        self.tile_cache_mb = tile_cache_mb
        self.solver = solver
        self.solver_rank = solver_rank
        self.solver_seed = solver_seed
        self.polish_iters = polish_iters
        self.estimator_factory = estimator_factory
        self.memory_budget_mb = memory_budget_mb
        self.shard_rows = shard_rows
        self.config = config
        self.resources = resources
        warn_deprecated_flat_kwargs(
            self, (SolverConfig, config), (ResourceConfig, resources)
        )
        self._sync_params()
        self.classes_: Optional[np.ndarray] = None

    def _sync_params(self) -> None:
        # The grouped configs are authoritative over the flat attributes;
        # any parameter change also invalidates the stacked-coefficient
        # prediction cache and an in-flight incremental continuation.
        apply_config(
            self, getattr(self, "config", None), supported=_MC_SOLVER_FIELDS
        )
        apply_config(
            self, getattr(self, "resources", None), supported=_MC_RESOURCE_FIELDS
        )
        self.param = Parameter(
            kernel=self.kernel,
            cost=self.C,
            gamma=self.gamma,
            degree=self.degree,
            coef0=self.coef0,
            epsilon=self.epsilon,
        )
        _check_options(self)
        self._predict_state = None
        self._engine = None

    def _make_estimator(self):
        """One fresh binary machine, resolved at fit time.

        Resolving here (instead of capturing the hyper-parameters in a
        closure at construction) keeps :meth:`set_params` effective: the
        machines always see the estimator's *current* parameters.
        """
        if self.estimator_factory is not None:
            return self.estimator_factory()
        # Grouped-config form: keeps the machines' construction silent
        # under the flat-keyword deprecation.
        return LSSVC(
            kernel=self.kernel,
            C=self.C,
            gamma=self.gamma,
            degree=self.degree,
            coef0=self.coef0,
            epsilon=self.epsilon,
            implicit=self.implicit,
            config=SolverConfig(
                solver=self.solver,
                solver_rank=self.solver_rank,
                solver_seed=self.solver_seed,
                polish_iters=self.polish_iters,
                precondition=self.precondition,
                precond_rank=self.precond_rank,
            ),
            resources=ResourceConfig(
                solver_threads=self.solver_threads,
                tile_cache_mb=self.tile_cache_mb,
                compute_dtype=self.compute_dtype,
                memory_budget_mb=self.memory_budget_mb,
                shard_rows=self.shard_rows,
            ),
        )

    def _require_fitted(self) -> None:
        if self.classes_ is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted yet")

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy over the (multi-class) labels."""
        y = np.asarray(y).ravel()
        pred = self.predict(X)
        if pred.shape[0] != y.shape[0]:
            raise DataError("label vector length does not match data")
        return float(np.mean(pred == y))


class OneVsAllLSSVC(_MulticlassBase):
    """One-vs-all (one-vs-rest) multi-class LS-SVM.

    Trains ``K`` binary machines; machine ``k`` separates class ``k``
    (+1) from all other classes (-1). Ties resolve to the machine with the
    largest decision value — the LS-SVM's decision values are calibrated
    against the +/-1 targets, making argmax meaningful.

    All ``K`` machines share the same training points, so their reduced
    systems share the same ``Q_tilde`` — only the right-hand sides differ
    (``y`` re-signed per class). With the default machines the fit is
    therefore **one** LS-SVM solve of the ``(m, K)`` target block: one
    operator, one block-CG run, one kernel-tile sweep per iteration for
    the whole ensemble. A custom ``estimator_factory`` fits one machine
    per class instead.
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
        implicit: Optional[bool] = None,
        precondition: Union[None, str, object] = None,
        precond_rank: Optional[int] = None,
        compute_dtype=None,
        solver_threads: Optional[int] = None,
        tile_cache_mb: Optional[float] = None,
        solver: str = "cg",
        solver_rank: Optional[int] = None,
        solver_seed: Union[None, int, np.random.Generator] = 0,
        polish_iters: int = 0,
        estimator_factory: Optional[Callable[[], object]] = None,
        memory_budget_mb: Optional[float] = None,
        shard_rows: Optional[int] = None,
        config: Optional[SolverConfig] = None,
        resources: Optional[ResourceConfig] = None,
        warm_start: bool = False,
    ) -> None:
        # The signature is spelled out (no *args/**kwargs passthrough) so
        # the ParamsMixin introspection sees every parameter.
        super().__init__(
            kernel,
            C,
            gamma=gamma,
            degree=degree,
            coef0=coef0,
            epsilon=epsilon,
            implicit=implicit,
            precondition=precondition,
            precond_rank=precond_rank,
            compute_dtype=compute_dtype,
            solver_threads=solver_threads,
            tile_cache_mb=tile_cache_mb,
            solver=solver,
            solver_rank=solver_rank,
            solver_seed=solver_seed,
            polish_iters=polish_iters,
            estimator_factory=estimator_factory,
            memory_budget_mb=memory_budget_mb,
            shard_rows=shard_rows,
            config=config,
            resources=resources,
        )
        self.warm_start = bool(warm_start)
        self.report_: Optional[TrainingReport] = None
        self.timings_ = ComponentTimer()
        self._solution: Optional[_Solution] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "OneVsAllLSSVC":
        from ..io.chunked import is_row_source  # deferred: io imports core

        y = np.asarray(y).ravel()
        classes = _unique_labels(y)
        solution = None
        if self.estimator_factory is None:
            solution = _solve_lssvm(
                X,
                _one_vs_rest(y, classes),
                self.param,
                *_configs(self),
                estimator="OneVsAllLSSVC",
                implicit=self.implicit,
                warm_from=self._solution if self.warm_start else None,
            )
            machines = self._attach(solution, [self._make_estimator() for _ in classes])
        elif is_row_source(X):
            raise InvalidParameterError(
                "chunked/row-source training data requires the shared block "
                "solve of the default estimator factory"
            )
        else:
            X = np.asarray(X)
            machines = []
            for label in classes:
                binary = np.where(y == label, 1.0, -1.0)
                X_ord, binary_ord = _positive_first(X, binary)
                clf = self._make_estimator()
                clf.fit(X_ord, binary_ord)
                machines.append(clf)
        self.classes_, self.machines_ = classes, machines
        self._engine = None
        self._predict_state = None
        self._adopt(solution)
        return self

    def _adopt(self, solution: Optional[_Solution]) -> None:
        self._solution = solution
        self.report_ = None if solution is None else solution.report
        self.timings_ = ComponentTimer() if solution is None else solution.timings

    @staticmethod
    def _attach(solution: _Solution, machines: List[object]) -> List[object]:
        """Point machine ``j`` at column ``j`` of the block solve."""
        for j, clf in enumerate(machines):
            clf.model_ = _model_from(
                solution, (1.0, -1.0), j, into=getattr(clf, "model_", None)
            )
            clf.result_ = solution.result.column(j)
        return machines

    def partial_fit(self, X: np.ndarray, y: np.ndarray) -> "OneVsAllLSSVC":
        """Extend the shared training set by a chunk and refit all machines.

        One warm-started block-CG solve updates the whole ensemble: the
        accumulated kernel matrix grows by the new rows only, and every
        machine's previous multiplier column seeds the block initial
        guess. The first call must contain every class (it fixes
        ``classes_``); later chunks may contain any subset. A zero-row
        chunk is a bit-exact no-op, and a rejected chunk leaves the
        estimator as it was. Continuing after a regular :meth:`fit` reuses
        that fit's solution (one kernel bootstrap on the first chunk).

        Machines' models are mutated in place with their caches
        invalidated, so live serving handles observe the refreshed
        ensemble. Requires the default machines with ``solver="cg"`` and
        no row sharding.
        """
        if self.estimator_factory is not None or (
            self._solution is None and self.classes_ is not None
        ):
            raise InvalidParameterError(
                "partial_fit requires the shared block solve of the default "
                "estimator factory (start from a fresh estimator)"
            )
        step = _append_lssvm(
            self._engine,
            self._solution,
            X,
            y,
            self._encode_chunk,
            self.param,
            *_configs(self),
            estimator="OneVsAllLSSVC",
            implicit=self.implicit,
        )
        if step is None:
            return self
        self._engine, solution, classes = step
        machines = self.machines_ if self.classes_ is not None else [
            self._make_estimator() for _ in classes
        ]
        self.classes_, self.machines_ = classes, self._attach(solution, machines)
        # Drop the stacked-coefficient prediction cache: the support set
        # object changed, the next decision_matrix rebuilds it.
        self._predict_state = None
        self._adopt(solution)
        return self

    def _encode_chunk(self, y) -> Tuple[np.ndarray, np.ndarray]:
        """One-vs-rest targets of a chunk; the first chunk fixes the classes."""
        y = np.asarray(y).ravel()
        classes = _unique_labels(y) if self.classes_ is None else self.classes_
        unknown = ~np.isin(y, classes)
        if unknown.any():
            raise DataError(
                f"chunk contains labels outside classes_ "
                f"({np.unique(y[unknown])})"
            )
        return _one_vs_rest(y, classes), classes

    def _shared_predict_state(self):
        """Stacked coefficients when every machine shares one support set.

        The shared block solve gives all K machines the *same* support
        vector array (one object); their decision values then differ only
        by alpha column and bias, so the whole ensemble's decision matrix
        is one cross-kernel sweep ``K(X, SV) @ A + b`` — the serving-side
        twin of the training-side "one assembly, one block solve"
        optimization — instead of K independent kernel evaluations.
        Returns ``None`` when the machines do not share a support set
        (custom factory / legacy per-class fits with reordered rows).
        """
        models = [getattr(m, "model_", None) for m in self.machines_]
        if not models or any(mod is None for mod in models):
            return None
        if all(isinstance(mod, FeatureMapModel) for mod in models):
            # Compact ensemble from the shared rff fit: every machine
            # shares one feature map object, so the decision matrix is a
            # single z(X) @ W + b — one transform for all K classes.
            key = models[0].omega
            if any(mod.omega is not key for mod in models[1:]):
                return None
            cached = getattr(self, "_predict_state", None)
            if cached is not None and cached[0] is key and len(cached[2]) == len(models):
                return cached
            param = models[0].param
            W = np.column_stack([mod.weights for mod in models])
            biases = np.asarray([mod.bias for mod in models], dtype=param.dtype)
            state = (key, param, biases, None, W, None, models[0].transform)
            self._predict_state = state
            return state
        if any(isinstance(mod, FeatureMapModel) for mod in models):
            return None
        sv = models[0].support_vectors
        if any(mod.support_vectors is not sv for mod in models[1:]):
            return None
        cached = getattr(self, "_predict_state", None)
        if cached is not None and cached[0] is sv and len(cached[2]) == len(models):
            return cached
        param = models[0].param
        A = np.column_stack([mod.alpha for mod in models])
        biases = np.asarray([mod.bias for mod in models], dtype=param.dtype)
        if param.kernel is KernelType.LINEAR:
            pipeline = None
            W = np.column_stack([mod.weight_vector() for mod in models])
        else:
            from .tile_pipeline import TilePipeline

            W = None
            pipeline = TilePipeline(
                sv,
                param.kernel,
                gamma=param.gamma,
                degree=param.degree,
                coef0=param.coef0,
                num_threads=self.solver_threads,
                cache_mb=0.0,
                dtype=param.dtype,
                compute_dtype=self.compute_dtype,
            )
        state = (sv, param, biases, A, W, pipeline, None)
        self._predict_state = state
        return state

    def decision_matrix(self, X: np.ndarray) -> np.ndarray:
        """Per-class decision values, shape ``(len(X), num_classes)``.

        When the machines share one support set (the default shared-solve
        fit), all K columns come from a single warm tile-pipeline sweep;
        otherwise each machine evaluates independently.
        """
        self._require_fitted()
        state = self._shared_predict_state()
        if state is not None:
            _, param, biases, A, W, pipeline, transform = state
            Xd = np.asarray(X, dtype=param.dtype)
            if Xd.ndim == 1:
                Xd = Xd[None, :]
            if W is not None:
                Z = Xd if transform is None else transform(Xd)
                return Z @ W + biases
            return pipeline.cross_sweep(Xd, A) + biases
        columns = [np.atleast_1d(m.decision_function(X)) for m in self.machines_]
        return np.column_stack(columns)

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = self.decision_matrix(X)
        return self.classes_[np.argmax(scores, axis=1)]


class OneVsOneLSSVC(_MulticlassBase):
    """One-vs-one multi-class LS-SVM (LIBSVM's decomposition).

    Trains ``K (K-1) / 2`` pairwise machines on the two classes' points
    only. Prediction is by vote; ties break on the summed decision values
    in favour of the class the tied machines are more confident about.
    """

    def fit(self, X: np.ndarray, y: np.ndarray) -> "OneVsOneLSSVC":
        from ..io.chunked import is_row_source  # deferred: io imports core

        # Row sources are supported by gathering each pair's (smaller)
        # subset — pairwise machines need reordered dense subsets anyway.
        source = X if is_row_source(X) else None
        if source is None:
            X = np.asarray(X)
        y = np.asarray(y).ravel()
        self.classes_ = _unique_labels(y)
        self.pairs_: List[Tuple[float, float]] = []
        self.machines_ = []
        for a, b in itertools.combinations(self.classes_, 2):
            mask = (y == a) | (y == b)
            if np.all(y[mask] == y[mask][0]):
                raise DataError(f"classes {a} and {b} are not both present")
            binary = np.where(y[mask] == a, 1.0, -1.0)
            X_pair = (
                source.gather_rows(np.nonzero(mask)[0])
                if source is not None
                else X[mask]
            )
            X_ord, binary_ord = _positive_first(X_pair, binary)
            clf = self._make_estimator()
            clf.fit(X_ord, binary_ord)
            self.pairs_.append((float(a), float(b)))
            self.machines_.append(clf)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        X = np.asarray(X)
        n = X.shape[0] if X.ndim == 2 else 1
        class_index: Dict[float, int] = {
            float(c): i for i, c in enumerate(self.classes_)
        }
        votes = np.zeros((n, len(self.classes_)), dtype=np.int64)
        confidence = np.zeros((n, len(self.classes_)), dtype=np.float64)
        for (a, b), clf in zip(self.pairs_, self.machines_):
            f = np.atleast_1d(clf.decision_function(X))
            ia, ib = class_index[a], class_index[b]
            a_wins = f >= 0
            votes[a_wins, ia] += 1
            votes[~a_wins, ib] += 1
            confidence[:, ia] += f
            confidence[:, ib] -= f
        # Majority vote; break ties by accumulated confidence.
        best = np.zeros(n, dtype=np.int64)
        for i in range(n):
            top = votes[i].max()
            tied = np.nonzero(votes[i] == top)[0]
            best[i] = tied[np.argmax(confidence[i, tied])]
        return self.classes_[best]

    @property
    def num_machines(self) -> int:
        self._require_fitted()
        return len(self.machines_)
