"""One prediction path, checked against dense references.

Every estimator predicts through :class:`repro.serve.PredictionEngine`:
``K(X, SV) @ A + b`` over a support set, ``z(X) @ W + b`` for a compact
(rff) model and ``X @ w + b`` for the linear kernel, with ``A`` an
m-vector or an m x k block. The matrix below crosses estimator x kernel
x input shape and checks every prediction against a dense
``kernel_matrix`` / z(x) reference computed here; binary models must
also match a bare engine and a registry engine bit for bit. The work
gates pin what the one path costs: one cross sweep for all one-vs-all
classes, one pipeline for repeated regression predictions.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

import repro.serve.engine as engine_module
from repro.core.kernels import kernel_matrix
from repro.core.lssvm import LSSVC
from repro.core.model import FeatureMapModel
from repro.core.multiclass import OneVsAllLSSVC, OneVsOneLSSVC
from repro.core.regression import LSSVR
from repro.core.tile_pipeline import TilePipeline
from repro.core.weighted import WeightedLSSVC
from repro.data.synthetic import make_multiclass, make_planes
from repro.parameter import SolverConfig
from repro.serve import ModelRegistry, PredictionEngine
from repro.telemetry import root_context

TOL = 1e-10

KERNELS = {
    "linear": dict(kernel="linear"),
    "polynomial": dict(kernel="polynomial", gamma=0.2, degree=2, coef0=1.0),
    "rbf": dict(kernel="rbf", gamma=0.3),
    "rff": dict(
        kernel="rbf",
        gamma=0.3,
        config=SolverConfig(solver="rff", solver_rank=48, solver_seed=1),
    ),
}

ESTIMATORS = ("LSSVC", "WeightedLSSVC", "LSSVR", "ova", "ova_factory", "ovo")

#: WeightedLSSVC has no randomized solver, so it has no rff case.
CASES = [
    (est, kernel)
    for est in ESTIMATORS
    for kernel in KERNELS
    if not (est == "WeightedLSSVC" and kernel == "rff")
]

INPUTS = ("row", "one_row", "block37")


@functools.lru_cache(maxsize=None)
def _data(multiclass: bool):
    if multiclass:
        X, y = make_multiclass(160, 5, num_classes=4, rng=2)
        Q = make_multiclass(40, 5, num_classes=4, rng=8)[0]
    else:
        X, y = make_planes(150, 5, rng=3)
        Q = make_planes(40, 5, rng=9)[0]
    return X, y, Q


def _query(Q, shape):
    return {"row": Q[5], "one_row": Q[5:6], "block37": Q[:37]}[shape]


@functools.lru_cache(maxsize=None)
def _fitted(est: str, kernel: str):
    kw = KERNELS[kernel]
    multiclass = est in ("ova", "ova_factory", "ovo")
    X, y, _ = _data(multiclass)
    if est == "LSSVC":
        return LSSVC(C=5.0, **kw).fit(X, y)
    if est == "WeightedLSSVC":
        return WeightedLSSVC(C=5.0, **kw).fit(X, y)
    if est == "LSSVR":
        return LSSVR(C=5.0, **kw).fit(X, np.sin(X[:, 0]) + 0.1 * X[:, 1])
    if est == "ova":
        return OneVsAllLSSVC(C=3.0, **kw).fit(X, y)
    if est == "ova_factory":
        return OneVsAllLSSVC(C=3.0, estimator_factory=lambda: LSSVC(C=3.0, **kw)).fit(X, y)
    return OneVsOneLSSVC(C=3.0, **kw).fit(X, y)


def _dense(Q, param, coef, bias, *, points=None, fmap=None):
    """``f(Q)`` from a dense kernel matrix, or from z(x) written out here."""
    if fmap is not None:
        Z = np.sqrt(2.0 / fmap.omega.shape[1]) * np.cos(Q @ fmap.omega + fmap.offsets)
    else:
        Z = kernel_matrix(Q, points, param.kernel, **param.kernel_kwargs())
    return Z @ coef + bias


def _model_reference(model, Q):
    if isinstance(model, FeatureMapModel):
        return _dense(Q, model.param, model.weights, model.bias, fmap=model)
    return _dense(Q, model.param, model.alpha, model.bias, points=model.support_vectors)


def _binary_models(est):
    if isinstance(est, (OneVsAllLSSVC, OneVsOneLSSVC)):
        return [machine.model_ for machine in est.machines_]
    if isinstance(est, LSSVR):
        return []
    return [est.model_]


def _votes_reference(est, Q):
    """One-vs-one labels by the vote rule, from the machines' dense values."""
    index = {float(c): i for i, c in enumerate(est.classes_)}
    votes = np.zeros((len(Q), len(est.classes_)))
    confidence = np.zeros_like(votes)
    for (a, b), machine in zip(est.pairs_, est.machines_):
        f = _model_reference(machine.model_, Q)
        votes[f >= 0, index[a]] += 1
        votes[f < 0, index[b]] += 1
        confidence[:, index[a]] += f
        confidence[:, index[b]] -= f
    best = []
    for v, c in zip(votes, confidence):
        tied = np.flatnonzero(v == v.max())
        best.append(tied[np.argmax(c[tied])])
    return est.classes_[np.asarray(best)]


@pytest.mark.parametrize("shape", INPUTS)
@pytest.mark.parametrize("est_name, kernel", CASES)
def test_prediction_matches_dense_reference(est_name, kernel, shape):
    est = _fitted(est_name, kernel)
    q = _query(_data(est_name in ("ova", "ova_factory", "ovo"))[2], shape)
    Q2 = np.atleast_2d(q)
    if est_name == "LSSVR":
        sol = est._solution
        values = est.predict(q)
        ref = _dense(Q2, sol.param, sol.alpha, sol.bias, points=sol.points, fmap=sol.fmap)
    elif est_name in ("ova", "ova_factory"):
        values = est.decision_matrix(q)
        ref = np.column_stack([_model_reference(m.model_, Q2) for m in est.machines_])
        assert values.shape == (len(Q2), 4)
        assert np.array_equal(est.predict(q), est.classes_[np.argmax(values, axis=1)])
    elif est_name == "ovo":
        assert np.array_equal(est.predict(q), _votes_reference(est, Q2))
        values = np.column_stack(
            [np.atleast_1d(m.decision_function(q)) for m in est.machines_]
        )
        ref = np.column_stack([_model_reference(m.model_, Q2) for m in est.machines_])
    else:
        values = est.decision_function(q)
        ref = _model_reference(est.model_, Q2)
        assert np.array_equal(
            np.atleast_1d(est.predict(q)),
            np.where(ref >= 0.0, *est.model_.labels),
        )
    if shape == "row" and est_name in ("LSSVC", "WeightedLSSVC", "LSSVR"):
        assert np.ndim(values) == 0
        values = np.atleast_1d(values)
    np.testing.assert_allclose(values, ref, rtol=TOL, atol=TOL)


@pytest.mark.parametrize("shape", INPUTS)
@pytest.mark.parametrize("est_name, kernel", CASES)
def test_binary_models_match_engine_and_registry_bitwise(est_name, kernel, shape):
    est = _fitted(est_name, kernel)
    Q2 = np.atleast_2d(_query(_data(est_name in ("ova", "ova_factory", "ovo"))[2], shape))
    for model in _binary_models(est):
        offline = np.atleast_1d(model.decision_function(Q2))
        assert np.array_equal(offline, PredictionEngine(model).decision_function(Q2))
        registry = ModelRegistry()
        registry.register("m", model)
        try:
            served = registry.get("m").decision_function(Q2)
        finally:
            registry.unregister("m")
        assert np.array_equal(offline, served)


def test_compact_model_keeps_its_dtype():
    X, y, Q = _data(False)
    config = SolverConfig(solver="rff", solver_rank=32, solver_seed=1)
    clf = LSSVC(kernel="rbf", C=5.0, gamma=0.3, dtype=np.float32, config=config).fit(X, y)
    assert isinstance(clf.model_, FeatureMapModel)
    assert clf.decision_function(Q).dtype == np.float32
    ref = _model_reference(clf.model_, Q.astype(np.float64))
    np.testing.assert_allclose(clf.decision_function(Q), ref, rtol=1e-4, atol=1e-4)


class TestWorkGates:
    def test_one_vs_all_decision_matrix_is_one_sweep(self):
        X, y, Q = _data(True)
        est = OneVsAllLSSVC(kernel="rbf", C=3.0, gamma=0.3).fit(X, y)
        assert len(est.classes_) == 4
        root = root_context().metrics
        before = root.value("tile_sweeps")
        est.decision_matrix(Q)
        assert root.value("tile_sweeps") - before == 1

    def test_two_regression_predictions_build_one_pipeline(self, monkeypatch):
        built = []

        class Counting(TilePipeline):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        X, _, Q = _data(False)
        reg = LSSVR(kernel="rbf", C=5.0, gamma=0.3).fit(X, np.sin(X[:, 0]))
        monkeypatch.setattr(engine_module, "TilePipeline", Counting)
        first = reg.predict(Q)
        second = reg.predict(Q)
        assert len(built) == 1
        assert np.array_equal(first, second)

    def test_refit_replaces_the_engine(self):
        X, y, Q = _data(True)
        est = OneVsAllLSSVC(kernel="rbf", C=3.0, gamma=0.3, epsilon=1e-10)
        est.partial_fit(X[:100], y[:100])
        est.decision_matrix(Q)
        est.partial_fit(X[100:], y[100:])
        batch = OneVsAllLSSVC(kernel="rbf", C=3.0, gamma=0.3, epsilon=1e-10).fit(X, y)
        np.testing.assert_allclose(est.decision_matrix(Q), batch.decision_matrix(Q), atol=1e-6)


class _FixedMachine:
    """A one-vs-one machine stub with given decision values."""

    def __init__(self, f):
        self.f = f

    def decision_function(self, X):
        return self.f[: len(np.atleast_2d(X))]


class TestOneVsOneTies:
    def test_forced_vote_ties_break_on_confidence(self):
        X, y, Q = _data(True)
        est = OneVsOneLSSVC(kernel="linear").fit(X, y)
        assert np.array_equal(est.classes_, [0.0, 1.0, 2.0, 3.0])
        margin = np.linspace(0.1, 0.9, len(Q))
        half = np.full(len(Q), 0.5)
        # 0 beats 1, 1 beats 2, 2 beats 0, and each beats 3: classes 0, 1
        # and 2 tie at two votes on every row. Their summed confidences
        # are 1 - margin, 0.5 and margin, so class 0 wins the tie below
        # margin 0.5 and class 2 above it.
        decisions = {(0, 1): half, (1, 2): half, (0, 2): -margin}
        est.machines_ = [
            _FixedMachine(decisions.get((int(a), int(b)), half)) for a, b in est.pairs_
        ]
        expected = np.where(margin < 0.5, 0.0, 2.0)
        assert np.array_equal(est.predict(Q), expected)
