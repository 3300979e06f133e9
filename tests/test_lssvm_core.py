"""Tests for the one LS-SVM core behind every estimator.

``LSSVC``, ``LSSVR``, ``OneVsAllLSSVC`` and ``WeightedLSSVC`` train
through ``repro.core.lssvm``'s target-block solve and its append twin.
These tests pin what that sharing promises:

* the trace points the benchmark's tracer patches stay where it looks;
* a rejected ``partial_fit`` chunk leaves the stream untouched, for every
  estimator;
* a fitted estimator keeps no operator (and so no tile cache);
* behaviour that the per-estimator copies used to differ in is uniform:
  telemetry phases, option checks, warm starts;
* the estimators agree with each other on the same system.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import repro.core.lssvm as lssvm
from repro.core.lssvm import LSSVC
from repro.core.multiclass import OneVsAllLSSVC
from repro.core.qmatrix import QMatrixBase
from repro.core.regression import LSSVR
from repro.core.weighted import WeightedLSSVC
from repro.data.synthetic import make_multiclass, make_planes
from repro.exceptions import DataError, InvalidParameterError
from repro.parameter import SolverConfig


class TestTracePoints:
    def test_binary_fit_calls_each_traced_global_once(self, monkeypatch):
        calls = {}
        for name in ("build_reduced_system", "conjugate_gradient", "recover_bias_and_alpha"):
            original = getattr(lssvm, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(lssvm, name, counted)
        X, y = make_planes(120, 5, rng=1)
        LSSVC(kernel="rbf").fit(X, y)
        assert calls == {
            "build_reduced_system": 1,
            "conjugate_gradient": 1,
            "recover_bias_and_alpha": 1,
        }
        assert "fit" in LSSVC.__dict__


def _stream_data(kind):
    if kind == "LSSVR":
        rng = np.random.default_rng(4)
        X = rng.normal(size=(150, 4))
        return X, np.sin(X[:, 0]) + 0.1 * rng.normal(size=150)
    if kind == "OneVsAllLSSVC":
        return make_multiclass(150, 4, num_classes=3, rng=4)
    return make_planes(150, 4, rng=4)


def _make(kind):
    cls = {"LSSVC": LSSVC, "LSSVR": LSSVR, "OneVsAllLSSVC": OneVsAllLSSVC}[kind]
    return cls(kernel="rbf", C=10.0, gamma=0.3, epsilon=1e-8)


def _coefficients(est):
    if isinstance(est, LSSVR):
        return est.alpha_, np.asarray(est.bias_)
    if isinstance(est, OneVsAllLSSVC):
        models = [m.model_ for m in est.machines_]
        return (
            np.column_stack([m.alpha for m in models]),
            np.asarray([m.bias for m in models]),
        )
    return est.model_.alpha, np.asarray(est.model_.bias)


class TestRejectedChunk:
    @pytest.mark.parametrize(
        "where, bad", [("X", np.nan), ("X", np.inf), ("y", np.nan)]
    )
    @pytest.mark.parametrize("kind", ["LSSVC", "LSSVR", "OneVsAllLSSVC"])
    def test_stream_continues_bit_identically(self, kind, where, bad):
        X, y = _stream_data(kind)
        chunks = [(X[a:b], y[a:b]) for a, b in ((0, 60), (60, 100), (100, 150))]
        clean = _make(kind)
        for Xc, yc in chunks:
            clean.partial_fit(Xc, yc)

        est = _make(kind)
        est.partial_fit(*chunks[0])
        est.partial_fit(*chunks[1])
        Xb, yb = chunks[2][0][:20].copy(), chunks[2][1][:20].copy()
        if where == "X":
            Xb[3, 1] = bad
        else:
            yb[3] = bad
        with pytest.raises(DataError):
            est.partial_fit(Xb, yb)
        est.partial_fit(*chunks[2])

        alpha, bias = _coefficients(est)
        alpha_ref, bias_ref = _coefficients(clean)
        assert np.array_equal(alpha, alpha_ref)
        assert np.array_equal(bias, bias_ref)
        # The maintained Cholesky factor is intact: the refit is direct.
        assert est.report_.solver["warm_start_iterations"] == 0

    def test_rejected_first_chunk_leaves_one_vs_all_unfitted(self):
        X, y = _stream_data("OneVsAllLSSVC")
        Xb = X[:60].copy()
        Xb[0, 0] = np.nan
        est = _make("OneVsAllLSSVC")
        with pytest.raises(DataError):
            est.partial_fit(Xb, y[:60])
        assert est.classes_ is None
        est.partial_fit(X[:60], y[:60])
        ref = _make("OneVsAllLSSVC").partial_fit(X[:60], y[:60])
        assert np.array_equal(_coefficients(est)[0], _coefficients(ref)[0])


class TestNoOperatorKept:
    @pytest.mark.parametrize("implicit", [False, True])
    @pytest.mark.parametrize(
        "make",
        [
            lambda implicit: LSSVC(kernel="rbf", C=10.0, implicit=implicit),
            lambda implicit: LSSVR(kernel="rbf", C=10.0, implicit=implicit),
            lambda implicit: OneVsAllLSSVC(kernel="rbf", C=10.0, implicit=implicit),
            lambda implicit: WeightedLSSVC(kernel="rbf", C=10.0, implicit=implicit),
        ],
        ids=["LSSVC", "LSSVR", "OneVsAllLSSVC", "WeightedLSSVC"],
    )
    def test_fit_operator_is_collectable(self, monkeypatch, make, implicit):
        operators = []
        original = QMatrixBase._finish_init

        def spy(self, *args, **kwargs):
            operators.append(weakref.ref(self))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(QMatrixBase, "_finish_init", spy)
        X, y = make_multiclass(90, 4, num_classes=3, rng=2)
        y = y if isinstance(make(implicit), OneVsAllLSSVC) else np.where(y > 0, 1.0, -1.0)
        est = make(implicit).fit(X, y)
        gc.collect()
        assert operators
        assert all(ref() is None for ref in operators)
        assert est.predict(X[:3]).shape == (3,)


class TestUniformBehaviour:
    def test_one_vs_all_reports_phases(self):
        X, y = make_multiclass(120, 4, num_classes=3, rng=5)
        binary = LSSVC(kernel="rbf", C=10.0).fit(X, np.where(y > 0, 1.0, -1.0))
        est = OneVsAllLSSVC(kernel="rbf", C=10.0).fit(X, y)
        assert set(est.report_.phases) == set(binary.report_.phases)
        assert est.report_.wall_seconds == est.report_.phases["total"] > 0
        assert est.timings_.as_dict() == est.report_.phases
        est.partial_fit(X[:10], y[:10])
        binary.partial_fit(X[:10], np.where(y[:10] > 0, 1.0, -1.0))
        assert set(est.report_.phases) == set(binary.report_.phases)
        assert "refit" in est.report_.phases
        assert est.report_.wall_seconds == est.report_.phases["total"] > 0

    def test_one_vs_all_checks_solver_options_up_front(self):
        with pytest.raises(InvalidParameterError, match="polish_iters"):
            OneVsAllLSSVC(config=SolverConfig(polish_iters=2))
        est = OneVsAllLSSVC()
        with pytest.raises(InvalidParameterError, match="polish_iters"):
            est.set_params(polish_iters=2)
        with pytest.raises(InvalidParameterError, match="rff"):
            OneVsAllLSSVC(kernel="linear", config=SolverConfig(solver="rff"))

    def test_warm_start_only_from_reduced_system_solution(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 4))
        y = np.sin(X[:, 0])
        reg = LSSVR(
            kernel="rbf",
            C=100.0,
            gamma=0.5,
            config=SolverConfig(solver="rff", solver_rank=32),
            warm_start=True,
        ).fit(X, y)
        reg.set_params(config=SolverConfig(solver="cg"))
        reg.fit(X, y)
        cold = LSSVR(kernel="rbf", C=100.0, gamma=0.5).fit(X, y)
        assert reg.report_.solver["warm_start_iterations"] == 0
        assert reg.iterations_ == cold.iterations_
        np.testing.assert_array_equal(reg.alpha_, cold.alpha_)


class TestCrossEstimator:
    def test_regression_on_labels_equals_classification(self):
        X, y = make_planes(160, 5, rng=6)
        y = y * np.sign(y[0])  # the first label is the +1 class
        clf = LSSVC(kernel="rbf", C=10.0, gamma=0.3, epsilon=1e-3).fit(X, y)
        reg = LSSVR(kernel="rbf", C=10.0, gamma=0.3, epsilon=1e-3).fit(X, y)
        np.testing.assert_array_equal(reg.alpha_, clf.model_.alpha)
        assert reg.bias_ == clf.model_.bias

    def test_one_vs_all_machine_equals_regression_on_its_column(self):
        X, y = make_multiclass(150, 4, num_classes=3, rng=7)
        est = OneVsAllLSSVC(kernel="rbf", C=10.0, gamma=0.3, epsilon=1e-10).fit(X, y)
        for j, label in enumerate(est.classes_):
            reg = LSSVR(kernel="rbf", C=10.0, gamma=0.3, epsilon=1e-10).fit(
                X, np.where(y == label, 1.0, -1.0)
            )
            model = est.machines_[j].model_
            np.testing.assert_allclose(model.alpha, reg.alpha_, atol=1e-6)
            assert model.bias == pytest.approx(reg.bias_, abs=1e-6)
