"""Tests for the LSSVC estimator."""

import numpy as np
import pytest

from repro.core.lssvm import LSSVC, decode_labels, encode_labels
from repro.data.synthetic import make_planes
from repro.exceptions import DataError, NotFittedError
from repro.types import SolverStatus


class TestLabelEncoding:
    def test_plus_minus_one_kept(self):
        y = np.array([1.0, -1.0, 1.0])
        enc, labels = encode_labels(y)
        assert labels == (1.0, -1.0)
        assert np.allclose(enc, y)

    def test_first_seen_label_becomes_positive(self):
        y = np.array([5.0, 7.0, 5.0, 7.0])
        enc, labels = encode_labels(y)
        assert labels == (5.0, 7.0)
        assert np.allclose(enc, [1.0, -1.0, 1.0, -1.0])

    def test_zero_one_labels(self):
        enc, labels = encode_labels(np.array([0.0, 1.0, 0.0]))
        assert labels == (0.0, 1.0)
        assert np.allclose(enc, [1.0, -1.0, 1.0])

    def test_decode_roundtrip(self):
        y = np.array([3.0, 9.0, 3.0, 9.0, 9.0])
        enc, labels = encode_labels(y)
        assert np.allclose(decode_labels(enc, labels), y)

    def test_single_class_raises(self):
        with pytest.raises(DataError):
            encode_labels(np.ones(5))

    def test_three_classes_raises(self):
        with pytest.raises(DataError):
            encode_labels(np.array([1.0, 2.0, 3.0]))

    def test_empty_raises(self):
        with pytest.raises(DataError):
            encode_labels(np.array([]))


class TestNonFiniteLabels:
    """Labels fail fast: a NaN or inf label is never a class."""

    @pytest.fixture
    def data(self):
        X = np.random.default_rng(0).standard_normal((8, 3))
        return X, np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])

    def test_first_seen_order_is_kept(self):
        _, labels = encode_labels(np.array([7.0, 5.0, 7.0, 5.0]))
        assert labels == (7.0, 5.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_encode_labels_rejects(self, bad):
        with pytest.raises(DataError, match="NaN or infinite"):
            encode_labels(np.array([1.0, 1.0, 1.0, bad, 1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_estimators_reject(self, data, bad):
        from repro.core.multiclass import OneVsAllLSSVC
        from repro.core.weighted import WeightedLSSVC

        X, y = data
        y[3] = bad
        with pytest.raises(DataError, match="NaN or infinite"):
            LSSVC(kernel="linear").fit(X, y)
        with pytest.raises(DataError, match="NaN or infinite"):
            LSSVC(kernel="linear").partial_fit(X, y)
        with pytest.raises(DataError, match="NaN or infinite"):
            WeightedLSSVC(kernel="linear").fit(X, y)
        with pytest.raises(DataError, match="NaN or infinite"):
            OneVsAllLSSVC(kernel="linear").fit(X, y)


class TestFitPredict:
    def test_separable_problem_reaches_high_accuracy(self):
        X, y = make_planes(256, 16, class_sep=2.5, flip_fraction=0.0, rng=0)
        clf = LSSVC(kernel="linear", C=1.0).fit(X, y)
        assert clf.score(X, y) >= 0.98

    def test_predict_returns_original_labels(self):
        X, y = make_planes(128, 8, rng=1)
        y_named = np.where(y > 0, 4.0, 9.0)
        clf = LSSVC(kernel="linear").fit(X, y_named)
        preds = clf.predict(X)
        assert set(np.unique(preds)) <= {4.0, 9.0}

    def test_decision_function_sign_matches_predict(self, planes_small):
        X, y = planes_small
        clf = LSSVC(kernel="rbf", C=10.0).fit(X, y)
        f = clf.decision_function(X)
        preds = clf.predict(X)
        positive_label = clf.model_.labels[0]
        assert np.all((f >= 0) == (preds == positive_label))

    def test_training_points_nearly_interpolated_with_large_C(self):
        # With C -> inf the LS-SVM interpolates f(x_i) ~ y_i.
        X, y = make_planes(64, 6, class_sep=2.0, flip_fraction=0.0, rng=2)
        clf = LSSVC(kernel="rbf", C=1e6, gamma=0.5, epsilon=1e-10).fit(X, y)
        f = clf.decision_function(X)
        assert np.allclose(f, y, atol=1e-2)

    def test_single_point_prediction(self, planes_small):
        X, y = planes_small
        clf = LSSVC(kernel="linear").fit(X, y)
        single = clf.decision_function(X[0])
        batch = clf.decision_function(X[:1])
        assert np.isscalar(single) or single.ndim == 0
        assert float(single) == pytest.approx(float(batch[0]))

    def test_iterations_property(self, planes_small):
        X, y = planes_small
        clf = LSSVC(kernel="linear").fit(X, y)
        assert clf.iterations_ >= 1
        assert clf.result_.status is SolverStatus.CONVERGED


class TestKernels:
    @pytest.mark.parametrize(
        "kernel,kw",
        [
            ("linear", {"C": 10.0}),
            ("polynomial", {"C": 10.0, "gamma": 0.1, "coef0": 0.1}),
            ("rbf", {"C": 10.0, "gamma": 0.1}),
            # tanh kernels are indefinite; the usual gamma>0/coef0<0 choice
            # keeps the (ridged) system positive definite.
            ("sigmoid", {"C": 1.0, "gamma": 0.01, "coef0": -1.0}),
        ],
    )
    def test_all_kernels_train(self, planes_small, kernel, kw):
        X, y = planes_small
        clf = LSSVC(kernel=kernel, **kw).fit(X, y)
        assert clf.score(X, y) > 0.6

    def test_rbf_beats_linear_on_xor(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(256, 2))
        y = np.where(X[:, 0] * X[:, 1] > 0, 1.0, -1.0)
        linear = LSSVC(kernel="linear", C=10.0).fit(X, y)
        rbf = LSSVC(kernel="rbf", C=10.0, gamma=4.0).fit(X, y)
        assert rbf.score(X, y) > linear.score(X, y) + 0.2


class TestEpsilon:
    def test_smaller_epsilon_more_iterations(self, planes_medium):
        X, y = planes_medium
        loose = LSSVC(kernel="linear", epsilon=1e-2).fit(X, y)
        tight = LSSVC(kernel="linear", epsilon=1e-8).fit(X, y)
        assert tight.iterations_ > loose.iterations_
        assert tight.result_.residual <= 1e-8


class TestPrecision:
    def test_float32_training(self, planes_small):
        X, y = planes_small
        clf = LSSVC(kernel="linear", dtype=np.float32).fit(X, y)
        assert clf.model_.alpha.dtype == np.float32
        assert clf.score(X, y) > 0.8

    def test_float32_and_float64_agree(self, planes_small):
        X, y = planes_small
        f64 = LSSVC(kernel="linear", epsilon=1e-6).fit(X, y)
        f32 = LSSVC(kernel="linear", epsilon=1e-6, dtype=np.float32).fit(X, y)
        agree = np.mean(f64.predict(X) == f32.predict(X))
        assert agree >= 0.98


class TestImplicitExplicit:
    def test_same_model_either_representation(self, planes_small):
        X, y = planes_small
        exp = LSSVC(kernel="linear", implicit=False, epsilon=1e-10).fit(X, y)
        imp = LSSVC(kernel="linear", implicit=True, epsilon=1e-10).fit(X, y)
        assert exp.model_.bias == pytest.approx(imp.model_.bias, abs=1e-6)
        assert np.allclose(exp.model_.alpha, imp.model_.alpha, atol=1e-5)


class TestJacobi:
    def test_jacobi_converges_to_same_solution(self, planes_small):
        X, y = planes_small
        plain = LSSVC(kernel="linear", epsilon=1e-10).fit(X, y)
        jacobi = LSSVC(kernel="linear", epsilon=1e-10, jacobi=True).fit(X, y)
        assert np.allclose(plain.model_.alpha, jacobi.model_.alpha, atol=1e-5)


class TestErrors:
    def test_not_fitted(self):
        clf = LSSVC()
        with pytest.raises(NotFittedError):
            clf.predict(np.ones((2, 2)))
        with pytest.raises(NotFittedError):
            clf.score(np.ones((2, 2)), np.ones(2))
        with pytest.raises(NotFittedError):
            _ = clf.iterations_

    def test_bad_n_devices(self):
        with pytest.raises(DataError):
            LSSVC(n_devices=0)

    def test_timings_populated(self, planes_small):
        X, y = planes_small
        clf = LSSVC(kernel="linear").fit(X, y)
        timings = clf.timings_.as_dict()
        assert timings["total"] > 0
        assert timings["cg"] > 0
        assert timings["cg"] <= timings["total"]
