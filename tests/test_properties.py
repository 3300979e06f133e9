"""Property-based invariants of the full training pipeline.

These go beyond per-module properties: they state facts about the *trained
model* that must hold for any data the generators can produce — the kind of
invariant that catches subtle algebra mistakes (wrong eliminated point,
mis-signed bias, label-order sensitivity) no example-based test would.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LSSVC, LSSVR
from repro.core.qmatrix import ExplicitQMatrix, recover_bias_and_alpha
from repro.data.synthetic import make_planes
from repro.parameter import Parameter

SETTINGS = dict(max_examples=20, deadline=None)


class TestTrainingInvariants:
    @given(n=st.integers(8, 60), d=st.integers(1, 6), seed=st.integers(0, 2000))
    @settings(**SETTINGS)
    def test_alpha_always_sums_to_zero(self, n, d, seed):
        X, y = make_planes(n, d, rng=seed)
        model = LSSVC(kernel="linear", epsilon=1e-8).fit(X, y).model_
        assert model.alpha.sum() == pytest.approx(0.0, abs=1e-6)

    @given(n=st.integers(8, 50), seed=st.integers(0, 2000))
    @settings(**SETTINGS)
    def test_training_residual_matches_ridge(self, n, seed):
        """On training points, f(x_i) = y_i - alpha_i / C (Eq. 11 row i)."""
        X, y = make_planes(n, 3, rng=seed)
        C = 2.0
        clf = LSSVC(kernel="rbf", C=C, gamma=0.5, epsilon=1e-12).fit(X, y)
        model = clf.model_
        y_enc = np.where(y == model.labels[0], 1.0, -1.0)
        f = model.decision_function(X)
        assert np.allclose(f, y_enc - model.alpha / C, atol=1e-6)

    @given(seed=st.integers(0, 2000))
    @settings(**SETTINGS)
    def test_row_permutation_invariance(self, seed):
        """The LS-SVM solution is unique; eliminating a different last
        point (by permuting rows) must not change the decision function."""
        X, y = make_planes(40, 4, rng=seed)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(40)
        a = LSSVC(kernel="linear", epsilon=1e-12).fit(X, y)
        b = LSSVC(kernel="linear", epsilon=1e-12).fit(X[perm], y[perm])
        grid = rng.standard_normal((30, 4))
        # decision_function's sign follows the first-seen label, which the
        # permutation may flip; predictions and |f| are order-independent.
        fa, fb = a.decision_function(grid), b.decision_function(grid)
        confident = np.abs(fa) > 1e-6  # skip points on the boundary itself
        assert np.array_equal(a.predict(grid)[confident], b.predict(grid)[confident])
        assert np.allclose(np.abs(fa), np.abs(fb), atol=1e-6)

    @given(seed=st.integers(0, 2000), shift=st.floats(-5, 5))
    @settings(**SETTINGS)
    def test_rbf_translation_invariance(self, seed, shift):
        """The radial kernel only sees distances: translating every point
        (train and test together) leaves predictions unchanged."""
        X, y = make_planes(40, 3, rng=seed)
        grid = np.random.default_rng(seed).standard_normal((20, 3))
        a = LSSVC(kernel="rbf", C=10.0, gamma=0.3, epsilon=1e-10).fit(X, y)
        b = LSSVC(kernel="rbf", C=10.0, gamma=0.3, epsilon=1e-10).fit(X + shift, y)
        assert np.allclose(
            a.decision_function(grid), b.decision_function(grid + shift), atol=1e-5
        )

    @given(seed=st.integers(0, 2000))
    @settings(**SETTINGS)
    def test_zero_feature_padding_invariance(self, seed):
        """Appending all-zero feature columns must not change the linear
        kernel's decision function (the densified-sparse-data case)."""
        X, y = make_planes(32, 3, rng=seed)
        X_padded = np.hstack([X, np.zeros((32, 2))])
        grid = np.random.default_rng(seed).standard_normal((15, 3))
        grid_padded = np.hstack([grid, np.zeros((15, 2))])
        a = LSSVC(kernel="linear", epsilon=1e-12).fit(X, y)
        b = LSSVC(kernel="linear", epsilon=1e-12).fit(X_padded, y)
        assert np.allclose(
            a.decision_function(grid), b.decision_function(grid_padded), atol=1e-6
        )

    @given(seed=st.integers(0, 2000))
    @settings(**SETTINGS)
    def test_label_swap_flips_predictions(self, seed):
        """Negating every label negates every prediction (the system is
        linear in y; the internal first-seen encoding cancels out in the
        predicted labels)."""
        X, y = make_planes(32, 3, rng=seed)
        grid = np.random.default_rng(seed).standard_normal((10, 3))
        a = LSSVC(kernel="linear", epsilon=1e-12).fit(X, y)
        b = LSSVC(kernel="linear", epsilon=1e-12).fit(X, -y)
        fa, fb = a.decision_function(grid), b.decision_function(grid)
        confident = np.abs(fa) > 1e-6
        assert np.array_equal(
            a.predict(grid)[confident], -b.predict(grid)[confident]
        )
        assert np.allclose(np.abs(fa), np.abs(fb), atol=1e-6)


class TestSolverAgreement:
    @given(
        n=st.integers(10, 48),
        cost=st.floats(0.1, 50.0),
        seed=st.integers(0, 2000),
    )
    @settings(**SETTINGS)
    def test_cg_solution_matches_direct_solve(self, n, cost, seed):
        """CG at tight epsilon must agree with numpy.linalg.solve on the
        same reduced system."""
        X, y = make_planes(n, 3, rng=seed)
        param = Parameter(kernel="linear", cost=cost)
        q = ExplicitQMatrix(X, y, param)
        direct = np.linalg.solve(q.to_dense(), q.rhs())
        clf = LSSVC(kernel="linear", C=cost, epsilon=1e-12).fit(X, y)
        _, bias_direct = recover_bias_and_alpha(q, direct)
        y_enc = np.where(y == clf.model_.labels[0], 1.0, -1.0)
        q2 = ExplicitQMatrix(X, y_enc, param)
        direct2 = np.linalg.solve(q2.to_dense(), q2.rhs())
        alpha_direct, _ = recover_bias_and_alpha(q2, direct2)
        assert np.allclose(clf.model_.alpha, alpha_direct, atol=1e-6)

    @given(seed=st.integers(0, 2000))
    @settings(**SETTINGS)
    def test_all_backends_agree(self, seed):
        X, y = make_planes(24, 3, rng=seed)
        preds = []
        for backend in (None, "openmp", "cuda"):
            clf = LSSVC(kernel="linear", epsilon=1e-10, backend=backend).fit(X, y)
            preds.append(clf.model_.alpha)
        assert np.allclose(preds[0], preds[1], atol=1e-6)
        assert np.allclose(preds[0], preds[2], atol=1e-6)


class TestRegressionInvariants:
    @given(seed=st.integers(0, 2000), scale=st.floats(0.5, 3.0))
    @settings(**SETTINGS)
    def test_target_scaling_scales_prediction(self, seed, scale):
        """The LS-SVR system is linear in y: scaling the targets scales the
        predictions."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((30, 2))
        y = rng.standard_normal(30)
        grid = rng.standard_normal((10, 2))
        a = LSSVR(kernel="linear", C=5.0, epsilon=1e-12).fit(X, y)
        b = LSSVR(kernel="linear", C=5.0, epsilon=1e-12).fit(X, scale * y)
        assert np.allclose(scale * a.predict(grid), b.predict(grid), atol=1e-5)

    @given(seed=st.integers(0, 2000), offset=st.floats(-10, 10))
    @settings(**SETTINGS)
    def test_target_offset_shifts_prediction(self, seed, offset):
        """Adding a constant to the targets moves it into the bias."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((30, 2))
        y = rng.standard_normal(30)
        grid = rng.standard_normal((10, 2))
        a = LSSVR(kernel="rbf", C=5.0, gamma=0.5, epsilon=1e-12).fit(X, y)
        b = LSSVR(kernel="rbf", C=5.0, gamma=0.5, epsilon=1e-12).fit(X, y + offset)
        assert np.allclose(a.predict(grid) + offset, b.predict(grid), atol=1e-5)
