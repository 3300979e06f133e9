"""Tests for the §V future-work extensions.

Multi-class classification, regression, weighted (robust) LS-SVM, sparse
support approximation, the sparse-CG path, model selection, and the
heterogeneous load-balanced backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    LSSVC,
    LSSVR,
    OneVsAllLSSVC,
    OneVsOneLSSVC,
    SparseLSSVC,
    WeightedLSSVC,
)
from repro.backends.heterogeneous import HeterogeneousCSVM
from repro.core.weighted import hampel_weights
from repro.data import make_multiclass, make_planes
from repro.exceptions import (
    BackendUnavailableError,
    DataError,
    DeviceError,
    InvalidParameterError,
    NotFittedError,
)
from repro.model_selection import GridSearch, cross_val_score, kfold_indices
from repro.parallel.partition import weighted_feature_split
from repro.parameter import Parameter
from repro.sparse import CSRMatrix


class TestLSSVR:
    def test_fits_sine(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-3, 3, size=(300, 1))
        y = np.sin(X[:, 0])
        reg = LSSVR(kernel="rbf", C=100.0, gamma=1.0).fit(X, y)
        assert reg.score(X, y) > 0.99
        assert np.abs(reg.predict(X) - y).mean() < 0.02

    def test_linear_regression_recovers_plane(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((200, 3))
        w = np.array([1.5, -2.0, 0.5])
        y = X @ w + 3.0
        reg = LSSVR(kernel="linear", C=1e6, epsilon=1e-10).fit(X, y)
        assert reg.score(X, y) > 0.9999
        assert abs(reg.bias_ - 3.0) < 0.05

    def test_regularization_shrinks_fit(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((100, 2))
        y = X[:, 0] + 0.1 * rng.standard_normal(100)
        tight = LSSVR(kernel="rbf", C=1e4, gamma=1.0).fit(X, y)
        loose = LSSVR(kernel="rbf", C=1e-3, gamma=1.0).fit(X, y)
        assert tight.score(X, y) > loose.score(X, y)

    def test_implicit_matches_explicit(self):
        # The matrix-free fit against a dense solve of the explicit Q_tilde.
        from repro.core.qmatrix import ExplicitQMatrix, recover_bias_and_alpha

        rng = np.random.default_rng(3)
        X = rng.standard_normal((60, 2))
        y = X[:, 0] ** 2
        reg = LSSVR(kernel="rbf", C=10.0, gamma=0.5, epsilon=1e-12).fit(X, y)
        dense = ExplicitQMatrix(
            X, y, Parameter(kernel="rbf", cost=10.0, gamma=0.5), binary_labels=False
        )
        alpha, _ = recover_bias_and_alpha(
            dense, np.linalg.solve(dense.to_dense(), dense.rhs())
        )
        assert np.allclose(reg.alpha_, alpha, atol=1e-8)

    def test_alpha_sums_to_zero(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 2))
        y = rng.standard_normal(50)
        reg = LSSVR(kernel="linear", C=10.0).fit(X, y)
        assert reg.alpha_.sum() == pytest.approx(0.0, abs=1e-8)

    def test_constant_targets(self):
        X = np.random.default_rng(5).standard_normal((20, 2))
        reg = LSSVR(kernel="linear", C=1.0).fit(X, np.full(20, 7.0))
        assert np.allclose(reg.predict(X), 7.0, atol=1e-6)
        assert reg.score(X, np.full(20, 7.0)) == 1.0

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            LSSVR().predict(np.ones((1, 2)))
        with pytest.raises(NotFittedError):
            _ = LSSVR().iterations_

    def test_feature_mismatch(self):
        reg = LSSVR(kernel="linear").fit(np.ones((4, 2)) * np.arange(4)[:, None], np.arange(4.0))
        with pytest.raises(DataError):
            reg.predict(np.ones((2, 5)))

    def test_nan_targets_rejected(self):
        X = np.ones((4, 2)) * np.arange(4)[:, None]
        with pytest.raises(DataError):
            LSSVR(kernel="linear").fit(X, np.array([1.0, np.nan, 2.0, 3.0]))


class TestMulticlass:
    @pytest.fixture(scope="class")
    def blobs(self):
        return make_multiclass(300, 8, num_classes=4, rng=1)

    def test_one_vs_all_accuracy(self, blobs):
        X, y = blobs
        clf = OneVsAllLSSVC(kernel="rbf", C=10.0).fit(X, y)
        assert clf.score(X, y) > 0.95
        assert len(clf.machines_) == 4

    def test_one_vs_one_accuracy(self, blobs):
        X, y = blobs
        clf = OneVsOneLSSVC(kernel="rbf", C=10.0).fit(X, y)
        assert clf.score(X, y) > 0.95
        assert clf.num_machines == 6  # 4 choose 2

    def test_predictions_use_original_labels(self, blobs):
        X, y = blobs
        shifted = y + 10.0
        clf = OneVsAllLSSVC(kernel="rbf", C=10.0).fit(X, shifted)
        assert set(np.unique(clf.predict(X))) <= set(np.unique(shifted))

    def test_binary_case_matches_plain_lssvc(self):
        X, y = make_planes(200, 8, rng=2)
        multi = OneVsOneLSSVC(kernel="linear", C=1.0).fit(X, y)
        plain = LSSVC(kernel="linear", C=1.0).fit(X, y)
        agree = np.mean(multi.predict(X) == plain.predict(X))
        assert agree > 0.98

    def test_decision_matrix_shape(self, blobs):
        X, y = blobs
        clf = OneVsAllLSSVC(kernel="rbf", C=10.0).fit(X, y)
        assert clf.decision_matrix(X[:10]).shape == (10, 4)

    def test_custom_estimator_factory(self, blobs):
        from repro.smo.libsvm import LibSVMClassifier

        X, y = blobs
        clf = OneVsOneLSSVC(
            estimator_factory=lambda: LibSVMClassifier(kernel="rbf", C=10.0)
        ).fit(X, y)
        assert clf.score(X, y) > 0.9

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            OneVsAllLSSVC().fit(np.ones((4, 2)), np.ones(4))

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            OneVsAllLSSVC().predict(np.ones((1, 2)))
        with pytest.raises(NotFittedError):
            OneVsOneLSSVC().predict(np.ones((1, 2)))


class TestWeighted:
    def test_robust_to_label_outliers(self):
        # Flip a block of labels; the weighted refit must recover the clean
        # boundary better than the plain LS-SVM.
        X, y = make_planes(400, 6, flip_fraction=0.0, class_sep=2.0, rng=2)
        y_noisy = y.copy()
        y_noisy[:30] = -y_noisy[:30]
        plain = LSSVC(kernel="linear", C=10.0).fit(X, y_noisy)
        robust = WeightedLSSVC(kernel="linear", C=10.0).fit(X, y_noisy)
        assert robust.score(X, y) >= plain.score(X, y)

    def test_outliers_receive_small_weights(self):
        X, y = make_planes(300, 4, flip_fraction=0.0, class_sep=2.5, rng=3)
        y_noisy = y.copy()
        y_noisy[:15] = -y_noisy[:15]
        clf = WeightedLSSVC(kernel="linear", C=10.0).fit(X, y_noisy)
        flipped_weight = clf.weights_[:15].mean()
        clean_weight = clf.weights_[15:].mean()
        assert flipped_weight < clean_weight

    def test_single_stage_equals_plain(self):
        X, y = make_planes(150, 4, rng=4)
        plain = LSSVC(kernel="linear", C=1.0, epsilon=1e-6).fit(X, y)
        one_stage = WeightedLSSVC(kernel="linear", C=1.0, stages=1).fit(X, y)
        assert np.allclose(plain.model_.alpha, one_stage.model_.alpha, atol=1e-4)

    def test_hampel_weights_shape(self):
        errors = np.array([0.0, 0.1, -0.1, 0.05, 10.0])
        w = hampel_weights(errors)
        assert w.shape == errors.shape
        assert np.all((w > 0) & (w <= 1.0))
        assert w[-1] < w[0]  # the outlier is down-weighted

    def test_hampel_constant_errors(self):
        assert np.all(hampel_weights(np.ones(10)) == 1.0)

    def test_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            hampel_weights(np.ones(3), c1=3.0, c2=2.0)
        with pytest.raises(InvalidParameterError):
            WeightedLSSVC(stages=0)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            WeightedLSSVC().predict(np.ones((1, 2)))


class TestSparseApprox:
    def test_prunes_to_target(self):
        X, y = make_planes(400, 8, rng=3)
        clf = SparseLSSVC(kernel="rbf", C=10.0, target_fraction=0.3).fit(X, y)
        assert clf.num_support_vectors <= int(0.4 * X.shape[0])
        assert clf.compression > 2.0

    def test_accuracy_preserved(self):
        X, y = make_planes(400, 8, rng=3)
        dense = LSSVC(kernel="rbf", C=10.0).fit(X, y)
        sparse = SparseLSSVC(kernel="rbf", C=10.0, target_fraction=0.3).fit(X, y)
        assert sparse.score(X, y) >= dense.score(X, y) - 0.05

    def test_history_is_monotone_in_support(self):
        X, y = make_planes(200, 6, rng=5)
        clf = SparseLSSVC(kernel="rbf", C=10.0, target_fraction=0.4).fit(X, y)
        supports = [h["support"] for h in clf.history_]
        assert all(a >= b for a, b in zip(supports, supports[1:]))

    def test_support_indices_valid(self):
        X, y = make_planes(200, 6, rng=6)
        clf = SparseLSSVC(kernel="rbf", C=10.0, target_fraction=0.5).fit(X, y)
        idx = clf.support_indices_
        assert np.all((0 <= idx) & (idx < X.shape[0]))
        assert len(np.unique(idx)) == len(idx)
        # Both classes survive the pruning.
        assert len(np.unique(y[idx])) == 2

    def test_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            SparseLSSVC(target_fraction=1.5)
        with pytest.raises(InvalidParameterError):
            SparseLSSVC(prune_per_round=0.0)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            SparseLSSVC().predict(np.ones((1, 2)))


class TestCSRMatrix:
    def test_roundtrip(self, rng):
        dense = rng.standard_normal((7, 5))
        dense[rng.random(dense.shape) < 0.5] = 0.0
        csr = CSRMatrix.from_dense(dense)
        assert np.allclose(csr.to_dense(), dense)
        assert csr.nnz == np.count_nonzero(dense)

    def test_matvec_matches_dense(self, rng):
        dense = rng.standard_normal((8, 6))
        dense[rng.random(dense.shape) < 0.6] = 0.0
        csr = CSRMatrix.from_dense(dense)
        v = rng.standard_normal(6)
        assert np.allclose(csr.matvec(v), dense @ v)

    def test_rmatvec_matches_dense(self, rng):
        dense = rng.standard_normal((8, 6))
        dense[rng.random(dense.shape) < 0.6] = 0.0
        csr = CSRMatrix.from_dense(dense)
        v = rng.standard_normal(8)
        assert np.allclose(csr.rmatvec(v), dense.T @ v)

    def test_empty_rows_and_all_zero(self):
        dense = np.zeros((3, 4))
        dense[1, 2] = 5.0
        csr = CSRMatrix.from_dense(dense)
        assert np.allclose(csr.matvec(np.ones(4)), [0.0, 5.0, 0.0])
        zero = CSRMatrix.from_dense(np.zeros((2, 3)))
        assert np.allclose(zero.matvec(np.ones(3)), 0.0)
        assert np.allclose(zero.rmatvec(np.ones(2)), 0.0)

    def test_row_and_head(self, rng):
        dense = rng.standard_normal((5, 4))
        dense[dense < 0] = 0.0
        csr = CSRMatrix.from_dense(dense)
        assert np.allclose(csr.row(2), dense[2])
        head = csr.head(3)
        assert np.allclose(head.to_dense(), dense[:3])

    def test_validation(self):
        with pytest.raises(DataError):
            CSRMatrix(np.array([0, 2]), np.array([0]), np.array([1.0]), (1, 3))
        with pytest.raises(DataError):
            CSRMatrix(np.array([0, 1]), np.array([5]), np.array([1.0]), (1, 3))
        with pytest.raises(DataError):
            CSRMatrix.from_dense(np.ones(3))

    def test_size_errors(self, rng):
        csr = CSRMatrix.from_dense(rng.standard_normal((3, 2)))
        with pytest.raises(DataError):
            csr.matvec(np.ones(3))
        with pytest.raises(DataError):
            csr.rmatvec(np.ones(2))
        with pytest.raises(DataError):
            csr.row(7)

    @given(seed=st.integers(0, 5000), density=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_products_property(self, seed, density):
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((6, 5))
        dense[rng.random(dense.shape) > density] = 0.0
        csr = CSRMatrix.from_dense(dense)
        v = rng.standard_normal(5)
        w = rng.standard_normal(6)
        assert np.allclose(csr.matvec(v), dense @ v, atol=1e-12)
        assert np.allclose(csr.rmatvec(w), dense.T @ w, atol=1e-12)


class TestSparseCG:
    """The CSR input path of ``ImplicitQMatrix`` (linear kernel only)."""

    def test_sparse_qmatrix_matches_dense(self, rng):
        X, y = make_planes(100, 12, rng=7)
        X[np.abs(X) < 0.8] = 0.0
        param = Parameter(kernel="linear", cost=2.0)
        from repro.core.qmatrix import ImplicitQMatrix

        dense = ImplicitQMatrix(X, y, param)
        sparse = ImplicitQMatrix(CSRMatrix.from_dense(X), y, param)
        v = rng.standard_normal(99)
        assert np.allclose(dense.matvec(v), sparse.matvec(v), atol=1e-9)

    def test_lssvc_sparse_flag(self):
        X, y = make_planes(150, 10, rng=8)
        X[np.abs(X) < 0.8] = 0.0
        a = LSSVC(kernel="linear", epsilon=1e-10).fit(X, y)
        b = LSSVC(kernel="linear", epsilon=1e-10, sparse=True).fit(X, y)
        assert np.allclose(a.model_.alpha, b.model_.alpha, atol=1e-6)

    def test_sparse_rejects_nonlinear(self):
        from repro.core.qmatrix import ImplicitQMatrix

        X, y = make_planes(50, 4, rng=9)
        with pytest.raises(InvalidParameterError):
            ImplicitQMatrix(CSRMatrix.from_dense(X), y, Parameter(kernel="rbf", gamma=0.5))

    def test_sparse_rejects_backend(self):
        with pytest.raises(DataError):
            LSSVC(kernel="linear", sparse=True, backend="cuda")

    def test_accepts_prebuilt_csr(self):
        from repro.core.qmatrix import ImplicitQMatrix

        X, y = make_planes(60, 5, rng=10)
        X[np.abs(X) < 0.5] = 0.0
        csr = CSRMatrix.from_dense(X)
        q = ImplicitQMatrix(csr, y, Parameter(kernel="linear"))
        assert q.csr is csr
        assert 0 < q.csr.density < 1
        np.testing.assert_array_equal(q.X, X)


class TestModelSelection:
    def test_kfold_partition(self):
        folds = kfold_indices(23, 5, rng=0)
        assert len(folds) == 5
        all_test = np.concatenate([test for _, test in folds])
        assert np.array_equal(np.sort(all_test), np.arange(23))
        for train, test in folds:
            assert len(np.intersect1d(train, test)) == 0
            assert len(train) + len(test) == 23

    def test_kfold_validation(self):
        with pytest.raises(DataError):
            kfold_indices(10, 1)
        with pytest.raises(DataError):
            kfold_indices(3, 5)

    def test_cross_val_scores_sane(self):
        X, y = make_planes(300, 8, rng=11)
        scores = cross_val_score(lambda: LSSVC(kernel="rbf", C=10.0), X, y, k=4, rng=1)
        assert scores.shape == (4,)
        assert np.all((0.5 <= scores) & (scores <= 1.0))

    def test_cross_val_with_regressor(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(-2, 2, size=(120, 1))
        y = np.sin(2 * X[:, 0])
        scores = cross_val_score(
            lambda: LSSVR(kernel="rbf", C=100.0, gamma=2.0), X, y, k=3, rng=2
        )
        assert np.all(scores > 0.9)

    def test_grid_search_finds_reasonable_point(self):
        X, y = make_planes(200, 8, rng=13)
        gs = GridSearch(
            lambda **p: LSSVC(kernel="rbf", **p),
            {"C": [1e-4, 1.0], "gamma": [0.125]},
            k=3,
        ).fit(X, y)
        assert gs.best_params_["C"] == 1.0
        assert len(gs.results_) == 2
        assert gs.score(X, y) > 0.85
        assert gs.predict(X).shape == (200,)

    def test_grid_search_validation(self):
        with pytest.raises(DataError):
            GridSearch(lambda **p: LSSVC(), {})
        with pytest.raises(DataError):
            GridSearch(lambda **p: LSSVC(), {"C": []})
        gs = GridSearch(lambda **p: LSSVC(**p), {"C": [1.0]})
        with pytest.raises(DataError):
            _ = gs.best_params_


class TestWeightedSplit:
    def test_proportional_sizes(self):
        ranges = weighted_feature_split(100, [3.0, 1.0])
        assert [len(r) for r in ranges] == [75, 25]

    def test_exact_tiling(self):
        ranges = weighted_feature_split(10, [1.0, 1.0, 1.0])
        assert sum(len(r) for r in ranges) == 10
        assert ranges[0].start == 0 and ranges[-1].stop == 10

    def test_zero_weight_device_gets_nothing(self):
        ranges = weighted_feature_split(10, [1.0, 0.0])
        assert len(ranges) == 1
        assert len(ranges[0]) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_feature_split(0, [1.0])
        with pytest.raises(ValueError):
            weighted_feature_split(10, [])
        with pytest.raises(ValueError):
            weighted_feature_split(10, [0.0, 0.0])
        with pytest.raises(ValueError):
            weighted_feature_split(10, [-1.0, 2.0])

    @given(
        n=st.integers(1, 500),
        weights=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_always_tiles(self, n, weights):
        ranges = weighted_feature_split(n, weights)
        assert sum(len(r) for r in ranges) == n
        pos = 0
        for r in ranges:
            assert r.start == pos
            pos = r.stop


class TestHeterogeneousBackend:
    def test_balancing_reduces_makespan(self):
        X, y = make_planes(1024, 512, rng=14)
        times = {}
        for balanced in (False, True):
            backend = HeterogeneousCSVM(
                ["nvidia_a100", "nvidia_p100"], balanced=balanced
            )
            LSSVC(kernel="linear", epsilon=1e-8, backend=backend).fit(X, y)
            times[balanced] = max(t for _, t in backend.per_device_times())
        assert times[True] < times[False]

    def test_balanced_split_evens_busy_time(self):
        X, y = make_planes(1024, 512, rng=14)
        backend = HeterogeneousCSVM(["nvidia_a100", "nvidia_p100"], balanced=True)
        LSSVC(kernel="linear", backend=backend).fit(X, y)
        assert backend.imbalance() < 1.2

    def test_equal_split_leaves_slow_device_critical(self):
        X, y = make_planes(1024, 512, rng=14)
        backend = HeterogeneousCSVM(["nvidia_a100", "nvidia_p100"], balanced=False)
        LSSVC(kernel="linear", backend=backend).fit(X, y)
        times = dict(backend.per_device_times())
        assert times["NVIDIA P100"] > times["NVIDIA A100"]
        assert backend.imbalance() > 1.5

    def test_same_model_as_homogeneous(self):
        X, y = make_planes(256, 64, rng=15)
        hetero = LSSVC(
            kernel="linear",
            epsilon=1e-10,
            backend=HeterogeneousCSVM(["nvidia_a100", "nvidia_v100"]),
        ).fit(X, y)
        plain = LSSVC(kernel="linear", epsilon=1e-10).fit(X, y)
        assert np.allclose(hetero.model_.alpha, plain.model_.alpha, atol=1e-6)

    def test_weighted_slices_stay_with_their_devices(self):
        # The GTX 1080 Ti's throughput share of 4 features rounds to zero:
        # it must idle, not take the second A100's slice.
        X, y = make_planes(128, 4, rng=16)
        devices = ["nvidia_a100", "nvidia_gtx1080ti", "nvidia_a100"]
        alphas = []
        for balanced in (True, False):
            backend = HeterogeneousCSVM(devices, balanced=balanced)
            alphas.append(LSSVC(kernel="linear", backend=backend).fit(X, y).model_.alpha)
            if balanced:
                active = backend.last_run().active
                assert [d.spec.name for d in active] == ["NVIDIA A100", "NVIDIA A100"]
                assert [d.device_id for d in active] == [0, 2]
        # Which device computes a slice is modeled; alpha is the host's.
        np.testing.assert_array_equal(alphas[0], alphas[1])

    def test_best_backend_key_per_device(self):
        backend = HeterogeneousCSVM(["nvidia_a100", "amd_radeon_vii"])
        keys = [d.efficiency_key for d in backend.devices]
        assert keys == ["cuda", "opencl"]

    def test_describe(self):
        backend = HeterogeneousCSVM(["nvidia_a100", "nvidia_p100"])
        text = backend.describe()
        assert "A100" in text and "P100" in text and "balanced" in text

    def test_requires_devices(self):
        with pytest.raises(DeviceError):
            HeterogeneousCSVM([])

    def test_nonlinear_multi_device_rejected(self):
        X, y = make_planes(64, 8, rng=16)
        backend = HeterogeneousCSVM(["nvidia_a100", "nvidia_v100"])
        with pytest.raises(DeviceError):
            LSSVC(kernel="rbf", backend=backend).fit(X, y)


class TestGridSearchComposability:
    def test_grid_search_over_multiclass(self):
        from repro.data import make_multiclass

        X, y = make_multiclass(150, 6, num_classes=3, rng=30)
        gs = GridSearch(
            lambda **p: OneVsOneLSSVC(kernel="rbf", **p),
            {"C": [0.01, 10.0]},
            k=3,
        ).fit(X, y)
        assert gs.best_score_ > 0.8
        assert gs.best_params_["C"] == 10.0

    def test_grid_search_over_weighted(self):
        X, y = make_planes(150, 6, rng=31)
        gs = GridSearch(
            lambda **p: WeightedLSSVC(kernel="linear", **p), {"C": [1.0]}, k=3
        ).fit(X, y)
        assert gs.best_score_ > 0.85


class TestLSSVRBookkeeping:
    def test_timings_populated(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((60, 2))
        y = X[:, 0]
        reg = LSSVR(kernel="linear", C=10.0).fit(X, y)
        timings = reg.timings_.as_dict()
        assert timings["total"] > 0
        assert timings["cg"] > 0
        assert reg.iterations_ >= 1
