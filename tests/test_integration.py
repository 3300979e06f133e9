"""Cross-module integration tests: full pipelines, backend equivalence."""

import numpy as np
import pytest

from repro import LSSVC
from repro.backends import KernelConfig, create_backend
from repro.core.model import load_model
from repro.data.sat6 import make_sat6_like
from repro.data.splits import train_test_split
from repro.data.synthetic import make_planes
from repro.io.libsvm_format import read_libsvm_file, write_libsvm_file
from repro.io.scaling import FeatureScaler
from repro.smo.libsvm import LibSVMClassifier


class TestBackendEquivalence:
    """Every backend must produce the same model (§III: backends are
    interchangeable implementations of the same algorithm)."""

    @pytest.fixture(scope="class")
    def data(self):
        return make_planes(256, 24, rng=17)

    def test_all_backends_same_alpha(self, data):
        X, y = data
        reference = LSSVC(kernel="linear", epsilon=1e-10).fit(X, y)
        for backend in ("openmp", "cuda", "opencl", "sycl"):
            clf = LSSVC(kernel="linear", epsilon=1e-10, backend=backend).fit(X, y)
            assert np.allclose(
                clf.model_.alpha, reference.model_.alpha, atol=1e-6
            ), backend
            assert clf.model_.bias == pytest.approx(reference.model_.bias, abs=1e-6)

    def test_multi_gpu_same_predictions_as_single(self, data):
        X, y = data
        single = LSSVC(kernel="linear", backend="cuda", n_devices=1).fit(X, y)
        multi = LSSVC(kernel="linear", backend="cuda", n_devices=4).fit(X, y)
        assert np.array_equal(single.predict(X), multi.predict(X))

    def test_kernel_config_does_not_change_results(self, data):
        X, y = data
        backend = create_backend(
            "cuda", config=KernelConfig(thread_block=8, internal_block=2)
        )
        tuned = LSSVC(kernel="linear", backend=backend, epsilon=1e-10).fit(X, y)
        plain = LSSVC(kernel="linear", backend="cuda", epsilon=1e-10).fit(X, y)
        assert np.allclose(tuned.model_.alpha, plain.model_.alpha, atol=1e-8)


class TestFilePipeline:
    def test_file_train_file_predict_roundtrip(self, tmp_path):
        X, y = make_planes(128, 12, rng=18)
        train_path = tmp_path / "train.libsvm"
        model_path = tmp_path / "model"
        write_libsvm_file(train_path, X, y)

        X_read, y_read = read_libsvm_file(train_path, num_features=12)
        clf = LSSVC(kernel="rbf", C=10.0).fit(X_read, y_read)
        clf.save(model_path)

        model = load_model(model_path)
        assert model.score(X, y) == pytest.approx(clf.score(X, y))

    def test_scaled_pipeline_preserves_accuracy(self, tmp_path):
        X, y = make_planes(256, 10, rng=19)
        X_train, X_test, y_train, y_test = train_test_split(X, y, rng=19)
        scaler = FeatureScaler(-1, 1).fit(X_train)
        clf = LSSVC(kernel="rbf", C=10.0).fit(scaler.transform(X_train), y_train)
        acc = clf.score(scaler.transform(X_test), y_test)
        assert acc > 0.85


class TestDropInCompatibility:
    """PLSSVM claims drop-in LIBSVM compatibility: a model trained by one
    must be loadable and sensible for the other's tooling."""

    def test_lssvm_model_file_readable_as_libsvm_model(self, tmp_path):
        X, y = make_planes(96, 6, rng=20)
        clf = LSSVC(kernel="linear").fit(X, y)
        path = tmp_path / "m"
        clf.save(path)
        text = path.read_text()
        # Every line before SV must be a known LIBSVM header key.
        header = text.split("SV\n", 1)[0].strip().splitlines()
        known = {
            "svm_type",
            "kernel_type",
            "degree",
            "gamma",
            "coef0",
            "nr_class",
            "total_sv",
            "rho",
            "label",
            "nr_sv",
        }
        for line in header:
            assert line.split()[0] in known

    def test_same_file_formats_between_solvers(self, tmp_path):
        X, y = make_planes(96, 6, rng=21)
        path = tmp_path / "d.libsvm"
        write_libsvm_file(path, X, y)
        X2, y2 = read_libsvm_file(path, num_features=6)
        ls = LSSVC(kernel="linear").fit(X2, y2)
        smo = LibSVMClassifier(kernel="linear").fit(X2, y2)
        assert abs(ls.score(X2, y2) - smo.score(X2, y2)) < 0.1


class TestSat6EndToEnd:
    def test_sat6_pipeline(self):
        X, y = make_sat6_like(300, rng=22)
        X_train, X_test, y_train, y_test = train_test_split(X, y, rng=22)
        scaler = FeatureScaler(-1, 1).fit(X_train)
        clf = LSSVC(kernel="rbf", C=10.0).fit(scaler.transform(X_train), y_train)
        assert clf.score(scaler.transform(X_test), y_test) > 0.75

    def test_sat6_on_simulated_gpu(self):
        X, y = make_sat6_like(200, rng=23)
        clf = LSSVC(kernel="rbf", C=10.0, backend="cuda").fit(X, y)
        assert clf.score(X, y) > 0.85
        assert clf._backend_instance.device_time() > 0


class TestLargeImplicitPath:
    def test_training_beyond_explicit_limit_uses_implicit(self, monkeypatch):
        from repro.core import lssvm
        from repro.core.incremental import EXPLICIT_LIMIT
        from repro.core.qmatrix import ImplicitQMatrix

        # Past the incremental engine's dense limit, as at any size, a
        # batch fit solves against the matrix-free operator; the linear
        # kernel keeps its matvec O(m d).
        operators = []
        build = lssvm.build_reduced_system

        def spy(*args, **kwargs):
            qmat, rhs = build(*args, **kwargs)
            operators.append(type(qmat))
            return qmat, rhs

        monkeypatch.setattr(lssvm, "build_reduced_system", spy)
        X, y = make_planes(EXPLICIT_LIMIT + 4, 4, rng=24)
        clf = LSSVC(kernel="linear").fit(X, y)
        assert clf.score(X, y) > 0.85
        assert operators == [ImplicitQMatrix]

    def test_implicit_path_with_nonlinear_kernel_and_tiling(self):
        X, y = make_planes(200, 16, rng=25)
        clf = LSSVC(kernel="rbf", C=10.0).fit(X, y)
        assert clf.score(X, y) > 0.9
        assert clf.report_.counters["tile_sweeps"] > 0


class TestDeterminism:
    def test_same_seed_same_model(self):
        X, y = make_planes(128, 8, rng=26)
        a = LSSVC(kernel="linear").fit(X, y)
        b = LSSVC(kernel="linear").fit(X, y)
        assert np.array_equal(a.model_.alpha, b.model_.alpha)
        assert a.model_.bias == b.model_.bias

    def test_multi_device_reduction_deterministic(self):
        X, y = make_planes(128, 16, rng=27)
        runs = [
            LSSVC(kernel="linear", backend="cuda", n_devices=3).fit(X, y).model_.alpha
            for _ in range(2)
        ]
        assert np.array_equal(runs[0], runs[1])
