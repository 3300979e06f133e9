"""Tests for the model container and LIBSVM model file format."""

import numpy as np
import pytest

from repro.core.lssvm import LSSVC
from repro.core.model import LSSVMModel, load_model, save_model
from repro.core.tile_pipeline import TilePipeline
from repro.exceptions import ModelFormatError
from repro.parameter import Parameter
from repro.types import KernelType


@pytest.fixture
def fitted(planes_small):
    X, y = planes_small
    return LSSVC(kernel="rbf", C=10.0, gamma=0.25).fit(X, y)


class TestContainer:
    def test_all_points_are_support_vectors(self, fitted, planes_small):
        X, _ = planes_small
        assert fitted.model_.num_support_vectors == X.shape[0]

    def test_alpha_sums_to_zero(self, fitted):
        assert fitted.model_.alpha.sum() == pytest.approx(0.0, abs=1e-8)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ModelFormatError):
            LSSVMModel(
                support_vectors=np.ones((3, 2)),
                alpha=np.ones(4),
                bias=0.0,
                param=Parameter(),
            )

    def test_wrong_feature_count_raises(self, fitted):
        with pytest.raises(ModelFormatError):
            fitted.model_.decision_function(np.ones((2, 99)))

    def test_tiled_prediction_matches_untiled(self, fitted, planes_small):
        X, _ = planes_small
        model = fitted.model_
        param = model.param
        pipeline = TilePipeline(
            model.support_vectors, param.kernel, **param.kernel_kwargs(), tile_rows=7
        )
        coarse = pipeline.cross_sweep(X, model.alpha)
        fine = model.decision_function(X)
        assert np.allclose(coarse + model.bias, fine)


class TestRoundtrip:
    @pytest.mark.parametrize(
        "kernel,kw",
        [
            ("linear", {}),
            ("polynomial", {"gamma": 0.2, "degree": 2, "coef0": 1.0}),
            ("rbf", {"gamma": 0.5}),
        ],
    )
    def test_save_load_preserves_predictions(self, tmp_path, planes_small, kernel, kw):
        X, y = planes_small
        clf = LSSVC(kernel=kernel, C=5.0, **kw).fit(X, y)
        path = tmp_path / "model.libsvm"
        clf.model_.save(path)
        loaded = load_model(path)
        assert np.allclose(
            loaded.decision_function(X), clf.model_.decision_function(X), atol=1e-10
        )
        assert np.all(loaded.predict(X) == clf.model_.predict(X))

    def test_roundtrip_preserves_metadata(self, tmp_path, fitted):
        path = tmp_path / "model.libsvm"
        fitted.model_.save(path)
        loaded = load_model(path)
        assert loaded.param.kernel is KernelType.RBF
        assert loaded.param.gamma == pytest.approx(0.25)
        assert loaded.bias == pytest.approx(fitted.model_.bias)
        assert loaded.labels == fitted.model_.labels

    def test_roundtrip_with_custom_labels(self, tmp_path, planes_small):
        X, y = planes_small
        y_named = np.where(y > 0, 2.0, 7.0)
        clf = LSSVC(kernel="linear").fit(X, y_named)
        path = tmp_path / "model.libsvm"
        clf.save(path)
        loaded = load_model(path)
        first_seen = float(y_named[0])
        other = 7.0 if first_seen == 2.0 else 2.0
        assert loaded.labels == (first_seen, other)
        assert set(np.unique(loaded.predict(X))) <= {2.0, 7.0}

    def test_zero_features_are_sparse_in_file(self, tmp_path):
        model = LSSVMModel(
            support_vectors=np.array([[0.0, 1.0], [2.0, 0.0]]),
            alpha=np.array([1.0, -1.0]),
            bias=0.5,
            param=Parameter(),
        )
        path = tmp_path / "m"
        save_model(model, path)
        sv_section = path.read_text().split("SV\n", 1)[1]
        for line in sv_section.strip().splitlines():
            for token in line.split()[1:]:
                assert float(token.partition(":")[2]) != 0.0
        loaded = load_model(path)
        assert np.allclose(loaded.support_vectors, model.support_vectors)


class TestFileFormat:
    def test_header_contents(self, tmp_path, fitted):
        path = tmp_path / "model.libsvm"
        fitted.model_.save(path)
        text = path.read_text()
        assert "svm_type c_svc" in text
        assert "kernel_type rbf" in text
        assert "nr_class 2" in text
        assert f"total_sv {fitted.model_.num_support_vectors}" in text
        assert "rho" in text
        assert "SV" in text

    def test_rho_is_negated_bias(self, tmp_path, fitted):
        path = tmp_path / "model.libsvm"
        fitted.model_.save(path)
        for line in path.read_text().splitlines():
            if line.startswith("rho "):
                assert float(line.split()[1]) == pytest.approx(-fitted.model_.bias)
                break
        else:
            pytest.fail("no rho line")


class TestMalformedFiles:
    def _write(self, tmp_path, text):
        p = tmp_path / "bad.model"
        p.write_text(text)
        return p

    def test_missing_header(self, tmp_path):
        p = self._write(tmp_path, "kernel_type linear\nSV\n1.0 1:2.0\n")
        with pytest.raises(ModelFormatError):
            load_model(p)

    def test_unsupported_svm_type(self, tmp_path):
        p = self._write(
            tmp_path,
            "svm_type nu_svc\nkernel_type linear\nrho 0\ntotal_sv 1\nSV\n1.0 1:1\n",
        )
        with pytest.raises(ModelFormatError):
            load_model(p)

    def test_unknown_kernel(self, tmp_path):
        p = self._write(
            tmp_path,
            "svm_type c_svc\nkernel_type precomputed\nrho 0\ntotal_sv 1\nSV\n1.0 1:1\n",
        )
        with pytest.raises(ModelFormatError):
            load_model(p)

    def test_sv_count_mismatch(self, tmp_path):
        p = self._write(
            tmp_path,
            "svm_type c_svc\nkernel_type linear\nrho 0\ntotal_sv 2\nSV\n1.0 1:1\n",
        )
        with pytest.raises(ModelFormatError):
            load_model(p)

    def test_malformed_sv_line(self, tmp_path):
        p = self._write(
            tmp_path,
            "svm_type c_svc\nkernel_type linear\nrho 0\ntotal_sv 1\nSV\nnotanumber 1:1\n",
        )
        with pytest.raises(ModelFormatError):
            load_model(p)

    def test_zero_based_index_rejected(self, tmp_path):
        p = self._write(
            tmp_path,
            "svm_type c_svc\nkernel_type linear\nrho 0\ntotal_sv 1\nSV\n1.0 0:1\n",
        )
        with pytest.raises(ModelFormatError):
            load_model(p)


class TestWeightVector:
    def test_linear_fast_path_matches_kernel_expansion(self, planes_small):
        from repro.core.kernels import kernel_matrix

        X, y = planes_small
        clf = LSSVC(kernel="linear", C=1.0).fit(X, y)
        model = clf.model_
        w = model.weight_vector()
        # The kernel expansion evaluated explicitly.
        K = kernel_matrix(X, model.support_vectors, model.param.kernel)
        expansion = K @ model.alpha + model.bias
        assert np.allclose(X @ w + model.bias, expansion, atol=1e-9)

    def test_weight_vector_cached(self, planes_small):
        X, y = planes_small
        model = LSSVC(kernel="linear").fit(X, y).model_
        assert model.weight_vector() is model.weight_vector()

    def test_nonlinear_kernel_has_no_weight_vector(self, fitted):
        with pytest.raises(ModelFormatError):
            fitted.model_.weight_vector()

    def test_fast_path_survives_model_roundtrip(self, tmp_path, planes_small):
        X, y = planes_small
        clf = LSSVC(kernel="linear").fit(X, y)
        path = tmp_path / "linear.model"
        clf.save(path)
        loaded = load_model(path)
        assert np.allclose(
            loaded.decision_function(X), clf.model_.decision_function(X), atol=1e-9
        )
