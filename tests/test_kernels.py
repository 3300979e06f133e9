"""Tests for the kernel functions, incl. property-based invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.kernels import (
    kernel_diagonal,
    kernel_flops_per_entry,
    kernel_matrix,
    kernel_row,
    kernel_scalar,
)
from repro.core.tile_pipeline import TilePipeline
from repro.exceptions import InvalidParameterError
from repro.types import KernelType

finite_floats = st.floats(min_value=-10, max_value=10, allow_nan=False, width=64)


def points(n_min=2, n_max=8, d_min=1, d_max=5):
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.integers(d_min, d_max).flatmap(
            lambda d: arrays(np.float64, (n, d), elements=finite_floats)
        )
    )


class TestLinear:
    def test_matches_dot_product(self, rng):
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal((4, 3))
        K = kernel_matrix(a, b, KernelType.LINEAR)
        assert np.allclose(K, a @ b.T)

    def test_scalar(self, rng):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        assert kernel_scalar(x, y, "linear") == pytest.approx(float(x @ y))

    def test_ignores_gamma(self, rng):
        a = rng.standard_normal((3, 2))
        K1 = kernel_matrix(a, a, "linear")
        K2 = kernel_matrix(a, a, "linear", gamma=5.0)
        assert np.allclose(K1, K2)


class TestPolynomial:
    def test_single_pair(self):
        x = np.array([1.0, 2.0])
        y = np.array([3.0, 4.0])
        val = kernel_scalar(x, y, "polynomial", gamma=0.5, degree=2, coef0=1.0)
        assert val == pytest.approx((0.5 * 11.0 + 1.0) ** 2)

    def test_degree_one_is_affine_linear(self, rng):
        a = rng.standard_normal((4, 3))
        K = kernel_matrix(a, a, "polynomial", gamma=1.0, degree=1, coef0=0.0)
        assert np.allclose(K, a @ a.T)

    def test_requires_gamma(self, rng):
        a = rng.standard_normal((3, 2))
        with pytest.raises(InvalidParameterError):
            kernel_matrix(a, a, "polynomial")


class TestRBF:
    def test_self_similarity_is_one(self, rng):
        a = rng.standard_normal((6, 4))
        K = kernel_matrix(a, a, "rbf", gamma=0.3)
        assert np.allclose(np.diag(K), 1.0)

    def test_values_in_unit_interval(self, rng):
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((5, 4))
        K = kernel_matrix(a, b, "rbf", gamma=0.3)
        assert np.all(K > 0) and np.all(K <= 1.0)

    def test_matches_explicit_formula(self, rng):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        expected = np.exp(-0.7 * np.sum((x - y) ** 2))
        assert kernel_scalar(x, y, "rbf", gamma=0.7) == pytest.approx(expected)

    def test_distance_cancellation_is_clipped(self):
        # Identical points via the norm expansion must not go negative.
        x = np.full((2, 3), 1e8)
        K = kernel_matrix(x, x, "rbf", gamma=1.0)
        assert np.all(K <= 1.0)


class TestSigmoid:
    def test_matches_tanh(self, rng):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        expected = np.tanh(0.2 * float(x @ y) + 0.5)
        assert kernel_scalar(x, y, "sigmoid", gamma=0.2, coef0=0.5) == pytest.approx(
            expected
        )


class TestShapesAndErrors:
    def test_kernel_row_shape(self, rng):
        pts = rng.standard_normal((7, 3))
        row = kernel_row(pts[0], pts, "linear")
        assert row.shape == (7,)
        assert np.allclose(row, pts @ pts[0])

    def test_dimension_mismatch_raises(self, rng):
        with pytest.raises(InvalidParameterError):
            kernel_matrix(rng.standard_normal((3, 2)), rng.standard_normal((3, 4)), "linear")

    def test_3d_input_raises(self, rng):
        with pytest.raises(InvalidParameterError):
            kernel_matrix(rng.standard_normal((2, 2, 2)), rng.standard_normal((2, 2)), "linear")


class TestDiagonal:
    @pytest.mark.parametrize(
        "kernel,kw",
        [
            (KernelType.LINEAR, {}),
            (KernelType.POLYNOMIAL, {"gamma": 0.4, "degree": 3, "coef0": 1.0}),
            (KernelType.RBF, {"gamma": 0.4}),
            (KernelType.SIGMOID, {"gamma": 0.4, "coef0": 0.2}),
        ],
    )
    def test_matches_full_matrix_diagonal(self, rng, kernel, kw):
        pts = rng.standard_normal((6, 4))
        expected = np.diag(kernel_matrix(pts, pts, kernel, **kw))
        assert np.allclose(kernel_diagonal(pts, kernel, **kw), expected)


class TestTiles:
    """Row tiles of the tile pipeline reassemble the full kernel matrix."""

    @pytest.mark.parametrize("tile_rows", [1, 2, 3, 100])
    def test_tiles_reassemble_full_matrix(self, rng, tile_rows):
        a = rng.standard_normal((7, 3))
        b = rng.standard_normal((5, 3))
        full = kernel_matrix(a, b, "rbf", gamma=0.2)
        pipe = TilePipeline(
            b, "rbf", gamma=0.2, tile_rows=tile_rows, num_threads=2, cache_mb=0
        )
        out = pipe.cross_sweep(a, np.eye(5))
        assert np.allclose(out, full)

    def test_invalid_tile_rows(self, rng):
        a = rng.standard_normal((3, 2))
        with pytest.raises(InvalidParameterError):
            TilePipeline(a, "linear", tile_rows=0)


class TestFlopModel:
    def test_linear_flops(self):
        assert kernel_flops_per_entry(KernelType.LINEAR, 100) == 200.0

    def test_rbf_costs_more_than_linear(self):
        assert kernel_flops_per_entry(KernelType.RBF, 64) > kernel_flops_per_entry(
            KernelType.LINEAR, 64
        )

    def test_monotone_in_features(self):
        for k in KernelType:
            assert kernel_flops_per_entry(k, 128) > kernel_flops_per_entry(k, 64)


class TestProperties:
    @given(pts=points())
    @settings(max_examples=30, deadline=None)
    def test_gram_matrix_symmetry(self, pts):
        K = kernel_matrix(pts, pts, "linear")
        assert np.allclose(K, K.T, atol=1e-9)

    @given(pts=points())
    @settings(max_examples=30, deadline=None)
    def test_rbf_symmetry_and_range(self, pts):
        K = kernel_matrix(pts, pts, "rbf", gamma=0.5)
        assert np.allclose(K, K.T, atol=1e-12)
        assert np.all((K >= 0) & (K <= 1.0 + 1e-12))

    @given(pts=points(n_min=2, n_max=6))
    @settings(max_examples=30, deadline=None)
    def test_linear_gram_is_psd(self, pts):
        K = kernel_matrix(pts, pts, "linear")
        eigvals = np.linalg.eigvalsh(K)
        assert eigvals.min() >= -1e-8 * max(1.0, abs(eigvals).max())

    @given(pts=points(n_min=2, n_max=6))
    @settings(max_examples=30, deadline=None)
    def test_rbf_gram_is_psd(self, pts):
        K = kernel_matrix(pts, pts, "rbf", gamma=0.3)
        eigvals = np.linalg.eigvalsh(K)
        assert eigvals.min() >= -1e-8
