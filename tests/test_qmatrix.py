"""Tests for the reduced LS-SVM system (Eq. 13/14/16)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.modeled import attach_devices, node_row_blocks
from repro.core.cg import conjugate_gradient, conjugate_gradient_block
from repro.core.kernels import kernel_matrix
from repro.core.qmatrix import (
    ExplicitQMatrix,
    ImplicitQMatrix,
    build_reduced_system,
    recover_bias_and_alpha,
    reduced_rhs,
)
from repro.data.synthetic import make_planes
from repro.exceptions import DataError, InvalidParameterError
from repro.io import ArrayRowSource, ChunkedDataset, write_binary_file
from repro.parallel.mpi_sim import NetworkSpec
from repro.parallel.partition import BlockRange
from repro.parameter import Parameter
from repro.simgpu.catalog import default_gpu
from repro.simgpu.device import SimulatedDevice
from repro.sparse import CSRMatrix


def _reference_qtilde(X, y, param):
    """Direct construction of Q_tilde from Eq. 16, element by element."""
    param = param.with_gamma_for(X.shape[1])
    kw = param.kernel_kwargs()
    m = X.shape[0]
    K = kernel_matrix(X, X, param.kernel, **kw)
    n = m - 1
    Q = np.empty((n, n))
    inv_c = 1.0 / param.cost
    for i in range(n):
        for j in range(n):
            Q[i, j] = (
                K[i, j]
                + (inv_c if i == j else 0.0)
                - K[m - 1, j]
                - K[i, m - 1]
                + K[m - 1, m - 1]
                + inv_c
            )
    return Q


@pytest.fixture(params=["linear", "polynomial", "rbf"])
def kernel_param(request):
    if request.param == "linear":
        return Parameter(kernel="linear", cost=2.0)
    if request.param == "polynomial":
        return Parameter(kernel="polynomial", cost=2.0, gamma=0.1, degree=2, coef0=1.0)
    return Parameter(kernel="rbf", cost=2.0, gamma=0.2)


class TestConstruction:
    def test_explicit_matches_eq16(self, planes_small, kernel_param):
        X, y = planes_small
        X, y = X[:20], y[:20]
        q = ExplicitQMatrix(X, y, kernel_param)
        assert np.allclose(q.to_dense(), _reference_qtilde(X, y, kernel_param))

    def test_implicit_matches_explicit(self, planes_small, kernel_param):
        X, y = planes_small
        X, y = X[:24], y[:24]
        explicit = ExplicitQMatrix(X, y, kernel_param)
        implicit = ImplicitQMatrix(X, y, kernel_param, tile_rows=5)
        v = np.linspace(-1, 1, X.shape[0] - 1)
        assert np.allclose(explicit.matvec(v), implicit.matvec(v), atol=1e-9)

    def test_qtilde_is_spd(self, planes_small, kernel_param):
        X, y = planes_small
        X, y = X[:30], y[:30]
        Q = ExplicitQMatrix(X, y, kernel_param).to_dense()
        assert np.allclose(Q, Q.T, atol=1e-9)
        assert np.linalg.eigvalsh(Q).min() > 0

    def test_shape_is_m_minus_one(self, planes_small, linear_param):
        X, y = planes_small
        q = ExplicitQMatrix(X, y, linear_param)
        assert q.shape == (X.shape[0] - 1, X.shape[0] - 1)

    def test_matvec_counts(self, planes_small, linear_param):
        X, y = planes_small
        q = ImplicitQMatrix(X, y, linear_param)
        v = np.ones(q.shape[0])
        q.matvec(v)
        q.matvec(v)
        assert q.num_matvecs == 2


class TestRhs:
    def test_reduced_rhs(self):
        y = np.array([1.0, -1.0, 1.0, -1.0])
        assert np.allclose(reduced_rhs(y), [2.0, 0.0, 2.0])

    def test_rhs_from_matrix(self, planes_small, linear_param):
        X, y = planes_small
        q = ExplicitQMatrix(X, y, linear_param)
        assert np.allclose(q.rhs(), y[:-1] - y[-1])


class TestValidation:
    def test_rejects_mismatched_lengths(self, linear_param):
        with pytest.raises(DataError):
            ExplicitQMatrix(np.ones((4, 2)), np.ones(3), linear_param)

    def test_rejects_single_point(self, linear_param):
        with pytest.raises(DataError):
            ExplicitQMatrix(np.ones((1, 2)), np.array([1.0]), linear_param)

    def test_rejects_non_binary_labels(self, linear_param):
        with pytest.raises(DataError):
            ExplicitQMatrix(np.ones((3, 2)), np.array([1.0, 2.0, -1.0]), linear_param)

    def test_rejects_single_class(self, linear_param):
        with pytest.raises(DataError):
            ExplicitQMatrix(np.ones((3, 2)), np.array([1.0, 1.0, 1.0]), linear_param)

    def test_rejects_nan_features(self, linear_param):
        X = np.ones((4, 2))
        X[2, 1] = np.nan
        with pytest.raises(DataError):
            ExplicitQMatrix(X, np.array([1.0, -1.0, 1.0, -1.0]), linear_param)

    def test_rejects_wrong_vector_length(self, planes_small, linear_param):
        X, y = planes_small
        q = ImplicitQMatrix(X, y, linear_param)
        with pytest.raises(DataError):
            q.matvec(np.ones(q.shape[0] + 1))

    def test_rejects_bad_tile_rows(self, planes_small, linear_param):
        X, y = planes_small
        with pytest.raises(DataError):
            ImplicitQMatrix(X, y, linear_param, tile_rows=0)


class TestBuildReducedSystem:
    def test_small_system_is_matrix_free(self, planes_small, linear_param):
        X, y = planes_small
        q, rhs = build_reduced_system(X, y, linear_param)
        assert isinstance(q, ImplicitQMatrix)
        assert rhs.shape == (X.shape[0] - 1,)
        dense = ExplicitQMatrix(X, y, linear_param)
        assert np.allclose(q.to_dense(), dense.to_dense())
        assert np.array_equal(rhs, dense.rhs())


class TestSolutionRecovery:
    def test_full_system_solution_satisfies_eq11(self, linear_param):
        """Solve the reduced system exactly and verify it satisfies Eq. 11."""
        X, y = make_planes(24, 4, rng=3)
        param = linear_param
        q = ExplicitQMatrix(X, y, param)
        alpha_bar = np.linalg.solve(q.to_dense(), q.rhs())
        alpha, bias = recover_bias_and_alpha(q, alpha_bar)

        # Eq. 11: [Q 1; 1^T 0] [alpha; b] = [y; 0] with Q = K + I/C.
        m = X.shape[0]
        K = kernel_matrix(X, X, param.kernel) + np.eye(m) / param.cost
        residual_rows = K @ alpha + bias - y
        assert np.allclose(residual_rows, 0.0, atol=1e-8)
        assert alpha.sum() == pytest.approx(0.0, abs=1e-9)

    def test_alpha_m_closes_constraint(self, planes_small, linear_param):
        X, y = planes_small
        q = ExplicitQMatrix(X, y, linear_param)
        alpha_bar = np.linspace(-1, 1, q.shape[0])
        alpha, _ = recover_bias_and_alpha(q, alpha_bar)
        assert alpha.shape[0] == X.shape[0]
        assert alpha.sum() == pytest.approx(0.0, abs=1e-10)

    def test_rejects_wrong_alpha_length(self, planes_small, linear_param):
        X, y = planes_small
        q = ExplicitQMatrix(X, y, linear_param)
        with pytest.raises(DataError):
            recover_bias_and_alpha(q, np.ones(q.shape[0] + 2))


class TestProperties:
    @given(
        n=st.integers(4, 16),
        d=st.integers(1, 4),
        cost=st.floats(0.1, 100.0),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_implicit_equals_explicit_linear(self, n, d, cost, seed):
        X, y = make_planes(n, d, rng=seed)
        param = Parameter(kernel="linear", cost=cost)
        explicit = ExplicitQMatrix(X, y, param)
        implicit = ImplicitQMatrix(X, y, param, tile_rows=3)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n - 1)
        a, b = explicit.matvec(v), implicit.matvec(v)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-9)

    @given(n=st.integers(4, 14), cost=st.floats(0.1, 50.0), seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_spd_property(self, n, cost, seed):
        X, y = make_planes(n, 3, rng=seed)
        param = Parameter(kernel="rbf", cost=cost, gamma=0.5)
        Q = ExplicitQMatrix(X, y, param).to_dense()
        v = np.random.default_rng(seed).standard_normal(n - 1)
        assert float(v @ Q @ v) > 0


# -- one parity matrix for the matrix-free operator ---------------------------
#
# ImplicitQMatrix is the only host-side matrix-free operator: the input type
# (dense / CSR / row source) picks how the kernel product is formed. The
# partition axis attaches a modeled cluster whose nodes own those rows; it
# prices the product and must not change one bit of it. Every combination
# must agree with the dense Eq. 16 system, at 1e-9 for the matvec and 1e-6
# for the CG solution.

PARITY_M = 90
PARITY_INPUTS = ["dense", "csr", "array_source", "chunked"]
#: partition -> the node row blocks of ``n`` reduced-system rows
PARITY_PARTITIONS = {
    "none": None,
    "shards1": lambda n: node_row_blocks(n, 1),
    "shards2": lambda n: node_row_blocks(n, 2),
    "shards7": lambda n: node_row_blocks(n, 7),
    "size41": lambda n: [BlockRange(s, min(s + 41, n)) for s in range(0, n, 41)],
}
PARITY_CASES = [
    pytest.param(source, partition, kernel, columns, id=f"{source}-{partition}-{kernel}-k{columns}")
    for source, partition, kernel, columns in itertools.product(
        PARITY_INPUTS, PARITY_PARTITIONS, ["linear", "polynomial", "rbf"], [1, 3]
    )
    # The CSR path exists for the linear kernel only (typed error below).
    if source != "csr" or kernel == "linear"
]


@pytest.fixture(scope="module")
def parity_data(tmp_path_factory):
    X, y = make_planes(PARITY_M, 6, rng=4)
    X[np.abs(X) < 0.3] = 0.0  # real zeros for the CSR input
    path = tmp_path_factory.mktemp("parity") / "planes.plsb"
    write_binary_file(path, X, y)
    return X, y, path


def _attach_cluster(op, row_blocks):
    """A modeled cluster over ``op``: one single-GPU node per row block."""
    nodes = [
        [SimulatedDevice(default_gpu(), "cuda", device_id=k)]
        for k in range(len(row_blocks))
    ]
    attach_devices(op, nodes, row_blocks=row_blocks, network=NetworkSpec())


class TestOperatorParity:
    @pytest.mark.parametrize("source,partition,kernel,columns", PARITY_CASES)
    def test_matches_explicit(self, parity_data, source, partition, kernel, columns):
        X, y, path = parity_data
        param = Parameter(kernel=kernel, cost=3.0, gamma=0.1)
        ref = ExplicitQMatrix(X, y, param)
        blocks = PARITY_PARTITIONS[partition]
        rng = np.random.default_rng(columns)
        V = rng.standard_normal((PARITY_M - 1, columns))
        if columns == 1:
            V = V[:, 0]
        rhs = np.column_stack([ref.rhs()] * columns) if columns > 1 else ref.rhs()
        if source == "chunked":
            # A block height that does not divide m.
            data = ChunkedDataset(path, block_rows=23)
        else:
            data = {
                "dense": X,
                "csr": CSRMatrix.from_dense(X),
                "array_source": ArrayRowSource(X, block_rows=17),
            }[source]
        try:
            # 16-row tiles: smaller than a row block, so a tile's rows
            # straddle block edges.
            op = ImplicitQMatrix(data, y, param, tile_rows=16)
            assert (op.source is not None) == (source in ("array_source", "chunked"))
            bare = ImplicitQMatrix(data, y, param, tile_rows=16)
            if blocks is not None:
                row_blocks = blocks(PARITY_M - 1)
                if partition == "size41":
                    assert [len(b) for b in row_blocks] == [41, 41, 7]
                _attach_cluster(op, row_blocks)
            if columns == 1:
                product = op.matvec(V)
                x = conjugate_gradient(op, rhs, epsilon=1e-10).x
                x_ref = conjugate_gradient(ref, rhs, epsilon=1e-10).x
                assert np.array_equal(product, bare.matvec(V))
                np.testing.assert_allclose(product, ref.matvec(V), atol=1e-9)
            else:
                product = op.matvec_multi(V)
                x = conjugate_gradient_block(op, rhs, epsilon=1e-10).X
                x_ref = conjugate_gradient_block(ref, rhs, epsilon=1e-10).X
                assert np.array_equal(product, bare.matvec_multi(V))
                np.testing.assert_allclose(product, ref.matvec_multi(V), atol=1e-9)
        finally:
            if source == "chunked":
                data.close()
        np.testing.assert_allclose(x, x_ref, atol=1e-6)

    def test_csr_rejects_nonlinear_kernel(self, parity_data):
        X, y, _ = parity_data
        with pytest.raises(InvalidParameterError, match="linear kernel"):
            ImplicitQMatrix(CSRMatrix.from_dense(X), y, Parameter(kernel="rbf", gamma=0.1))



class TestOneSweepForEveryInput:
    """The non-linear kernels sweep one triangle whatever holds the points:
    an array, an ``ArrayRowSource`` and a ``ChunkedDataset`` give the same
    bits for the product, the CG solution and the bias. The row blocks
    (17 and 23 rows) do not divide m, and the 16-row tiles are smaller
    than a block."""

    @pytest.mark.parametrize("kernel", ["polynomial", "rbf"])
    @pytest.mark.parametrize("columns", [1, 3])
    def test_bit_identical_across_inputs(self, parity_data, kernel, columns):
        X, y, path = parity_data
        param = Parameter(kernel=kernel, cost=3.0, gamma=0.1)
        V = np.random.default_rng(columns).standard_normal((PARITY_M - 1, columns))
        targets = np.column_stack(
            [y, np.where(X[:, 0] > 0, 1.0, -1.0), np.where(X[:, 1] > 0, 1.0, -1.0)]
        )
        outcomes = []
        with ChunkedDataset(path, block_rows=23) as chunked:
            for data in (X, ArrayRowSource(X, block_rows=17), chunked):
                op = ImplicitQMatrix(data, y, param, tile_rows=16)
                if columns == 1:
                    product = op.matvec(V[:, 0])
                    x = conjugate_gradient(op, op.rhs(), epsilon=1e-10).x
                    alpha, bias = recover_bias_and_alpha(op, x)
                else:
                    product = op.matvec_multi(V)
                    X_sol = conjugate_gradient_block(
                        op, reduced_rhs(targets), epsilon=1e-10
                    ).X
                    alpha, bias = recover_bias_and_alpha(op, X_sol, targets[-1])
                outcomes.append((product, alpha, np.asarray(bias)))
        dense, *streamed = outcomes
        for other in streamed:
            for got, want in zip(other, dense):
                assert np.array_equal(got, want)
