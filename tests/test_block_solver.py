"""Tests for the shared kernel-tile pipeline and the block-CG solver stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cg import conjugate_gradient, conjugate_gradient_block
from repro.core.kernels import kernel_matrix, squared_row_norms
from repro.core.multiclass import OneVsAllLSSVC
from repro.core.qmatrix import ExplicitQMatrix, ImplicitQMatrix
from repro.core.tile_pipeline import TileCache, TilePipeline
from repro.data.synthetic import make_multiclass
from repro.exceptions import InvalidParameterError
from repro.parameter import Parameter
from repro.telemetry import reset_root_context, root_context
from repro.types import KernelType, SolverStatus

ALL_KERNELS = ["linear", "polynomial", "rbf", "sigmoid"]


def _param(kernel: str) -> Parameter:
    return Parameter(kernel=kernel, cost=10.0, gamma=0.05)


@pytest.fixture(autouse=True)
def _clean_counters():
    reset_root_context()
    yield
    reset_root_context()


class TestMatvecMulti:
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    @pytest.mark.parametrize("factory", [ExplicitQMatrix, ImplicitQMatrix])
    def test_matches_per_column_matvec(self, planes_small, kernel, factory):
        X, y = planes_small
        q = factory(X, y, _param(kernel))
        rng = np.random.default_rng(3)
        V = rng.standard_normal((q.shape[0], 5))
        batched = q.matvec_multi(V)
        columns = np.column_stack([q.matvec(V[:, j]) for j in range(V.shape[1])])
        np.testing.assert_allclose(batched, columns, rtol=1e-13, atol=1e-12)

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_threaded_backend_matches(self, planes_small, kernel):
        from repro.backends.openmp.backend import OpenMPCSVM

        X, y = planes_small
        backend = OpenMPCSVM(num_threads=2, tile_rows=32)
        q = backend.create_qmatrix(X, y, _param(kernel))
        ref = ExplicitQMatrix(X, y, _param(kernel))
        rng = np.random.default_rng(4)
        V = rng.standard_normal((q.shape[0], 3))
        np.testing.assert_allclose(
            q.matvec_multi(V), ref.matvec_multi(V), rtol=1e-12, atol=1e-11
        )

    def test_one_dim_operand_promoted(self, planes_small, linear_param):
        X, y = planes_small
        q = ImplicitQMatrix(X, y, linear_param)
        v = np.ones(q.shape[0])
        out = q.matvec_multi(v)
        assert out.shape == (q.shape[0], 1)
        np.testing.assert_allclose(out[:, 0], q.matvec(v))

    def test_counts_columns_as_matvecs(self, planes_small, linear_param):
        X, y = planes_small
        q = ImplicitQMatrix(X, y, linear_param)
        q.matvec_multi(np.ones((q.shape[0], 4)))
        assert q.num_matvecs == 4

    def test_to_dense_does_not_inflate_matvec_count(self, planes_small, rbf_param):
        X, y = planes_small
        for factory in (ExplicitQMatrix, ImplicitQMatrix):
            q = factory(X, y, rbf_param)
            q.to_dense()
            assert q.num_matvecs == 0


class TestBlockCG:
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_matches_independent_solves(self, planes_small, kernel):
        X, y = planes_small
        q = ExplicitQMatrix(X, y, _param(kernel))
        rng = np.random.default_rng(11)
        B = rng.standard_normal((q.shape[0], 4))
        block = conjugate_gradient_block(q, B, epsilon=1e-10)
        singles = np.column_stack(
            [
                conjugate_gradient(q, B[:, j], epsilon=1e-10).x
                for j in range(B.shape[1])
            ]
        )
        assert block.converged
        np.testing.assert_allclose(block.X, singles, rtol=1e-6, atol=1e-8)

    def test_rank_deficient_one_vs_all_rhs_converges(self):
        # One-vs-all targets: each row holds one +1 and k-1 -1s, so the
        # per-class right-hand sides sum to the zero vector — B is exactly
        # rank k-1. The rQ recursion must not break down on this.
        X, y = make_multiclass(300, 8, num_classes=4, rng=1)
        classes = np.unique(y)
        Y = np.stack([np.where(y == c, 1.0, -1.0) for c in classes], axis=1)
        q = ExplicitQMatrix(X, Y[:, 0], Parameter(kernel="rbf", cost=10.0))
        B = Y[:-1, :] - Y[-1:, :]
        assert np.linalg.matrix_rank(B) == 3
        result = conjugate_gradient_block(q, B, epsilon=1e-3)
        assert result.status is SolverStatus.CONVERGED
        assert np.all(result.residuals <= 1e-3)

    def test_one_sweep_per_iteration(self, planes_medium, rbf_param):
        X, y = planes_medium
        q = ImplicitQMatrix(X, y, rbf_param, tile_rows=64)
        rng = np.random.default_rng(5)
        B = rng.standard_normal((q.shape[0], 6))
        result = conjugate_gradient_block(q, B, epsilon=1e-6)
        sweeps = root_context().metrics.value("tile_sweeps")
        # One kernel-tile sweep per block iteration, NOT one per column:
        # a handful extra is allowed for residual recomputation restarts.
        assert result.iterations <= sweeps <= result.iterations + 2
        assert sweeps < result.iterations * B.shape[1]

    def test_zero_rhs_block(self, planes_small, linear_param):
        X, y = planes_small
        q = ExplicitQMatrix(X, y, linear_param)
        result = conjugate_gradient_block(q, np.zeros((q.shape[0], 3)))
        assert result.converged and result.iterations == 0
        assert not result.X.any()

    def test_zero_column_stays_zero(self, planes_small, linear_param):
        X, y = planes_small
        q = ExplicitQMatrix(X, y, linear_param)
        B = np.random.default_rng(6).standard_normal((q.shape[0], 3))
        B[:, 1] = 0.0
        result = conjugate_gradient_block(q, B, epsilon=1e-8)
        assert result.converged
        assert np.linalg.norm(result.X[:, 1]) == 0.0

    def test_jacobi_preconditioner(self, planes_small, rbf_param):
        X, y = planes_small
        q = ExplicitQMatrix(X, y, rbf_param)
        diag = np.diag(q.to_dense()).copy()
        B = np.random.default_rng(7).standard_normal((q.shape[0], 2))
        plain = conjugate_gradient_block(q, B, epsilon=1e-10)
        precond = conjugate_gradient_block(q, B, epsilon=1e-10, preconditioner=diag)
        assert precond.converged
        np.testing.assert_allclose(precond.X, plain.X, rtol=1e-6, atol=1e-8)

    def test_column_view(self, planes_small, linear_param):
        X, y = planes_small
        q = ExplicitQMatrix(X, y, linear_param)
        B = np.random.default_rng(8).standard_normal((q.shape[0], 2))
        result = conjugate_gradient_block(q, B, epsilon=1e-8)
        col = result.column(1)
        np.testing.assert_array_equal(col.x, result.X[:, 1])
        assert col.iterations == result.iterations
        assert col.residual == pytest.approx(result.residuals[1])

    def test_max_iter_defaults_to_twice_system_size(self, planes_small, linear_param):
        # The docstring promise: max_iter=None means max(2 * n, 10).
        X, y = planes_small
        q = ExplicitQMatrix(X, y, linear_param)
        n = q.shape[0]
        b = np.random.default_rng(9).standard_normal(n)
        iterations = []
        conjugate_gradient(
            q, b, epsilon=1e-15, warn_on_no_convergence=False,
            callback=lambda i, r: iterations.append(i),
        )
        assert iterations[-1] <= max(2 * n, 10)


class TestTileCache:
    def test_hit_miss_accounting(self):
        cache = TileCache(capacity_bytes=1 << 20)
        tile = np.ones((4, 4))
        assert cache.get(0) is None
        cache.put(0, tile)
        assert cache.get(0) is tile
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_under_budget(self):
        tile = np.ones((8, 8))  # 512 bytes
        cache = TileCache(capacity_bytes=2 * tile.nbytes)
        cache.put(0, tile)
        cache.put(1, tile)
        cache.get(0)  # 0 becomes most-recently-used
        cache.put(2, np.ones((8, 8)))
        assert cache.evictions == 1
        assert 1 not in cache and 0 in cache and 2 in cache
        assert cache.nbytes <= cache.capacity_bytes

    def test_oversized_tile_bypasses_cache(self):
        # A tile larger than the whole budget must not be retained: it
        # could never be evicted and would pin the cache over budget.
        cache = TileCache(capacity_bytes=1)
        evicted, oversized = cache.put(0, np.ones((16, 16)))
        assert oversized and evicted == 0
        assert len(cache) == 0
        assert cache.oversized == 1
        assert cache.nbytes <= cache.capacity_bytes
        assert cache.get(0) is None

    def test_invalid_capacity(self):
        with pytest.raises(InvalidParameterError):
            TileCache(capacity_bytes=0)


class TestTilePipeline:
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_sweep_matches_dense_kernel(self, planes_small, kernel):
        X, _ = planes_small
        pipe = TilePipeline(
            X, KernelType.from_name(kernel), gamma=0.05, tile_rows=17
        )
        rng = np.random.default_rng(12)
        V = rng.standard_normal((X.shape[0], 3))
        dense = kernel_matrix(X, X, KernelType.from_name(kernel), gamma=0.05)
        np.testing.assert_allclose(pipe.sweep(V), dense @ V, rtol=1e-12, atol=1e-11)
        v = rng.standard_normal(X.shape[0])
        out = pipe.sweep(v)
        assert out.shape == (X.shape[0],)
        np.testing.assert_allclose(out, dense @ v, rtol=1e-12, atol=1e-11)

    def test_cross_iteration_cache_reuse(self, planes_small):
        X, _ = planes_small
        pipe = TilePipeline(X, KernelType.RBF, gamma=0.05, tile_rows=32)
        assert pipe.cache_enabled
        V = np.ones((X.shape[0], 2))
        pipe.sweep(V)
        pipe.sweep(V)
        pipe.sweep(V)
        assert pipe.tiles_computed == pipe.num_tiles  # computed once only
        assert pipe.cache.hits == 2 * pipe.num_tiles
        counters = root_context().solver_counters_dict()
        assert counters["tile_sweeps"] == 3
        assert counters["cache_hits"] == 2 * pipe.num_tiles

    def test_cache_disabled_above_budget(self, planes_medium):
        X, _ = planes_medium
        working_set_mb = X.shape[0] ** 2 * 8 / 2**20
        pipe = TilePipeline(
            X, KernelType.RBF, gamma=0.05, cache_mb=working_set_mb / 4
        )
        assert not pipe.cache_enabled
        assert "cache_hits" not in pipe.stats()

    def test_force_cache_partial_lru(self, planes_medium):
        X, _ = planes_medium
        working_set_mb = X.shape[0] ** 2 * 8 / 2**20
        pipe = TilePipeline(
            X,
            KernelType.RBF,
            gamma=0.05,
            tile_rows=64,
            cache_mb=working_set_mb / 4,
            force_cache=True,
        )
        assert pipe.cache_enabled
        V = np.ones((X.shape[0], 1))
        pipe.sweep(V)
        pipe.sweep(V)
        # The cache holds only a quarter of the tiles: sequential sweeps
        # must evict, and recomputation exceeds the tile count.
        assert pipe.cache.evictions > 0
        assert pipe.tiles_computed > pipe.num_tiles

    def test_cache_mb_zero_disables(self, planes_small):
        X, _ = planes_small
        pipe = TilePipeline(X, KernelType.RBF, gamma=0.05, cache_mb=0.0)
        assert not pipe.cache_enabled

    def test_validates_arguments(self, planes_small):
        X, _ = planes_small
        with pytest.raises(InvalidParameterError):
            TilePipeline(X, KernelType.RBF, gamma=0.05, tile_rows=0)
        with pytest.raises(InvalidParameterError):
            TilePipeline(X, KernelType.RBF, gamma=0.05, cache_mb=-1.0)
        pipe = TilePipeline(X, KernelType.LINEAR)
        with pytest.raises(InvalidParameterError):
            pipe.sweep(np.ones(X.shape[0] + 1))


class TestTriangularSweep:
    """The in-memory sweep walks the upper triangle of square tiles."""

    # 203 points with 16-point tiles: 13 block rows, the last one ragged.
    N, EDGE = 203, 16

    @pytest.fixture(scope="class")
    def points(self):
        return np.random.default_rng(21).standard_normal((self.N, 5))

    @pytest.mark.parametrize("kernel", ["rbf", "polynomial", "linear"])
    @pytest.mark.parametrize("columns", [None, 3])
    @pytest.mark.parametrize("cache_mb", [None, 0.0])
    def test_bit_identical_for_any_thread_count(self, points, kernel, columns, cache_mb):
        rng = np.random.default_rng(22)
        shape = self.N if columns is None else (self.N, columns)
        V = rng.standard_normal(shape)
        results = []
        for threads in (1, 2, 3):
            pipe = TilePipeline(
                points, kernel, gamma=0.1, tile_rows=self.EDGE,
                num_threads=threads, cache_mb=cache_mb,
            )
            assert pipe.cache_enabled == (cache_mb is None)
            results += [pipe.sweep(V), pipe.sweep(V)]  # computed, then replayed
        for result in results[1:]:
            np.testing.assert_array_equal(result, results[0])
        dense = kernel_matrix(points, points, KernelType.from_name(kernel), gamma=0.1)
        np.testing.assert_allclose(results[0], dense @ V, rtol=1e-12, atol=1e-11)

    @pytest.mark.parametrize("kernel", ["rbf", "polynomial", "linear"])
    def test_matches_blocked_reference_and_explicit_q(self, planes_small, kernel):
        from repro.backends.blocked_reference import blocked_kernel_matvec

        X, y = planes_small
        param = Parameter(kernel=kernel, cost=10.0, gamma=0.05)
        v = np.random.default_rng(23).standard_normal(X.shape[0] - 1)
        pipe = TilePipeline(X[:-1], kernel, gamma=0.05, tile_rows=self.EDGE, num_threads=2)
        reference = blocked_kernel_matvec(X[:-1], v, KernelType.from_name(kernel), gamma=0.05)
        np.testing.assert_allclose(pipe.sweep(v), reference, rtol=1e-12, atol=1e-10)
        implicit = ImplicitQMatrix(X, y, param, tile_rows=self.EDGE, solver_threads=2)
        np.testing.assert_allclose(
            implicit.matvec(v), ExplicitQMatrix(X, y, param).matvec(v), rtol=1e-12, atol=1e-10
        )

    @pytest.mark.parametrize("tile_cache_mb", [None, 0.0])
    def test_seeded_fit_bit_identical_for_any_thread_count(self, tile_cache_mb):
        from repro import LSSVC
        from repro.data.synthetic import make_planes
        from repro.parameter import ResourceConfig

        # 1099 reduced rows: three block rows of the default 512-point edge.
        X, y = make_planes(1100, 8, rng=3)
        alphas = [
            LSSVC(
                kernel="rbf", C=1.0,
                resources=ResourceConfig(solver_threads=threads, tile_cache_mb=tile_cache_mb),
            ).fit(X, y).model_.alpha
            for threads in (1, 2, 3)
        ]
        for alpha in alphas[1:]:
            np.testing.assert_array_equal(alpha, alphas[0])

    def test_tile_count_is_the_triangle(self, points):
        pipe = TilePipeline(points, "rbf", gamma=0.1, tile_rows=self.EDGE)
        nb = -(-self.N // self.EDGE)
        assert pipe.edge == self.EDGE
        assert pipe.num_tiles == nb * (nb + 1) // 2
        pipe.sweep(np.ones(self.N))
        assert pipe.tiles_computed == pipe.num_tiles
        # The second sweep replays every tile from the cache.
        pipe.sweep(np.ones(self.N))
        assert pipe.tiles_computed == pipe.num_tiles
        assert root_context().solver_counters_dict()["tiles_computed"] == pipe.num_tiles

    def test_default_edge_fits_the_tile_budget(self, points):
        from repro.core.tile_pipeline import TILE_BYTES

        pipe = TilePipeline(points, "rbf", gamma=0.1)
        assert pipe.edge == 512  # float64, under the default tile_rows of 1024
        assert pipe.edge**2 * 8 <= TILE_BYTES
        assert TilePipeline(points, "rbf", gamma=0.1, compute_dtype=np.float32).edge == 724

    def test_cache_switched_by_the_triangle_bytes(self, points):
        nb = -(-self.N // self.EDGE)
        ragged = self.N - (nb - 1) * self.EDGE
        # Full tiles above the diagonal, then the ragged last block column.
        entries = (nb - 1) * nb // 2 * self.EDGE**2 + (nb - 1) * self.EDGE * ragged
        entries += ragged**2
        triangle_mb = entries * 8 / 2**20
        square_mb = self.N**2 * 8 / 2**20

        def cached(cache_mb):
            return TilePipeline(
                points, "rbf", gamma=0.1, tile_rows=self.EDGE, cache_mb=cache_mb
            ).cache_enabled

        assert triangle_mb < 0.6 * square_mb
        assert cached(triangle_mb)
        assert not cached(triangle_mb * 0.999)


class TestKernelMatrixTilesEdges:
    """Edge cases of the pipeline's tiling (tile height vs point count)."""

    def test_tile_rows_at_least_m_yields_single_tile(self, planes_small):
        X, _ = planes_small
        pipe = TilePipeline(X, KernelType.RBF, gamma=0.05, tile_rows=10 * len(X))
        assert pipe.tiles == [(0, len(X))]
        assert pipe.num_tiles == 1
        np.testing.assert_allclose(
            pipe.sweep(np.eye(len(X))), kernel_matrix(X, X, KernelType.RBF, gamma=0.05)
        )

    def test_tile_rows_one(self, planes_small):
        X, _ = planes_small
        a = X[:7]
        dense = kernel_matrix(a, X, KernelType.POLYNOMIAL, gamma=0.05)
        pipe = TilePipeline(X, KernelType.POLYNOMIAL, gamma=0.05, tile_rows=1)
        # One-point tiles: the upper triangle of an m x m grid.
        assert pipe.num_tiles == len(X) * (len(X) + 1) // 2
        assert all(stop - start == 1 for start, stop in pipe.tiles)
        np.testing.assert_allclose(
            pipe.cross_sweep(a, np.eye(len(X))), dense
        )
        np.testing.assert_allclose(
            pipe.sweep(np.eye(len(X)))[:7], dense
        )

    def test_empty_second_operand(self, planes_small):
        X, _ = planes_small
        empty = TilePipeline(np.empty((0, X.shape[1])), KernelType.LINEAR, tile_rows=32)
        assert empty.num_tiles == 0
        out = empty.cross_sweep(X, np.empty(0))
        assert out.shape == (len(X),)
        assert not out.any()

    def test_precomputed_norms_match(self, planes_small):
        X, _ = planes_small
        pipe = TilePipeline(X, KernelType.RBF, gamma=0.05, tile_rows=16)
        np.testing.assert_array_equal(pipe.row_norms, squared_row_norms(X))
        np.testing.assert_allclose(
            pipe.sweep(np.eye(len(X))),
            kernel_matrix(X, X, KernelType.RBF, gamma=0.05),
            rtol=1e-12, atol=1e-12,
        )


class TestSolverCounters:
    def test_reset_and_exposure(self):
        ctx = root_context()
        ctx.inc("tile_sweeps", 3)
        ctx.inc("cache_hits", 9)
        ctx.inc("cache_misses", 1)
        snapshot = ctx.solver_counters_dict()
        assert snapshot["cache_hit_rate"] == pytest.approx(0.9)
        assert snapshot["tile_sweeps"] == 3 and snapshot["cache_hits"] == 9
        reset_root_context()
        assert root_context().solver_counters_dict()["tile_sweeps"] == 0
        assert root_context().solver_counters_dict()["cache_hit_rate"] == 0.0

    def test_shared_multiclass_fit_populates_counters(self):
        X, y = make_multiclass(150, 6, num_classes=3, rng=2)
        clf = OneVsAllLSSVC(kernel="rbf", C=10.0)
        clf.fit(X, y)
        counters = root_context().solver_counters_dict()
        assert counters["tile_sweeps"] > 0
        assert counters["cache_hits"] > 0  # cross-iteration tile reuse


@pytest.mark.slow
def test_bench_solver_harness(tmp_path):
    """End-to-end smoke of the solver campaign at miniature sizes."""
    from repro.campaign import CampaignRunner, ResultsStore, solver_campaign

    spec = solver_campaign(points=200, solver_points=150, features=6, classes=3)
    store = ResultsStore(tmp_path / "solver.jsonl")
    run = CampaignRunner(spec, store).run(resume=False)
    assert not run.failed
    report = run.report(config=spec.config)
    assert store.path.exists()
    scenarios = report["scenarios"]
    assert scenarios["single_vs_block"]["block_tile_sweeps"] > 0
    assert scenarios["multiclass"]["shared_accuracy"] > 0.9
