"""Tests for the partitioning, thread pool and reduction utilities."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.partition import (
    BlockRange,
    assert_cover,
    chunk_ranges,
    feature_split,
    round_up,
    tile_grid,
)
from repro.parallel.reduction import sum_partials, tree_reduce
from repro.parallel.thread_pool import (
    ThreadPool,
    available_threads,
    parallel_for,
    shared_pool,
)


class TestBlockRange:
    def test_len_and_iter(self):
        r = BlockRange(2, 5)
        assert len(r) == 3
        assert list(r) == [2, 3, 4]

    def test_slice(self):
        arr = np.arange(10)
        assert np.array_equal(arr[BlockRange(3, 6).slice], [3, 4, 5])

    def test_invalid(self):
        with pytest.raises(ValueError):
            BlockRange(5, 2)
        with pytest.raises(ValueError):
            BlockRange(-1, 2)


class TestRoundUp:
    @pytest.mark.parametrize(
        "value,multiple,expected",
        [(0, 4, 0), (1, 4, 4), (4, 4, 4), (5, 4, 8), (63, 64, 64), (65, 64, 128)],
    )
    def test_values(self, value, multiple, expected):
        assert round_up(value, multiple) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            round_up(5, 0)
        with pytest.raises(ValueError):
            round_up(-1, 4)


class TestChunkRanges:
    def test_even_split(self):
        ranges = chunk_ranges(12, 4)
        assert [len(r) for r in ranges] == [3, 3, 3, 3]
        assert_cover(ranges, 12)

    def test_uneven_split_front_loads_remainder(self):
        ranges = chunk_ranges(10, 3)
        assert [len(r) for r in ranges] == [4, 3, 3]
        assert_cover(ranges, 10)

    def test_more_chunks_than_items(self):
        ranges = chunk_ranges(2, 5)
        assert sum(len(r) for r in ranges) == 2
        assert len(ranges) == 5

    def test_invalid(self):
        with pytest.raises(ValueError):
            chunk_ranges(5, 0)

    @given(total=st.integers(0, 300), chunks=st.integers(1, 32))
    @settings(max_examples=50, deadline=None)
    def test_always_tiles_exactly(self, total, chunks):
        ranges = chunk_ranges(total, chunks)
        assert_cover(ranges, total)
        sizes = [len(r) for r in ranges]
        assert max(sizes) - min(sizes) <= 1


class TestFeatureSplit:
    def test_paper_example(self):
        # Ten-dimensional points on two GPUs -> two five-dimensional halves.
        splits = feature_split(10, 2)
        assert [len(s) for s in splits] == [5, 5]

    def test_drops_empty_devices(self):
        splits = feature_split(3, 8)
        assert len(splits) == 3
        assert all(len(s) == 1 for s in splits)

    def test_invalid(self):
        with pytest.raises(ValueError):
            feature_split(0, 2)
        with pytest.raises(ValueError):
            feature_split(4, 0)


class TestTileGrid:
    def test_full_grid_covers_matrix(self):
        tiles = tile_grid(10, 10, 4)
        covered = np.zeros((10, 10), dtype=int)
        for r, c in tiles:
            covered[r.slice, c.slice] += 1
        assert np.all(covered == 1)

    def test_triangular_grid_covers_upper_tiles_only(self):
        tiles = tile_grid(8, 8, 4, triangular=True)
        assert len(tiles) == 3  # 2x2 tile grid -> upper triangle has 3
        full = tile_grid(8, 8, 4)
        assert len(full) == 4

    def test_triangular_fraction_approaches_half(self):
        full = len(tile_grid(64, 64, 4))
        tri = len(tile_grid(64, 64, 4, triangular=True))
        assert tri == pytest.approx(full / 2, rel=0.1)

    def test_invalid_tile(self):
        with pytest.raises(ValueError):
            tile_grid(4, 4, 0)


class TestThreadPool:
    def test_map_blocks_results_in_order(self):
        pool = ThreadPool(4)
        results = pool.map_blocks(lambda r: (r.start, r.stop), 10)
        starts = [a for a, _ in results]
        assert starts == sorted(starts)
        pool.shutdown()

    def test_single_thread_serial_path(self):
        pool = ThreadPool(1)
        assert pool._executor is None
        out = pool.map_blocks(lambda r: len(r), 7)
        assert sum(out) == 7
        assert pool._executor is None  # never spun up

    def test_parallel_sum_matches_serial(self):
        data = np.arange(10_000, dtype=np.float64)
        partials = parallel_for(lambda r: float(data[r.slice].sum()), len(data), num_threads=3)
        assert sum(partials) == pytest.approx(data.sum())

    def test_map_tasks(self):
        pool = ThreadPool(2)
        assert pool.map_tasks(lambda x: x * x, [1, 2, 3]) == [1, 4, 9]
        pool.shutdown()

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            ThreadPool(0)

    def test_shared_pool_is_one_pool_per_thread_count(self):
        assert shared_pool(2) is shared_pool(2)
        assert shared_pool(3) is not shared_pool(2)
        assert shared_pool(None) is shared_pool(available_threads())

    def test_shared_pool_survives_concurrent_count_swaps(self):
        """Holders keep working while other callers ask for other counts.

        No caller may shut down a pool another pipeline still maps on: a
        lost pool surfaces as ``cannot schedule new futures after
        shutdown``, and every map must return its results in order.
        """
        errors = []
        stop = threading.Event()
        tasks = list(range(16))

        def hold():
            try:
                while not stop.is_set():
                    got = shared_pool(2).map_tasks(lambda t: t * t, tasks)
                    if got != [t * t for t in tasks]:
                        errors.append(f"results out of order: {got}")
            except Exception as exc:  # recorded for the main thread
                errors.append(repr(exc))

        def swap():
            try:
                while not stop.is_set():
                    shared_pool(3).map_tasks(lambda t: t, tasks)
                    shared_pool(2)
                    shared_pool(2).shutdown()
            except Exception as exc:
                errors.append(repr(exc))

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        workers = [threading.Thread(target=hold) for _ in range(3)]
        workers.append(threading.Thread(target=swap))
        try:
            for w in workers:
                w.start()
            time.sleep(1.0)
        finally:
            stop.set()
            for w in workers:
                w.join(timeout=30.0)
            sys.setswitchinterval(old_interval)
        assert not any(w.is_alive() for w in workers)
        assert errors == []

    def test_context_manager(self):
        with ThreadPool(2) as pool:
            pool.map_blocks(lambda r: None, 4)
        assert pool._executor is None

    def test_available_threads_env_override(self, monkeypatch):
        monkeypatch.setenv("PLSSVM_NUM_THREADS", "3")
        assert available_threads() == 3
        monkeypatch.setenv("PLSSVM_NUM_THREADS", "bogus")
        assert available_threads() >= 1


class TestReduction:
    def test_tree_reduce_sum(self):
        assert tree_reduce([1, 2, 3, 4, 5], lambda a, b: a + b) == 15

    def test_tree_reduce_single(self):
        assert tree_reduce([42], lambda a, b: a + b) == 42

    def test_tree_reduce_empty_raises(self):
        with pytest.raises(ValueError):
            tree_reduce([], lambda a, b: a + b)

    def test_sum_partials(self):
        parts = [np.ones(4), 2 * np.ones(4), 3 * np.ones(4)]
        assert np.allclose(sum_partials(parts), 6.0)

    def test_sum_partials_does_not_mutate_inputs(self):
        parts = [np.ones(3), np.ones(3)]
        sum_partials(parts)
        assert np.allclose(parts[0], 1.0)

    def test_sum_partials_shape_mismatch(self):
        with pytest.raises(ValueError):
            sum_partials([np.ones(3), np.ones(4)])

    def test_sum_partials_empty(self):
        with pytest.raises(ValueError):
            sum_partials([])

    def test_deterministic_order_independent_of_grouping(self):
        rng = np.random.default_rng(0)
        parts = [rng.standard_normal(16) for _ in range(7)]
        a = sum_partials(parts)
        b = sum_partials(parts)
        assert np.array_equal(a, b)
