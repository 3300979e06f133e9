"""Shared kernel-tile pipeline: compute each tile once, reuse it everywhere.

The implicit matvec of §III-B is the solver's hot loop: every CG iteration
re-evaluates the whole kernel matrix tile by tile. This module amortizes
that work along four axes (the multi-RHS batching of Tyree et al.,
*Parallel Support Vector Machines in Practice*, and the cache-centric
recipe of Glasmachers, *A Recipe for Fast Large-scale SVM Training*):

* **across cache levels and symmetry** — like the paper's blocked kernels
  (§III-C1), :meth:`TilePipeline.sweep` walks only the upper triangle of
  square ``edge × edge`` tiles, with ``edge`` sized so one tile fits
  :data:`TILE_BYTES` (about a per-core L2; 512 in float64). Every
  elementwise pass of a tile then runs from cache, and each off-diagonal
  tile is applied twice while it is there, as ``K_IJ @ V_J`` and
  ``K_IJᵀ @ V_I`` — half the kernel evaluations of a full sweep;
* **across right-hand sides** — a sweep accepts a whole matrix ``V`` of
  vectors, turning the per-tile GEMV into a GEMM, so block CG pays one
  tile sweep per iteration however many systems it carries;
* **across threads** — the tiles are split into a fixed number of lanes
  that the :class:`repro.parallel.ThreadPool` workers run concurrently
  (a BLAS product plus vectorized transcendentals per tile, all releasing
  the GIL). Each lane sums its products into its own partial output and
  the partials are folded in a fixed order through
  :func:`repro.parallel.reduction.sum_partials`, so a seeded sweep is
  bit-identical for every worker count;
* **across iterations** — a byte-budgeted LRU :class:`TileCache` (modeled
  on :class:`repro.smo.kernel_cache.KernelCache`) keeps computed tiles, so
  every sweep after the first replays cached products instead of
  recomputing kernels. Caching defaults *off* when the triangle's tiles
  exceed the byte budget: a sequential sweep over a working set larger
  than the cache evicts every tile before its reuse, so a too-small cache
  is pure overhead.

The radial kernel's ``||x||²`` row norms are precomputed once per pipeline
and sliced per tile (§III-C2's caching idea applied host-side) instead of
being recomputed for every tile of every sweep.

The point set may be an in-memory array or a row source
(:class:`repro.io.chunked.ChunkedDataset` / ``ArrayRowSource``, read one
tile's rows at a time), and the columns may be split into sample shards,
following Tyree et al.'s row-partitioned scheme: shard ``J`` owns the
columns ``J`` and the slice ``V[J]``, streams every row tile against its
columns in ``edge``-wide blocks, and produces a full-length partial
``K[:, J] @ V[J]``; the partials are combined with the deterministic
allreduce of :mod:`repro.parallel.reduction`, folded in bounded groups.
Peak memory stays a few tiles plus O(m) vectors either way.

A ``compute_dtype`` knob adds mixed precision (Glasmachers' observation
that reduced-precision kernel storage is the cheapest way to double
effective cache capacity and bandwidth): tiles are evaluated and cached in
``float32`` while sweep results are accumulated back into the ``float64``
the solver's recursion and termination criterion run in.

All activity is reported through the active
:class:`repro.telemetry.TelemetryContext` (resolved per sweep in the
calling thread), so each fit's ``report_`` sees only its own sweeps while
the process-wide aggregate keeps benchmarks honest without plumbing.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InvalidParameterError
from ..membudget import active_memory_budget
from ..parallel.partition import chunk_ranges, tile_grid
from ..parallel.reduction import sum_partials
from ..parallel.thread_pool import shared_pool
from ..telemetry.context import current_context
from ..types import KernelType
from .kernels import kernel_matrix, squared_row_norms, validate_kernel_params

__all__ = ["TileCache", "TilePipeline", "DEFAULT_TILE_CACHE_MB", "TILE_BYTES"]

#: Default byte budget of the cross-iteration tile cache (in MiB). Only the
#: upper triangle of tiles is kept, so problems up to ~7900 points cache
#: fully in float64; larger problems fall back to recompute-per-sweep
#: exactly like the paper's GPU kernels.
DEFAULT_TILE_CACHE_MB = 256.0

#: Byte budget of one kernel tile, about a per-core L2 cache: a tile's
#: elementwise passes (distance assembly, clip, scale, exp, cast) and its
#: products run from cache instead of streaming from DRAM. It sets the
#: sweep's square tile edge (512 in float64) and the height of a
#: prediction query tile (32 rows against 8192 support vectors).
TILE_BYTES = 2 * 1024 * 1024

#: A triangular sweep splits its tiles into this many lanes, each summing
#: into its own partial output. The count is fixed, not the worker count,
#: so the fold order (and every result bit) is the same on any pool.
_SWEEP_LANES = 8

#: A sharded sweep folds its partial outputs through the allreduce once
#: this many accumulate, bounding the combine step at that many vectors.
_FOLD_PARTIALS = 8


def _prediction_tile_rows(num_points: int, dtype) -> int:
    """Query-tile height of a prediction cross sweep over ``num_points`` points."""
    per_row = max(1, num_points) * np.dtype(dtype).itemsize
    return max(1, min(1024, TILE_BYTES // per_row))


class TileCache:
    """Byte-budgeted LRU cache mapping tile index -> kernel tile.

    The SMO cache (:class:`repro.smo.kernel_cache.KernelCache`) budgets
    fixed-size rows; tiles vary in height (the last tile is usually
    ragged), so this variant tracks actual bytes. Eviction pops the
    least-recently-used tile until the new tile fits. A tile that is
    *alone* larger than the whole budget bypasses the cache entirely
    (counted in ``oversized``) — previously it was retained anyway and sat
    permanently over budget. ``nbytes <= capacity_bytes`` is an invariant.

    Thread-safe: pipeline workers probe and fill the cache concurrently.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise InvalidParameterError("capacity_bytes must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self._tiles: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.oversized = 0

    def get(self, key: int) -> Optional[np.ndarray]:
        """Return the cached tile or ``None``, counting the hit/miss."""
        with self._lock:
            tile = self._tiles.get(key)
            if tile is not None:
                self.hits += 1
                self._tiles.move_to_end(key)
                return tile
            self.misses += 1
            return None

    def put(self, key: int, tile: np.ndarray) -> Tuple[int, bool]:
        """Insert a tile, evicting LRU entries until it fits the budget.

        Returns ``(evicted_count, oversized)`` for the caller's per-call
        accounting: how many tiles this insertion evicted, and whether the
        tile bypassed the cache because it alone exceeds the budget.
        """
        with self._lock:
            if tile.nbytes > self.capacity_bytes:
                # Caching it would pin the cache over budget forever (it can
                # never be evicted down past itself); skip it instead.
                self.oversized += 1
                return 0, True
            if key in self._tiles:
                self._tiles.move_to_end(key)
                return 0, False
            self._tiles[key] = tile
            self._bytes += tile.nbytes
            evicted_count = 0
            while self._bytes > self.capacity_bytes:
                _, evicted = self._tiles.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.evictions += 1
                evicted_count += 1
            return evicted_count, False

    def __contains__(self, key: int) -> bool:
        with self._lock:
            return key in self._tiles

    def __len__(self) -> int:
        with self._lock:
            return len(self._tiles)

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._bytes

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            self._tiles.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.oversized = 0


class _SweepStats:
    """Per-sweep cache/compute tallies, accumulated locally by the workers.

    Concurrent sweeps used to reconstruct their deltas from before/after
    snapshots of the shared cache counters — two interleaved sweeps then
    double- or under-counted the flushed deltas. Counting each sweep's own
    events in an object private to the sweep makes the flush into the
    active telemetry context exact regardless of interleaving.
    """

    __slots__ = ("lock", "hits", "misses", "evictions", "oversized", "computed")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.oversized = 0
        self.computed = 0


class TilePipeline:
    """Threaded, cached evaluation of ``K @ V`` over fixed kernel rows.

    One pipeline is bound to one row/column point set (the solver's
    ``X_bar``) and lives as long as its Q-matrix operator, i.e. across all
    CG iterations of a solve — that persistence is what makes the norm
    precomputation and the tile cache pay off.

    Parameters
    ----------
    points:
        The point set; the pipeline evaluates ``K[i, j] = k(p_i, p_j)``.
        An array is held in memory; a row source (``ChunkedDataset`` /
        ``ArrayRowSource``) is streamed one tile at a time.
    kernel, gamma, degree, coef0:
        Kernel selection and coefficients (gamma must already be resolved).
    tile_rows:
        Caps the square tile edge, which is otherwise the largest that
        keeps one tile within :data:`TILE_BYTES`; uncached peak memory is
        ``edge²`` kernel entries per worker plus a fixed number of
        ``len(points) × k`` partial outputs.
    num_threads:
        Worker count of the shared pool to attach to; ``None`` resolves
        like an OpenMP runtime (``PLSSVM_NUM_THREADS`` / CPU count).
    cache_mb:
        Byte budget (MiB) of the cross-iteration tile cache. ``0`` disables
        caching; ``None`` uses :data:`DEFAULT_TILE_CACHE_MB`, clamped to a
        quarter of an active memory budget. When the sweep's tiles (the
        upper triangle, or every shard's blocks) exceed the budget the
        cache also stays off (see module docstring) unless
        ``force_cache=True`` opts into partial LRU caching anyway.
    dtype:
        Element type of the sweep *results* (the CG working precision).
    compute_dtype:
        Element type tiles are evaluated and cached in. ``float32`` tiles
        halve the cache's bytes per tile — roughly doubling the problem
        size that still caches fully within the budget — and halve the
        GEMM bandwidth, while sweep results are still accumulated into
        ``dtype`` so the solver's recursion, reductions, and termination
        test keep their precision. ``None`` keeps tiles in ``dtype``.
    shards:
        Sample shards of the columns, as :class:`repro.parallel.BlockRange`
        index ranges (see module docstring). ``None`` sweeps the upper
        triangle of tiles over every point.
    """

    def __init__(
        self,
        points,
        kernel: KernelType,
        *,
        gamma: Optional[float] = None,
        degree: int = 3,
        coef0: float = 0.0,
        tile_rows: int = 1024,
        num_threads: Optional[int] = None,
        cache_mb: Optional[float] = None,
        force_cache: bool = False,
        dtype=np.float64,
        compute_dtype=None,
        shards: Optional[Sequence] = None,
    ) -> None:
        from ..io.chunked import is_row_source  # deferred: io imports core

        if tile_rows <= 0:
            raise InvalidParameterError("tile_rows must be positive")
        if cache_mb is not None and cache_mb < 0:
            raise InvalidParameterError("cache_mb must be non-negative")
        self.kernel = KernelType.from_name(kernel)
        validate_kernel_params(self.kernel, gamma, degree, coef0)
        self.gamma = gamma
        self.degree = degree
        self.coef0 = coef0
        self.tile_rows = int(tile_rows)
        self.dtype = np.dtype(dtype)
        self.compute_dtype = (
            self.dtype if compute_dtype is None else np.dtype(compute_dtype)
        )
        if self.compute_dtype.kind != "f":
            raise InvalidParameterError(
                f"compute_dtype must be a floating dtype, got {self.compute_dtype}"
            )
        if is_row_source(points):
            # Streamed: rows are read (and cast) per tile, never held whole.
            self.points = points
            self._points_c = None
        else:
            self.points = np.ascontiguousarray(points, dtype=dtype)
            if self.points.ndim != 2:
                raise InvalidParameterError("points must be a 2-D array")
            # Tile evaluation runs entirely in compute_dtype: casting the
            # points once here keeps every per-tile GEMM and transcendental
            # in the reduced precision instead of paying a downcast per
            # tile per sweep.
            self._points_c = (
                self.points
                if self.compute_dtype == self.dtype
                else np.ascontiguousarray(self.points, dtype=self.compute_dtype)
            )
        n = int(self.points.shape[0])
        #: Square tile edge: the largest within TILE_BYTES, capped by tile_rows.
        self.edge = max(
            1, min(self.tile_rows, math.isqrt(TILE_BYTES // self.compute_dtype.itemsize))
        )
        #: Row spans of height ``edge``.
        self.tiles: List[Tuple[int, int]] = [
            (start, min(start + self.edge, n)) for start in range(0, n, self.edge)
        ]
        # The edge-wide column blocks of each shard; without shards the
        # sweep walks the upper triangle (:attr:`_triangle`).
        self._shard_blocks: Optional[List[List[Tuple[int, int]]]] = None
        if shards is not None:
            self._shard_blocks = [
                [
                    (c, min(c + self.edge, shard.stop))
                    for c in range(shard.start, shard.stop, self.edge)
                ]
                for shard in shards
                if len(shard) > 0
            ]
        # Reusable RBF row norms: computed once, sliced per tile per sweep.
        self.row_norms: Optional[np.ndarray] = None
        if self.kernel is KernelType.RBF:
            self.row_norms = np.empty(n, dtype=self.compute_dtype)
            for start, stop in self.tiles:
                self.row_norms[start:stop] = squared_row_norms(self._rows(start, stop))
        # Attach to the module-wide shared pool rather than spawning one per
        # operator: pipelines are created per fit, worker threads are not.
        self.pool = shared_pool(num_threads)
        if cache_mb is None:
            capacity = int(DEFAULT_TILE_CACHE_MB * 1024 * 1024)
            budget = active_memory_budget()
            if budget is not None:
                # The default cache must not become the thing that blows
                # the budget: it gets a quarter, the rest is left to
                # streamed blocks and solver vectors.
                capacity = min(capacity, budget // 4)
        else:
            capacity = int(cache_mb * 1024 * 1024)
        if self._shard_blocks is None:
            # Sum over I <= J of |I| |J|: half of n² plus the diagonal's half.
            entries = (n * n + sum((stop - start) ** 2 for start, stop in self.tiles)) // 2
        else:
            entries = n * sum(c1 - c0 for blocks in self._shard_blocks for c0, c1 in blocks)
        working_set = entries * self.compute_dtype.itemsize
        self.cache: Optional[TileCache] = None
        if capacity > 0 and (working_set <= capacity or force_cache):
            self.cache = TileCache(capacity)
        # Instance counters (the telemetry context aggregates these).
        self.sweeps = 0
        self.tiles_computed = 0
        self._count_lock = threading.Lock()

    @property
    def num_tiles(self) -> int:
        """Tiles evaluated (or replayed from the cache) by one sweep.

        Without shards these are the ``nb (nb + 1) / 2`` upper-triangle
        tiles of ``nb = ceil(len(points) / edge)`` block rows, each
        off-diagonal one applied twice.
        """
        if self._shard_blocks is None:
            return len(self.tiles) * (len(self.tiles) + 1) // 2
        return len(self.tiles) * sum(len(blocks) for blocks in self._shard_blocks)

    @functools.cached_property
    def _triangle(self) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
        """The upper-triangle tiles as ``((row span), (column span))``.

        Listed on the first sweep: a serving pipeline never sweeps, and its
        query-height edge would make the list huge.
        """
        n = self.points.shape[0]
        return [
            ((r.start, r.stop), (c.start, c.stop))
            for r, c in tile_grid(n, n, self.edge, triangular=True)
        ]

    @property
    def cache_enabled(self) -> bool:
        return self.cache is not None

    def _rows(self, start: int, stop: int) -> np.ndarray:
        """Points ``[start, stop)`` in ``compute_dtype``."""
        if self._points_c is not None:
            return self._points_c[start:stop]
        return np.asarray(self.points.row_block(start, stop), dtype=self.compute_dtype)

    def _tile(
        self,
        rows: Tuple[int, int],
        cols: Tuple[int, int],
        stats: _SweepStats,
        col_points: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Kernel tile of the points ``rows`` against the points ``cols``.

        Served from the cache when enabled; ``col_points`` are the column
        points in ``compute_dtype`` when the caller has them at hand.
        """
        key = (rows[0], cols[0])
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                with stats.lock:
                    stats.hits += 1
                return cached
            with stats.lock:
                stats.misses += 1
        norms = self.row_norms
        tile = kernel_matrix(
            self._rows(*rows),
            self._rows(*cols) if col_points is None else col_points,
            self.kernel,
            gamma=self.gamma,
            degree=self.degree,
            coef0=self.coef0,
            a_sq=None if norms is None else norms[rows[0]:rows[1]],
            b_sq=None if norms is None else norms[cols[0]:cols[1]],
        ).astype(self.compute_dtype, copy=False)
        with self._count_lock:
            self.tiles_computed += 1
        with stats.lock:
            stats.computed += 1
        if self.cache is not None:
            evicted, oversized = self.cache.put(key, tile)
            with stats.lock:
                stats.evictions += evicted
                stats.oversized += int(oversized)
        return tile

    def _sweep_triangle(self, V: np.ndarray, stats: _SweepStats) -> List[np.ndarray]:
        """The lanes' partial ``K @ V`` outputs over the upper-triangle tiles.

        Lane ``l`` owns a contiguous run of tiles and one partial, so no
        output is written by two workers; a diagonal tile ``K_II``
        contributes ``K_II @ V_I``, an off-diagonal one both ``K_IJ @ V_J``
        and, by symmetry, ``K_IJᵀ @ V_I``.
        """
        triangle = self._triangle
        n, k = V.shape

        def run(lane) -> np.ndarray:
            partial = np.zeros((n, k), dtype=self.dtype)
            for rows, cols in triangle[lane.slice]:
                tile = self._tile(rows, cols, stats)
                partial[rows[0]:rows[1]] += tile @ V[cols[0]:cols[1]]
                if rows != cols:
                    partial[cols[0]:cols[1]] += tile.T @ V[rows[0]:rows[1]]
            return partial

        lanes = [lane for lane in chunk_ranges(len(triangle), _SWEEP_LANES) if len(lane)]
        return self.pool.map_tasks(run, lanes)

    def _sweep_shard(
        self,
        blocks: List[Tuple[int, int]],
        V: np.ndarray,
        target: np.ndarray,
        stats: _SweepStats,
    ) -> None:
        """``target = K[:, shard] @ V[shard]``, one column block at a time."""
        for b, block in enumerate(blocks):
            cols = self._rows(*block)
            Vb = V[block[0]:block[1]]

            def run(index: int, first: bool = b == 0) -> None:
                start, stop = rows = self.tiles[index]
                # Row tiles are disjoint in target, so workers don't race.
                if first:
                    target[start:stop] = self._tile(rows, block, stats, cols) @ Vb
                else:
                    target[start:stop] += self._tile(rows, block, stats, cols) @ Vb

            self.pool.map_tasks(run, range(len(self.tiles)))

    def _operands(self, V, rows: int, out, product: str):
        """Validate ``V`` and ``out``; return ``(V2, out2, result)``.

        ``V2`` is ``V`` as a contiguous 2-D block in ``compute_dtype``: the
        per-tile GEMM runs in the compute precision and is upcast on
        assignment into the ``dtype`` output, so everything downstream of
        the sweep stays full precision. Workers assign 2-D tile products
        into ``out2``, a 2-D view of the returned ``result`` (``rows`` long
        for a vector ``V``, ``rows × k`` for a block). A caller's ``out``
        is validated up front: a shape/dtype mismatch would otherwise
        surface as an opaque broadcast error inside the pool.
        """
        n = self.points.shape[0]
        V = np.asarray(V, dtype=self.dtype)
        squeeze = V.ndim == 1
        V2 = V[:, None] if squeeze else V
        if V2.ndim != 2 or V2.shape[0] != n:
            raise InvalidParameterError(
                f"operand of shape {V.shape} does not match {n} pipeline rows"
            )
        V2 = np.ascontiguousarray(V2, dtype=self.compute_dtype)
        k = V2.shape[1]
        if out is None:
            out2 = np.empty((rows, k), dtype=self.dtype)
            return V2, out2, (out2[:, 0] if squeeze else out2)
        expected = (rows,) if squeeze else (rows, k)
        if not isinstance(out, np.ndarray) or out.shape != expected:
            got = out.shape if isinstance(out, np.ndarray) else type(out).__name__
            raise InvalidParameterError(
                f"out must be a numpy array of shape {expected} to receive "
                f"{product}, got {got}"
            )
        if out.dtype != self.dtype:
            raise InvalidParameterError(
                f"out must have dtype {self.dtype}, got {out.dtype}"
            )
        return V2, (out[:, None] if squeeze else out), out

    def sweep(self, V: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Compute ``K @ V`` with one pass over the tiles.

        ``V`` may be a vector ``(n,)`` or a block of right-hand sides
        ``(n, k)``; the sweep cost is one tile evaluation pass either way —
        that invariant is what block CG banks on.

        ``out``, when given, must be a NumPy array with the result's exact
        shape (``(n,)`` for a vector ``V``, ``(n, k)`` for a block) and the
        pipeline's ``dtype``; the sweep writes into it and returns it.
        """
        n = self.points.shape[0]
        V2, out2, result = self._operands(V, n, out, "K @ V")
        k = V2.shape[1]

        stats = _SweepStats()
        # Resolved in the *calling* thread — the worker pool is shared
        # across fits, so only the sweep caller knows which fit this is.
        ctx = current_context()
        with ctx.span("tile_sweep", tiles=self.num_tiles, columns=k) as span:
            if self._shard_blocks is None:
                partials = self._sweep_triangle(V2, stats)
            else:
                partials = []
                for blocks in self._shard_blocks:
                    partial = np.empty((n, k), dtype=self.dtype)
                    self._sweep_shard(blocks, V2, partial, stats)
                    partials.append(partial)
                    if len(partials) >= _FOLD_PARTIALS:
                        partials = [sum_partials(partials)]
            out2[...] = sum_partials(partials) if partials else 0.0
        self.sweeps += 1

        ctx.inc("tile_sweeps")
        ctx.inc("tiles_computed", stats.computed)
        if self.cache is not None:
            ctx.inc("cache_hits", stats.hits)
            ctx.inc("cache_misses", stats.misses)
            ctx.inc("cache_evictions", stats.evictions)
            ctx.inc("cache_oversized", stats.oversized)
        if span is not None:
            ctx.observe("sweep_seconds", span.dur)
        return result

    def cross_sweep(
        self, Q: np.ndarray, V: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Compute ``K(Q, points) @ V`` for a block of *query* rows ``Q``.

        This is the serving-side counterpart of :meth:`sweep`: the column
        side is still the pipeline's fixed point set (a model's support
        vectors), but the rows are novel test points, so the tile cache
        does not apply. What the warm pipeline still contributes is the
        precomputed support-vector row norms (the ``b_sq`` half of the RBF
        distance expansion), the points already cast to ``compute_dtype``,
        and the shared worker pool — which is exactly the per-request work
        a cold path would redo.

        ``V`` may be a vector ``(n,)`` (one model's alphas) or a block
        ``(n, k)`` (stacked alphas of k machines sharing the support set);
        either way the cost is one pass over query tiles of ``tile_rows``
        rows (a prediction engine sizes them by :data:`TILE_BYTES`).
        Results are accumulated into the pipeline ``dtype``.
        """
        if self._points_c is None:
            raise InvalidParameterError(
                "cross_sweep needs in-memory points, not a row source"
            )
        Q = np.asarray(Q)
        if Q.ndim == 1:
            Q = Q[None, :]
        if Q.ndim != 2 or Q.shape[1] != self.points.shape[1]:
            raise InvalidParameterError(
                f"query block of shape {Q.shape} does not match "
                f"{self.points.shape[1]} pipeline features"
            )
        Qc = np.ascontiguousarray(Q, dtype=self.compute_dtype)
        q = Qc.shape[0]
        Vc, out2, result = self._operands(V, q, out, "K(Q, points) @ V")
        k = Vc.shape[1]

        # Query-side norms for the RBF expansion; the support-side norms
        # are the pipeline's precomputed ones.
        q_norms = (
            squared_row_norms(Qc) if self.kernel is KernelType.RBF else None
        )
        rows = self.tile_rows
        spans = [(start, min(start + rows, q)) for start in range(0, q, rows)]

        def run(span_idx: int) -> None:
            start, stop = spans[span_idx]
            tile = kernel_matrix(
                Qc[start:stop],
                self._points_c,
                self.kernel,
                gamma=self.gamma,
                degree=self.degree,
                coef0=self.coef0,
                a_sq=None if q_norms is None else q_norms[start:stop],
                b_sq=self.row_norms,
            )
            out2[start:stop] = tile.astype(self.compute_dtype, copy=False) @ Vc

        ctx = current_context()
        with ctx.span("tile_sweep", tiles=len(spans), columns=k, rows=q, cross=True) as span:
            if len(spans) == 1:
                # A micro-batch is usually one tile; skip the pool hand-off.
                run(0)
            else:
                self.pool.map_tasks(run, range(len(spans)))
        self.sweeps += 1
        with self._count_lock:
            self.tiles_computed += len(spans)
        ctx.inc("tile_sweeps")
        ctx.inc("tiles_computed", len(spans))
        if span is not None:
            ctx.observe("sweep_seconds", span.dur)
        return result

    def stats(self) -> dict:
        """Per-pipeline counters (scoped ones live on the telemetry context)."""
        out = {
            "sweeps": self.sweeps,
            "tiles_computed": self.tiles_computed,
            "num_tiles": self.num_tiles,
            "cache_enabled": self.cache_enabled,
            "compute_dtype": self.compute_dtype.name,
        }
        if self.cache is not None:
            out.update(
                cache_hits=self.cache.hits,
                cache_misses=self.cache.misses,
                cache_evictions=self.cache.evictions,
                cache_oversized=self.cache.oversized,
                cache_hit_rate=self.cache.hit_rate,
                cache_bytes=self.cache.nbytes,
            )
        return out
