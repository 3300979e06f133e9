"""A persistent thread pool with an OpenMP-style ``parallel_for``.

The OpenMP backend of PLSSVM parallelizes the implicit matrix-vector product
with a ``#pragma omp parallel for`` over row blocks. The Python counterpart
uses a pool of native threads: inside each chunk the work is a handful of
NumPy BLAS calls which release the GIL, so chunks genuinely execute
concurrently on multi-core hosts.

The pool is created once and reused across all CG iterations — spawning
threads per matvec would dominate the runtime for small systems, the exact
analogue of the kernel-launch overhead the paper measures on GPUs.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from .partition import BlockRange, chunk_ranges

__all__ = ["ThreadPool", "parallel_for", "available_threads", "shared_pool"]

T = TypeVar("T")


def available_threads() -> int:
    """Number of hardware threads usable by the OpenMP backend."""
    env = os.environ.get("PLSSVM_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    if env:
        try:
            n = int(env)
            if n > 0:
                return n
        except ValueError:
            pass
    return os.cpu_count() or 1


class ThreadPool:
    """Reusable worker pool executing chunked loops.

    Parameters
    ----------
    num_threads:
        Worker count; defaults to :func:`available_threads`. A pool of one
        thread short-circuits to serial execution (no executor is created),
        which keeps single-core runs free of threading overhead.
    """

    def __init__(self, num_threads: Optional[int] = None) -> None:
        self.num_threads = available_threads() if num_threads is None else int(num_threads)
        if self.num_threads < 1:
            raise ValueError("num_threads must be positive")
        self._executor: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    def _map(self, func: Callable, items: Sequence) -> List:
        # Submission happens under the lock that shutdown() swaps the
        # executor out under, so no task is ever handed to an executor that
        # is shutting down; results are collected outside the lock.
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.num_threads, thread_name_prefix="plssvm-omp"
                )
                atexit.register(self.shutdown)
            results = self._executor.map(func, items)
        return list(results)

    def map_blocks(
        self, func: Callable[[BlockRange], T], total: int, *, chunks: Optional[int] = None
    ) -> List[T]:
        """Apply ``func`` to contiguous blocks of ``[0, total)``; return results in order."""
        n_chunks = chunks or self.num_threads
        ranges = [r for r in chunk_ranges(total, n_chunks) if len(r) > 0]
        if self.num_threads == 1 or len(ranges) <= 1:
            return [func(r) for r in ranges]
        return self._map(func, ranges)

    def map_tasks(self, func: Callable[[T], object], tasks: Sequence[T]) -> List[object]:
        """Apply ``func`` to an explicit task list (used by the device backends)."""
        if self.num_threads == 1 or len(tasks) <= 1:
            return [func(t) for t in tasks]
        return self._map(func, tasks)

    def shutdown(self) -> None:
        """Tear down the worker threads (idempotent).

        Later calls respawn a fresh executor, so a shut-down pool keeps
        working for every holder.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "ThreadPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


_pools: Dict[int, ThreadPool] = {}
_pools_lock = threading.Lock()


def shared_pool(num_threads: Optional[int] = None) -> ThreadPool:
    """The module-wide pool for ``num_threads`` workers (also used by :func:`parallel_for`).

    Long-lived consumers like the kernel-tile pipeline attach here instead
    of spawning a pool per operator, so repeated fits reuse one set of
    worker threads. There is one pool per thread count (``None`` resolves
    through :func:`available_threads`), and asking for another count
    never shuts down a pool that earlier holders still use.
    """
    n = available_threads() if num_threads is None else int(num_threads)
    with _pools_lock:
        pool = _pools.get(n)
        if pool is None:
            pool = _pools[n] = ThreadPool(n)
        return pool


def parallel_for(
    func: Callable[[BlockRange], T],
    total: int,
    *,
    num_threads: Optional[int] = None,
    chunks: Optional[int] = None,
) -> List[T]:
    """Module-level convenience wrapper around a shared default pool.

    Equivalent to ``#pragma omp parallel for schedule(static)`` over
    ``range(total)`` with the loop body vectorized per chunk.
    """
    return shared_pool(num_threads).map_blocks(func, total, chunks=chunks)
