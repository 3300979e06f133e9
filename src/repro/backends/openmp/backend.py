"""OpenMP backend: parallel implicit matvecs on host threads.

This is the one backend that executes on real hardware rather than the
simulator. It builds the host :class:`repro.core.qmatrix.ImplicitQMatrix`
on its own worker pool (:mod:`repro.parallel.thread_pool`), so the
implicit ``K_bar @ v`` product runs on the shared kernel-tile pipeline
(:mod:`repro.core.tile_pipeline`) — the direct translation of the C++
backend's ``#pragma omp parallel for``, plus the cross-iteration tile
cache and precomputed RBF row norms the pipeline brings along. Inside each
tile the arithmetic is a NumPy GEMM, which releases the GIL, so tiles
genuinely overlap on multi-core hosts.

The linear kernel keeps its factorized form (``X_bar @ (X_bar.T @ v)``,
two BLAS GEMMs): materializing kernel tiles for it would turn an O(m d)
product into O(m²).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...core.qmatrix import ImplicitQMatrix, QMatrixBase
from ...parallel.thread_pool import shared_pool
from ...parameter import Parameter
from ...profiling import ComponentTimer
from ...types import BackendType
from ..base import CSVM

__all__ = ["OpenMPCSVM"]


class OpenMPCSVM(CSVM):
    """CPU backend driven by a persistent thread pool.

    Parameters
    ----------
    num_threads:
        Worker count; ``None`` uses ``PLSSVM_NUM_THREADS`` /
        ``OMP_NUM_THREADS`` / the machine's CPU count — the same resolution
        order as an OpenMP runtime.
    tile_rows:
        Host row tiling for the non-linear kernels.
    tile_cache_mb:
        Byte budget (MiB) of the cross-iteration kernel-tile cache;
        ``0`` disables it, ``None`` keeps the pipeline default.
    compute_dtype:
        Mixed precision: evaluate and cache kernel tiles in this dtype
        (e.g. ``float32``) while the CG recursion stays in the working
        precision; ``None`` keeps tiles in the working precision.
    """

    backend_type = BackendType.OPENMP

    def __init__(
        self,
        *,
        num_threads: Optional[int] = None,
        tile_rows: int = 512,
        tile_cache_mb: Optional[float] = None,
        compute_dtype=None,
    ) -> None:
        # The shared pool of this thread count: the operator's tile
        # pipeline attaches to the very same pool.
        self.pool = shared_pool(num_threads)
        self.tile_rows = int(tile_rows)
        self.tile_cache_mb = tile_cache_mb
        self.compute_dtype = compute_dtype

    @property
    def num_threads(self) -> int:
        return self.pool.num_threads

    def create_qmatrix(
        self, X: np.ndarray, y: np.ndarray, param: Parameter
    ) -> ImplicitQMatrix:
        return ImplicitQMatrix(
            X,
            y,
            param,
            tile_rows=self.tile_rows,
            solver_threads=self.pool.num_threads,
            tile_cache_mb=self.tile_cache_mb,
            compute_dtype=self.compute_dtype,
        )

    def finalize(self, qmat: QMatrixBase, timings: ComponentTimer) -> None:
        # Host backend: wall-clock time in the 'cg' section is already real.
        return None

    def describe(self) -> str:
        return f"openmp backend with {self.pool.num_threads} thread(s)"
