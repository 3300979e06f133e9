"""The reduced LS-SVM system of Chu et al. (paper Eq. 11-16).

Training an LS-SVM means solving the ``(m) x (m+1)``-style saddle system of
Eq. 11. Chu et al. eliminate the bias row and the last multiplier, leaving a
symmetric positive definite ``(m-1) x (m-1)`` system

    Q_tilde @ alpha_bar = y_bar - y_m * 1                       (Eq. 14)

with (Eq. 16)

    Q_tilde[i, j] = k(x_i, x_j) + delta_ij / C
                    - k(x_m, x_j) - k(x_i, x_m)
                    + k(x_m, x_m) + 1 / C.

Two realizations are provided:

* :class:`ExplicitQMatrix` materializes the full matrix — O(m²) memory,
  used for small problems, tests, and as the ground truth the implicit
  variant is verified against.
* :class:`ImplicitQMatrix` is matrix-free (§III-B): each matvec recomputes
  the kernel entries on the fly. The ``q`` vector ``q_bar[i] = k(x_i, x_m)``
  is precomputed once (§III-C2, "Caching"), which turns the three kernel
  evaluations per entry into one. For the linear kernel the matvec
  collapses into two BLAS-2 products against the data matrix
  (``X_bar @ (X_bar.T @ v)``), making it O(m d) instead of O(m² d). It is
  the one host-side matrix-free operator: the type of its input (dense
  array, CSR matrix, row source) and an optional row-shard partition pick
  how the kernel product is formed, and every kernel tile goes through
  :class:`repro.core.tile_pipeline.TilePipeline`.

Both classes share the rank-one correction algebra

    Q_tilde @ v = K_bar @ v + v / C
                  - ones * <q_bar, v> - q_bar * sum(v)
                  + (k_mm + 1/C) * sum(v) * ones
"""

from __future__ import annotations

import abc
from typing import List, Optional, Tuple, Union

import numpy as np

from ..exceptions import DataError, InvalidParameterError
from ..membudget import active_memory_budget, format_bytes
from ..parallel.partition import BlockRange, chunk_ranges
from ..parallel.reduction import sum_partials
from ..parameter import Parameter
from ..sparse.csr import CSRMatrix
from ..types import KernelType
from .kernels import kernel_diagonal, kernel_matrix, kernel_row, kernel_scalar

__all__ = [
    "QMatrixBase",
    "ExplicitQMatrix",
    "ImplicitQMatrix",
    "build_reduced_system",
    "reduced_rhs",
    "recover_bias_and_alpha",
]

#: Materializing Q_tilde above this many training points is refused by
#: :func:`build_reduced_system`'s automatic mode (the matrix would need
#: ``(m-1)^2 * 8`` bytes).
EXPLICIT_LIMIT = 4096

#: Default row-block height of the streaming protocol
#: (:meth:`QMatrixBase.iter_row_blocks`).
DEFAULT_ROW_BLOCK = 4096


def _validate_training_data(
    X: np.ndarray, y: np.ndarray, dtype: np.dtype, *, binary_labels: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    X = np.ascontiguousarray(np.asarray(X, dtype=dtype))
    y = np.asarray(y, dtype=dtype).ravel()
    if X.ndim != 2:
        raise DataError(f"training data must be 2-D, got ndim={X.ndim}")
    if X.shape[0] != y.shape[0]:
        raise DataError(
            f"number of points ({X.shape[0]}) and labels ({y.shape[0]}) differ"
        )
    if X.shape[0] < 2:
        raise DataError("LS-SVM training requires at least two data points")
    if X.shape[1] < 1:
        raise DataError("training data has no features")
    _validate_targets(y, binary_labels)
    if not np.all(np.isfinite(X)):
        raise DataError("training data contains NaN or infinite values")
    return X, y


def _validate_targets(y: np.ndarray, binary_labels: bool) -> None:
    if binary_labels:
        labels = np.unique(y)
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise DataError(f"labels must be -1/+1, got {labels[:8]}")
        if labels.size < 2:
            raise DataError("training data contains only a single class")
    elif not np.all(np.isfinite(y)):
        raise DataError("regression targets contain NaN or infinite values")


class QMatrixBase(abc.ABC):
    """Common interface of the explicit and implicit Q_tilde realizations.

    Parameters
    ----------
    ridge:
        Optional per-point ridge vector replacing the uniform ``1/C``
        diagonal. Used by the weighted LS-SVM extension (Suykens et al.,
        "Weighted least squares support vector machines"): point ``i``'s
        ridge is ``1 / (C * v_i)`` for a robustness weight ``v_i``. The
        reduction of Eq. 13 goes through unchanged because the eliminated
        row/column only ever sees ``Q_mm = k_mm + ridge_m``.
    binary_labels:
        The LS-SVM *regression* extension reuses the same reduced system
        with real-valued targets; it disables the +/-1 label check.
    """

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        param: Parameter,
        *,
        ridge: Optional[np.ndarray] = None,
        binary_labels: bool = True,
    ) -> None:
        X, y = _validate_training_data(X, y, param.dtype, binary_labels=binary_labels)
        param = param.with_gamma_for(X.shape[1])
        self.X = X
        self.X_bar = X[:-1]
        self.x_m = X[-1]
        kw = param.kernel_kwargs()
        # q_bar[i] = k(x_i, x_m) for i < m (no delta term since i != m).
        q_bar = kernel_row(self.x_m, self.X_bar, param.kernel, **kw).astype(
            param.dtype, copy=False
        )
        k_mm = kernel_scalar(self.x_m, self.x_m, param.kernel, **kw)
        self._finish_init(y, param, q_bar, k_mm, ridge=ridge)

    def _finish_init(
        self,
        y: np.ndarray,
        param: Parameter,
        q_bar: np.ndarray,
        k_mm: float,
        *,
        ridge: Optional[np.ndarray] = None,
    ) -> None:
        """Shared tail of construction once ``q_bar``/``k_mm`` are known.

        Operators that never hold dense ``X`` (an ``ImplicitQMatrix`` over
        a row source) compute ``q_bar`` by streaming and then call this
        directly instead of ``QMatrixBase.__init__``.
        """
        m = q_bar.shape[0] + 1
        self.param = param
        self.y = y
        self.y_bar = y[:-1]
        self.y_m = float(y[-1])
        self.q_bar = q_bar
        self.k_mm = float(k_mm)
        self.inv_cost = 1.0 / param.cost
        if ridge is None:
            self.ridge_bar = np.full(m - 1, self.inv_cost, dtype=param.dtype)
            self.ridge_m = self.inv_cost
        else:
            ridge = np.asarray(ridge, dtype=param.dtype).ravel()
            if ridge.shape[0] != m:
                raise DataError(
                    f"ridge vector length {ridge.shape[0]} does not match "
                    f"{m} data points"
                )
            if np.any(ridge <= 0) or not np.all(np.isfinite(ridge)):
                raise DataError("ridge entries must be positive and finite")
            self.ridge_bar = ridge[:-1].copy()
            self.ridge_m = float(ridge[-1])
        # Q_mm of Eq. 12 includes the eliminated point's ridge: the trailing
        # "+ 1/C" of Eq. 16 is exactly Q_mm = k_mm + ridge_m.
        self.q_mm = self.k_mm + self.ridge_m
        self.num_matvecs = 0

    @property
    def shape(self) -> Tuple[int, int]:
        n = self.q_bar.shape[0]
        return (n, n)

    @property
    def dtype(self) -> np.dtype:
        return self.param.dtype

    def _rank_one_terms(self, v: np.ndarray) -> np.ndarray:
        """The shared low-rank correction: ``ridge*v - 1<q,v> - q*sum(v) + q_mm*sum(v)*1``."""
        s = float(v.sum())
        qv = float(self.q_bar @ v)
        out = self.ridge_bar * v
        out -= qv
        out -= s * self.q_bar
        out += self.q_mm * s
        return out

    def _rank_one_terms_multi(self, V: np.ndarray) -> np.ndarray:
        """Column-wise :meth:`_rank_one_terms` for a block ``V`` of vectors."""
        s = V.sum(axis=0)
        qv = self.q_bar @ V
        out = self.ridge_bar[:, None] * V
        out -= qv[None, :]
        out -= self.q_bar[:, None] * s[None, :]
        out += self.q_mm * s[None, :]
        return out

    @abc.abstractmethod
    def _kernel_matvec(self, v: np.ndarray) -> np.ndarray:
        """``K_bar @ v`` where ``K_bar[i,j] = k(x_i, x_j)`` over the first m-1 points."""

    def _kernel_matvec_multi(self, V: np.ndarray) -> np.ndarray:
        """``K_bar @ V`` for a block of vectors; default is a column loop.

        Subclasses that can batch the kernel work (one tile sweep for all
        columns) override this — that is the whole point of block CG.
        """
        return np.column_stack([self._kernel_matvec(V[:, j]) for j in range(V.shape[1])])

    def _apply(self, v: np.ndarray) -> np.ndarray:
        """``Q_tilde @ v`` without touching the solver matvec counter."""
        return self._kernel_matvec(v) + self._rank_one_terms(v)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Compute ``Q_tilde @ v``."""
        v = np.asarray(v, dtype=self.dtype).ravel()
        if v.shape[0] != self.shape[0]:
            raise DataError(
                f"vector length {v.shape[0]} does not match system size {self.shape[0]}"
            )
        self.num_matvecs += 1
        return self._apply(v)

    def matvec_multi(self, V: np.ndarray) -> np.ndarray:
        """Compute ``Q_tilde @ V`` for a block ``V`` of shape ``(n, k)``.

        Counts as ``k`` logical matvecs (the quantity profiling reports),
        even though subclasses with a tile pipeline perform only *one*
        kernel sweep for the whole block.
        """
        V = np.asarray(V, dtype=self.dtype)
        if V.ndim == 1:
            V = V[:, None]
        if V.ndim != 2 or V.shape[0] != self.shape[0]:
            raise DataError(
                f"block of shape {V.shape} does not match system size {self.shape[0]}"
            )
        self.num_matvecs += V.shape[1]
        return self._kernel_matvec_multi(V) + self._rank_one_terms_multi(V)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.matvec(v)

    # -- row-block iterator protocol --------------------------------------
    #
    # Consumers that need training rows (preconditioner pivot gathers, the
    # rff/nystrom solver fits, the streaming diagonal) go through these
    # three methods instead of reading dense ``X`` directly, so operators
    # backed by an out-of-core ChunkedDataset work without ever
    # materializing the matrix. The base implementations slice the
    # in-memory ``X_bar``; ImplicitQMatrix over a row source streams.

    def iter_row_blocks(self, block_rows: Optional[int] = None):
        """Yield ``(start, stop, block)`` over the first ``m-1`` points.

        Blocks arrive in order and cover ``[0, m-1)`` exactly once. The
        in-memory default yields views (no copies); streaming operators
        yield freshly-read arrays bounded by their byte budget.
        """
        n = self.shape[0]
        step = int(block_rows) if block_rows else max(n, 1)
        for start in range(0, n, step):
            stop = min(start + step, n)
            yield start, stop, self.X_bar[start:stop]

    def gather_rows(self, indices) -> np.ndarray:
        """Training rows (of the first ``m-1``) at ``indices``, dense.

        RPCholesky preconditioner setup gathers its pivot rows through
        this — O(rank) rows, never the full matrix.
        """
        return np.asarray(self.X_bar[np.asarray(indices, dtype=np.intp)])

    def kernel_column(self, s: int) -> np.ndarray:
        """Column ``s`` of ``K_bar`` (``k(x_i, x_s)`` for ``i < m-1``).

        Streams through :meth:`iter_row_blocks`, so a preconditioner can
        factor rank-``r`` columns against an out-of-core operator in
        O(block) memory.
        """
        x_s = self.gather_rows([int(s)])[0]
        kw = self.param.kernel_kwargs()
        out = np.empty(self.shape[0], dtype=self.dtype)
        for start, stop, block in self.iter_row_blocks():
            out[start:stop] = kernel_row(x_s, block, self.param.kernel, **kw)
        return out

    def diagonal(self) -> np.ndarray:
        """``diag(Q_tilde)`` without forming the matrix (Eq. 16 at i = j).

        ``Q_tilde[i, i] = k(x_i, x_i) + ridge_i - 2 q_bar_i + q_mm`` — the
        single source of truth shared by Jacobi/Nyström preconditioner
        setup, the classifier's legacy ``jacobi=True`` path, and the
        multi-class block solve. Computed block-wise via the row-block
        protocol so it holds for streaming operators too.
        """
        kw = self.param.kernel_kwargs()
        diag = np.empty(self.shape[0], dtype=self.dtype)
        for start, stop, block in self.iter_row_blocks():
            diag[start:stop] = kernel_diagonal(block, self.param.kernel, **kw)
        return diag + self.ridge_bar - 2.0 * self.q_bar + self.q_mm

    def rhs(self) -> np.ndarray:
        """Right-hand side of Eq. 14: ``y_bar - y_m * 1``."""
        return reduced_rhs(self.y)

    def to_dense(self) -> np.ndarray:
        """Materialize Q_tilde (intended for tests and small systems).

        Bypasses the matvec counter: the ``n`` products here are test
        scaffolding, not solver work, and must not pollute the per-solve
        matvec counts the profiling layer and benchmarks report.
        """
        n = self.shape[0]
        eye = np.eye(n, dtype=self.dtype)
        cols = [self._apply(eye[i]) for i in range(n)]
        return np.column_stack(cols)


class ExplicitQMatrix(QMatrixBase):
    """Q_tilde held as a dense array; matvec is a single GEMV."""

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        param: Parameter,
        *,
        ridge: Optional[np.ndarray] = None,
        binary_labels: bool = True,
    ) -> None:
        super().__init__(X, y, param, ridge=ridge, binary_labels=binary_labels)
        n = self.shape[0]
        budget = active_memory_budget()
        estimate = n * n * np.dtype(self.dtype).itemsize
        if budget is not None and estimate > budget:
            raise InvalidParameterError(
                f"ExplicitQMatrix would materialize the dense "
                f"{n}x{n} reduced system: {estimate} bytes "
                f"({format_bytes(estimate)}) for m={n + 1} training points "
                f"exceeds the active memory budget of {format_bytes(budget)}. "
                f"Use the implicit operator "
                f"(implicit=True / shard_rows), or raise --memory-budget-mb."
            )
        kw = self.param.kernel_kwargs()
        K = kernel_matrix(self.X_bar, self.X_bar, self.param.kernel, **kw)
        K = K.astype(self.dtype, copy=False)
        K += np.diag(self.ridge_bar)
        K -= self.q_bar[None, :]
        K -= self.q_bar[:, None]
        K += self.q_mm
        self._dense = K

    @classmethod
    def from_parts(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        param: Parameter,
        q_bar: np.ndarray,
        k_mm: float,
        dense: np.ndarray,
        *,
        ridge: Optional[np.ndarray] = None,
        binary_labels: bool = True,
    ) -> "ExplicitQMatrix":
        """Adopt an externally maintained *corrected* dense system.

        ``dense`` must already be Q_tilde of Eq. 16 — raw kernel block
        plus ridge diagonal minus the ``q_bar`` rank-one terms plus
        ``q_mm`` — and ``q_bar``/``k_mm`` the matching raw kernel values
        against the eliminated (last) point. The incremental engine
        updates its dense system in place across ``partial_fit`` calls
        and wraps each snapshot through this constructor, so no O(m²)
        rebuild ever happens. ``dense`` is adopted by reference (it may
        be a view into a larger capacity buffer); the caller owns its
        lifetime.
        """
        X, y = _validate_training_data(X, y, param.dtype, binary_labels=binary_labels)
        param = param.with_gamma_for(X.shape[1])
        self = cls.__new__(cls)
        self.X = X
        self.X_bar = X[:-1]
        self.x_m = X[-1]
        q_bar = np.asarray(q_bar, dtype=param.dtype)
        self._finish_init(y, param, q_bar, float(k_mm), ridge=ridge)
        n = self.shape[0]
        dense = np.asarray(dense)
        if dense.shape != (n, n):
            raise DataError(
                f"dense system of shape {dense.shape} does not match "
                f"{n + 1} training points"
            )
        if dense.dtype != self.dtype:
            raise DataError(
                f"dense system dtype {dense.dtype} does not match the "
                f"working dtype {self.dtype}"
            )
        self._dense = dense
        return self

    def _kernel_matvec(self, v: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise AssertionError("ExplicitQMatrix overrides _apply directly")

    def _apply(self, v: np.ndarray) -> np.ndarray:
        # _dense already carries the ridge and rank-one corrections.
        return self._dense @ v

    def matvec_multi(self, V: np.ndarray) -> np.ndarray:
        V = np.asarray(V, dtype=self.dtype)
        if V.ndim == 1:
            V = V[:, None]
        if V.ndim != 2 or V.shape[0] != self.shape[0]:
            raise DataError(
                f"block of shape {V.shape} does not match system size {self.shape[0]}"
            )
        self.num_matvecs += V.shape[1]
        return self._dense @ V

    def to_dense(self) -> np.ndarray:
        return np.array(self._dense, copy=True)

    def diagonal(self) -> np.ndarray:
        # _dense already carries the ridge and rank-one corrections.
        return np.ascontiguousarray(np.diagonal(self._dense))


class _HeadRows:
    """The first ``num_rows`` rows of a row source, as a row source.

    The reduced system runs over ``X_bar`` (all points but the last); this
    view hands exactly those rows to the tile pipeline without reading
    the source.
    """

    def __init__(self, source, num_rows: int) -> None:
        self.source = source
        self.num_rows = int(num_rows)
        self.num_features = int(source.num_features)
        self.shape = (self.num_rows, self.num_features)

    def iter_blocks(self, block_rows: Optional[int] = None, *, stop: Optional[int] = None):
        end = self.num_rows if stop is None else min(int(stop), self.num_rows)
        return self.source.iter_blocks(block_rows, stop=end)

    def row_block(self, start: int, stop: int) -> np.ndarray:
        return self.source.row_block(start, stop)


def _resolve_shards(
    n: int, num_shards: Optional[int], shard_size: Optional[int]
) -> List[BlockRange]:
    """The row-shard partition of ``[0, n)`` (default: 4096-row shards)."""
    if num_shards is not None:
        if int(num_shards) < 1:
            raise InvalidParameterError(f"num_shards must be >= 1, got {num_shards}")
        return [r for r in chunk_ranges(n, int(num_shards)) if len(r) > 0]
    size = DEFAULT_ROW_BLOCK if shard_size is None else int(shard_size)
    if size < 1:
        raise InvalidParameterError(f"shard_size must be >= 1, got {shard_size}")
    return [BlockRange(s, min(s + size, n)) for s in range(0, n, size)]


class ImplicitQMatrix(QMatrixBase):
    """Matrix-free Q_tilde: kernel entries are recomputed per use (§III-B).

    The type of ``X`` picks how ``K_bar @ V`` is formed:

    * a dense array — the linear kernel is the Gram product
      ``X_bar @ (X_bar.T @ V)``; the non-linear kernels sweep the shared
      :class:`repro.core.tile_pipeline.TilePipeline` (threaded tiles,
      precomputed RBF row norms, a byte-budgeted cross-iteration tile
      cache, so CG iterations after the first can replay cached tiles);
    * a :class:`repro.sparse.CSRMatrix` (linear kernel only) — the same
      Gram product on the CSR structure, O(nnz) per matvec: the paper's
      "sparse data structures for the CG solver" next step (§V);
    * a row source (:class:`repro.io.ChunkedDataset` / ``ArrayRowSource``)
      — out-of-core training: the data is streamed block by block and
      never densified.

    A row source, or any input given a row-shard partition
    (``num_shards`` / ``shard_size``), runs Tyree et al.'s sample-sharded
    scheme: shard ``J`` owns its rows ``X_J`` and the slice ``v_J``. The
    linear kernel combines the per-shard feature-space partials
    ``X_J^T v_J`` with one deterministic allreduce
    (:mod:`repro.parallel.reduction`) and streams ``X_B @ w`` back out;
    the non-linear kernels hand the partition to the tile pipeline.

    Parameters
    ----------
    tile_rows:
        Row-tile height for the non-linear kernels; bounds peak memory at
        ``tile_rows * (m-1)`` kernel entries per matvec (per worker), or
        ``tile_rows²`` under a partition.
    solver_threads:
        Worker threads for the tile sweep; ``None`` resolves like an
        OpenMP runtime (``PLSSVM_NUM_THREADS`` / CPU count), ``1`` is
        serial.
    tile_cache_mb:
        Byte budget (MiB) of the tile cache; ``0`` disables it. Above the
        budget the cache switches itself off (see tile_pipeline docs).
    compute_dtype:
        Element type for kernel-tile evaluation and caching (mixed
        precision: ``float32`` tiles halve cache bytes and memory
        bandwidth while CG's vectors, reductions, and termination
        criterion stay in ``dtype``). ``None`` keeps tiles in ``dtype``.
        The linear kernel has no tiles and ignores it.
    num_shards:
        Split the samples into this many row shards (simulated nodes).
    shard_size:
        Fixed shard height in rows (the last shard may be ragged); mutually
        exclusive with ``num_shards``. A row source without either gets
        4096-row shards.
    """

    def __init__(
        self,
        X,
        y: np.ndarray,
        param: Parameter,
        *,
        tile_rows: int = 1024,
        ridge: Optional[np.ndarray] = None,
        binary_labels: bool = True,
        solver_threads: Optional[int] = None,
        tile_cache_mb: Optional[float] = None,
        compute_dtype=None,
        num_shards: Optional[int] = None,
        shard_size: Optional[int] = None,
    ) -> None:
        from ..io.chunked import as_row_source, is_row_source  # io imports core

        if tile_rows <= 0:
            raise DataError("tile_rows must be positive")
        if num_shards is not None and shard_size is not None:
            raise InvalidParameterError("num_shards and shard_size are mutually exclusive")
        self.csr: Optional[CSRMatrix] = None
        if isinstance(X, CSRMatrix):
            if KernelType.from_name(param.kernel) is not KernelType.LINEAR:
                raise InvalidParameterError(
                    "the sparse CG path supports only the linear kernel "
                    "(non-linear kernel matrices are dense regardless of data sparsity)"
                )
            # The dense copy backs q_bar and the fitted model; the matvec
            # only touches the CSR structure.
            self.csr, X = X, X.to_dense()
        self.source = None
        self.shards: Optional[List[BlockRange]] = None
        if is_row_source(X) or num_shards is not None or shard_size is not None:
            self.source = as_row_source(X)
            self._init_streamed(param, y, ridge=ridge, binary_labels=binary_labels)
            self.shards = _resolve_shards(self.shape[0], num_shards, shard_size)
        else:
            super().__init__(X, y, param, ridge=ridge, binary_labels=binary_labels)
        self.tile_rows = int(tile_rows)
        self._solver_threads = solver_threads
        self._tile_cache_mb = tile_cache_mb
        self.compute_dtype = compute_dtype
        self._pipeline = None

    def _init_streamed(self, param: Parameter, y, *, ridge, binary_labels) -> None:
        """Validate and set up from ``self.source`` in one streaming pass."""
        source = self.source
        m, d = int(source.num_rows), int(source.num_features)
        if m < 2:
            raise DataError("LS-SVM training requires at least two data points")
        if d < 1:
            raise DataError("training data has no features")
        param = param.with_gamma_for(d)
        y = np.asarray(y, dtype=param.dtype).ravel()
        if y.shape[0] != m:
            raise DataError(f"number of points ({m}) and labels ({y.shape[0]}) differ")
        _validate_targets(y, binary_labels)
        # Training never reads these; they back the fitted model's support
        # vectors (a lazy memmap for on-disk data).
        self.X = source.as_array()
        self.X_bar = self.X[:-1]
        self.x_m = np.asarray(source.row(m - 1), dtype=param.dtype)
        if not np.all(np.isfinite(self.x_m)):
            raise DataError("training data contains NaN or infinite values")
        kw = param.kernel_kwargs()
        q_bar = np.empty(m - 1, dtype=param.dtype)
        for start, stop, block in source.iter_blocks(stop=m - 1):
            block = np.asarray(block, dtype=param.dtype)
            if not np.all(np.isfinite(block)):
                raise DataError("training data contains NaN or infinite values")
            q_bar[start:stop] = kernel_row(self.x_m, block, param.kernel, **kw)
        k_mm = kernel_scalar(self.x_m, self.x_m, param.kernel, **kw)
        self._finish_init(y, param, q_bar, k_mm, ridge=ridge)

    @property
    def num_shards(self) -> int:
        return 1 if self.shards is None else len(self.shards)

    @property
    def pipeline(self):
        """The lazily built tile pipeline (non-linear kernels only)."""
        if self.param.kernel is KernelType.LINEAR:
            return None
        if self._pipeline is None:
            from .tile_pipeline import TilePipeline

            self._pipeline = TilePipeline(
                self.X_bar if self.source is None else _HeadRows(self.source, self.shape[0]),
                self.param.kernel,
                **self.param.kernel_kwargs(),
                tile_rows=self.tile_rows,
                num_threads=self._solver_threads,
                cache_mb=self._tile_cache_mb,
                dtype=self.dtype,
                compute_dtype=self.compute_dtype,
                shards=self.shards,
            )
        return self._pipeline

    # -- row-block protocol ------------------------------------------------

    def iter_row_blocks(self, block_rows: Optional[int] = None):
        if self.source is None:
            yield from super().iter_row_blocks(block_rows)
            return
        rows = self.source.iter_blocks(block_rows, stop=self.shape[0])
        for start, stop, block in rows:
            yield start, stop, np.asarray(block, dtype=self.dtype)

    def gather_rows(self, indices) -> np.ndarray:
        if self.source is None:
            return super().gather_rows(indices)
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size and int(indices.max(initial=0)) >= self.shape[0]:
            raise DataError(
                f"row index {int(indices.max())} out of range for the "
                f"{self.shape[0]} reduced-system rows"
            )
        return np.asarray(self.source.gather_rows(indices), dtype=self.dtype)

    # -- matvec ------------------------------------------------------------

    def _kernel_matvec(self, v: np.ndarray) -> np.ndarray:
        if self.param.kernel is not KernelType.LINEAR:
            return self.pipeline.sweep(v)
        if self.shards is not None:
            return self._sharded_gram(v[:, None])[:, 0]
        if self.csr is not None:
            csr_bar = self.csr.head(self.shape[0])
            return csr_bar.matvec(csr_bar.rmatvec(v))
        # K_bar @ v == X_bar @ (X_bar.T @ v): two GEMVs, O(m d).
        return self.X_bar @ (self.X_bar.T @ v)

    def _kernel_matvec_multi(self, V: np.ndarray) -> np.ndarray:
        if self.param.kernel is not KernelType.LINEAR:
            return self.pipeline.sweep(V)
        if self.shards is not None:
            return self._sharded_gram(V)
        if self.csr is not None:
            return super()._kernel_matvec_multi(V)
        # Two GEMMs instead of 2k GEMVs.
        return self.X_bar @ (self.X_bar.T @ V)

    def _sharded_gram(self, V: np.ndarray) -> np.ndarray:
        """Linear ``K_bar @ V`` over the row shards: one ``d``-length allreduce.

        Phase 1 streams each shard once for its feature-space partial
        ``X_J^T V_J`` (``d × k``, the only inter-shard communication);
        phase 2 streams again for the disjoint output rows ``X_B @ w``.
        """
        d = self.X.shape[1]
        partials = []
        for shard in self.shards:
            # The in-shard fold is node-local work, accumulated in block
            # order (deterministic).
            local = np.zeros((d, V.shape[1]), dtype=self.dtype)
            for start, stop, block in self._shard_blocks(shard):
                local += block.T @ V[start:stop]
            partials.append(local)
        w = sum_partials(partials)
        out = np.empty((self.shape[0], V.shape[1]), dtype=self.dtype)
        for shard in self.shards:
            for start, stop, block in self._shard_blocks(shard):
                out[start:stop] = block @ w
        return out

    def _shard_blocks(self, shard: BlockRange):
        step = self.source.block_rows
        for start in range(shard.start, shard.stop, step):
            stop = min(start + step, shard.stop)
            yield start, stop, np.asarray(self.source.row_block(start, stop), dtype=self.dtype)


def reduced_rhs(y: np.ndarray) -> np.ndarray:
    """Right-hand side of the reduced system (Eq. 14).

    ``y`` may be an ``(m, k)`` block of targets sharing one operator; the
    result is then the ``(m-1, k)`` block of per-column right-hand sides.
    """
    y = np.asarray(y)
    if y.ndim == 2:
        return y[:-1] - y[-1:]
    y = y.ravel()
    return y[:-1] - y[-1]


def _warm_start_guess(previous, shape: Tuple[int, ...], dtype) -> Optional[np.ndarray]:
    """Initial guess for a reduced unknown of ``shape`` from a previous solution.

    ``previous`` is a full multiplier vector (or ``(m, k)`` block, one
    column per target), eliminated point recovered. The reduced system
    eliminates the *last* point, so earlier rows keep their indices: a
    same-size refit drops the recovered entry, appended rows start at
    zero. ``None`` when the shapes do not match or the system shrank.
    """
    if previous is None:
        return None
    previous = np.asarray(previous)
    n, p = shape[0], previous.shape[0]
    if previous.shape[1:] != tuple(shape[1:]):
        return None
    if p == n + 1:
        return np.array(previous[:n], dtype=dtype)
    if not 0 < p <= n:
        return None
    x0 = np.zeros(shape, dtype=dtype)
    x0[:p] = previous
    return x0


def build_reduced_system(
    X,
    y: np.ndarray,
    param: Parameter,
    *,
    implicit: Optional[bool] = None,
    tile_rows: int = 1024,
    solver_threads: Optional[int] = None,
    tile_cache_mb: Optional[float] = None,
    compute_dtype=None,
    shard_rows: Optional[int] = None,
    shard_size: Optional[int] = None,
    ridge: Optional[np.ndarray] = None,
    binary_labels: bool = True,
) -> Tuple[QMatrixBase, np.ndarray]:
    """Assemble ``(Q_tilde, rhs)`` for the given training data.

    ``implicit=None`` selects automatically: explicit assembly for up to
    :data:`EXPLICIT_LIMIT` points (a dense solve's memory is then harmless
    and matvecs are fastest), matrix-free beyond that — the same trade-off
    that forces the paper's GPU kernels to recompute entries on the fly.
    When an active memory budget (see :mod:`repro.membudget`) is too small
    for the dense system, the automatic mode also picks the matrix-free
    path. ``solver_threads`` / ``tile_cache_mb`` / ``compute_dtype``
    configure the implicit operator's tile pipeline (ignored for the
    explicit path).

    ``X`` may also be a :class:`repro.sparse.CSRMatrix` or a row source
    (:class:`repro.io.chunked.ChunkedDataset` / ``ArrayRowSource``); that,
    or a ``shard_rows`` / ``shard_size`` partition, always selects the
    matrix-free :class:`ImplicitQMatrix`. ``ridge`` / ``binary_labels``
    pass through to the operator (per-point ridges of the weighted LS-SVM,
    real-valued regression targets).

    This is the one place that picks an operator for a training fit.
    """
    from ..io.chunked import is_row_source

    if (
        isinstance(X, CSRMatrix)
        or is_row_source(X)
        or shard_rows is not None
        or shard_size is not None
    ):
        implicit = True
    elif implicit is None:
        m = np.asarray(X).shape[0]
        implicit = m > EXPLICIT_LIMIT
        if not implicit:
            budget = active_memory_budget()
            dense_bytes = (m - 1) * (m - 1) * np.dtype(param.dtype).itemsize
            if budget is not None and dense_bytes > budget:
                implicit = True
    if implicit:
        q: QMatrixBase = ImplicitQMatrix(
            X,
            y,
            param,
            tile_rows=tile_rows,
            solver_threads=solver_threads,
            tile_cache_mb=tile_cache_mb,
            compute_dtype=compute_dtype,
            num_shards=shard_rows,
            shard_size=shard_size,
            ridge=ridge,
            binary_labels=binary_labels,
        )
    else:
        q = ExplicitQMatrix(X, y, param, ridge=ridge, binary_labels=binary_labels)
    return q, q.rhs()


def recover_bias_and_alpha(
    qmat: QMatrixBase, alpha_bar: np.ndarray, y_m=None
) -> Tuple[np.ndarray, Union[float, np.ndarray]]:
    """Recover the full multiplier vector and the bias from ``alpha_bar``.

    The eliminated multiplier follows from the equality constraint
    ``sum(alpha) = 0`` of Eq. 11, i.e. ``alpha_m = -sum(alpha_bar)``; the
    bias is Eq. 15: ``b = y_m + Q_mm * <1, alpha_bar> - <q_bar, alpha_bar>``.

    ``alpha_bar`` may be an ``(m-1, k)`` block, one column per target
    column; ``y_m`` then holds the eliminated point's ``k`` targets and the
    result is the ``(m, k)`` block with a ``(k,)`` bias vector. ``y_m``
    defaults to the operator's own eliminated target.
    """
    y_m = qmat.y_m if y_m is None else y_m
    alpha_bar = np.asarray(alpha_bar, dtype=qmat.dtype)
    if alpha_bar.ndim != 2:
        alpha_bar = alpha_bar.ravel()
    if alpha_bar.shape[0] != qmat.shape[0]:
        raise DataError(
            f"alpha length {alpha_bar.shape[0]} does not match system size {qmat.shape[0]}"
        )
    if alpha_bar.ndim == 2:
        s = alpha_bar.sum(axis=0)
        bias = np.asarray(y_m, dtype=np.float64) + qmat.q_mm * s - qmat.q_bar @ alpha_bar
        alpha = np.vstack([alpha_bar, -s[None, :]]).astype(qmat.dtype, copy=False)
        return alpha, np.asarray(bias, dtype=np.float64)
    s = float(alpha_bar.sum())
    bias = float(y_m) + qmat.q_mm * s - float(qmat.q_bar @ alpha_bar)
    alpha = np.concatenate([alpha_bar, np.asarray([-s], dtype=qmat.dtype)])
    return alpha, bias
