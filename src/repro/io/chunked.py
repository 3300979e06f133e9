"""Chunked dataset loading: stream row-blocks from disk under a byte budget.

Every earlier code path materialized the full dense ``X`` in host memory, so
``m`` was capped by RAM long before compute. This module is the io half of
the out-of-core tier (ROADMAP "Out-of-core + sample-sharded training"):

* :class:`ChunkedDataset` serves row-blocks of a dense on-disk matrix with
  plain buffered reads (seek + read). It deliberately does **not** use
  ``numpy.memmap`` for block iteration — touched mapped pages count toward
  RSS, which would defeat the ``--memory-budget-mb`` proof obligation.
  A hot-block LRU cache bounded by a share of the byte budget keeps the
  row-sharded solver's repeated sweeps from re-reading blocks that fit;
  data larger than the cache degrades to pure streaming.
* Text formats (libsvm/csv) are *spilled* once into the PLSB binary layout
  (:mod:`repro.io.binary_format`) next to the source file, using the
  two-pass streaming parsers so the conversion itself stays within one row
  block of memory. Subsequent opens reuse the spill cache when it is newer
  than the source.
* :class:`ArrayRowSource` adapts an in-memory array to the same row-block
  interface, so ``ImplicitQMatrix``'s row-shard path and the solvers can
  consume either without branching.

Labels are always held in memory (O(m) floats — negligible next to the
``m × d`` matrix).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import FileFormatError, InvalidParameterError
from ..membudget import active_memory_budget, budget_from_mb, format_bytes
from .binary_format import (
    BinaryRowWriter,
    is_binary_file,
    read_binary_header,
)
from .csv_format import _is_numeric_row, _iter_csv_rows
from .libsvm_format import (
    _parse_entry,
    _resolve_width,
    iter_libsvm_rows,
    scan_libsvm_file,
)

__all__ = [
    "ChunkedDataset",
    "ArrayRowSource",
    "open_chunked",
    "as_row_source",
    "is_row_source",
    "spill_to_binary",
    "DEFAULT_BLOCK_BYTES",
    "BLOCK_BUDGET_FRACTION",
]

# Block size when no budget constrains it: 64 MiB of rows at a time.
DEFAULT_BLOCK_BYTES = 64 * 1024 * 1024
# A row block may use at most this share of the active byte budget; the
# rest is headroom for kernel tiles, CG vectors, and the interpreter.
BLOCK_BUDGET_FRACTION = 0.25
# The hot-block LRU may use at most this share of the active byte budget
# (the same share a single row block may use, so cache + in-flight block
# together stay at half the budget).
CACHE_BUDGET_FRACTION = 0.25
# Spill conversion buffers this many rows before flushing to the cache file.
_SPILL_BLOCK_ROWS = 4096


def is_row_source(obj) -> bool:
    """True when ``obj`` exposes the row-block streaming interface."""
    return all(
        hasattr(obj, name)
        for name in ("num_rows", "num_features", "iter_blocks", "row_block")
    )


def as_row_source(X, *, block_rows: Optional[int] = None):
    """Wrap ``X`` into a row source (pass-through when it already is one)."""
    if is_row_source(X):
        return X
    return ArrayRowSource(X, block_rows=block_rows)


def _resolve_block_rows(
    row_bytes: int,
    num_rows: int,
    block_rows: Optional[int],
    budget_bytes: Optional[int],
) -> int:
    """Pick rows-per-block from an explicit override or the byte budget."""
    if block_rows is not None:
        block_rows = int(block_rows)
        if block_rows < 1:
            raise InvalidParameterError(
                f"block_rows must be >= 1, got {block_rows}"
            )
        return min(block_rows, max(num_rows, 1))
    cap = DEFAULT_BLOCK_BYTES
    if budget_bytes is not None:
        cap = int(budget_bytes * BLOCK_BUDGET_FRACTION)
        if row_bytes > cap:
            raise InvalidParameterError(
                f"one dataset row needs {format_bytes(row_bytes)} but the "
                f"memory budget of {format_bytes(budget_bytes)} leaves only "
                f"{format_bytes(cap)} per row block; raise --memory-budget-mb"
            )
    return max(1, min(max(num_rows, 1), cap // max(row_bytes, 1)))


class ArrayRowSource:
    """Row-block interface over an in-memory dense array.

    Lets the sharded/streaming code paths run on arrays the caller already
    holds (e.g. ``LSSVC(shard_rows=4)`` on an ndarray): blocks are views,
    so no data is copied.
    """

    def __init__(self, X: np.ndarray, *, block_rows: Optional[int] = None) -> None:
        X = np.ascontiguousarray(X)
        if X.ndim != 2:
            raise InvalidParameterError(
                f"training data must be 2-D, got shape {X.shape}"
            )
        self._X = X
        self.num_rows = int(X.shape[0])
        self.num_features = int(X.shape[1])
        self.dtype = X.dtype
        self.block_rows = _resolve_block_rows(
            self.num_features * X.dtype.itemsize,
            self.num_rows,
            block_rows,
            None,
        )

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.num_rows, self.num_features)

    ndim = 2

    @property
    def nbytes_dense(self) -> int:
        return self._X.nbytes

    def iter_blocks(
        self, block_rows: Optional[int] = None, *, stop: Optional[int] = None
    ) -> Iterator[Tuple[int, int, np.ndarray]]:
        step = block_rows or self.block_rows
        end = self.num_rows if stop is None else min(int(stop), self.num_rows)
        for start in range(0, end, step):
            hi = min(start + step, end)
            yield start, hi, self._X[start:hi]

    def row_block(self, start: int, stop: int) -> np.ndarray:
        return self._X[start:stop]

    def gather_rows(self, indices) -> np.ndarray:
        return self._X[np.asarray(indices, dtype=np.intp)]

    def row(self, i: int) -> np.ndarray:
        return self._X[int(i)]

    def as_array(self) -> np.ndarray:
        """The full matrix (already in memory here)."""
        return self._X

    def close(self) -> None:  # interface symmetry with ChunkedDataset
        pass

    def __enter__(self) -> "ArrayRowSource":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


def spill_to_binary(
    src: Union[str, Path],
    dst: Union[str, Path],
    *,
    num_features: Optional[int] = None,
    dtype=np.float64,
    label_column: int = 0,
    delimiter: str = ",",
    has_header: Optional[bool] = None,
) -> Path:
    """Convert a libsvm/csv file to PLSB with bounded memory; returns ``dst``.

    The conversion reuses the readers' two-pass structure (count, then
    fill), holding at most one ``_SPILL_BLOCK_ROWS``-row buffer.
    """
    src = Path(src)
    dst = Path(dst)
    if src.suffix.lower() == ".csv":
        _spill_csv(src, dst, dtype, label_column, delimiter, has_header)
    else:
        _spill_libsvm(src, dst, num_features, dtype)
    return dst


def _spill_libsvm(src: Path, dst: Path, num_features, dtype) -> None:
    num_rows, max_index, labels = scan_libsvm_file(src)
    if num_rows == 0:
        raise FileFormatError(f"{src}: file contains no data points")
    width = _resolve_width(src, max_index, num_features)
    with BinaryRowWriter(dst, labels, width, dtype) as writer:
        buf = np.zeros((min(_SPILL_BLOCK_ROWS, num_rows), width), dtype=dtype)
        filled = 0
        for lineno, _, tokens in iter_libsvm_rows(src):
            row = buf[filled]
            last_index = 0
            for token in tokens:
                last_index, val = _parse_entry(src, lineno, token, last_index)
                row[last_index - 1] = val
            filled += 1
            if filled == buf.shape[0]:
                writer.append(buf)
                buf[:] = 0.0
                filled = 0
        if filled:
            writer.append(buf[:filled])


def _spill_csv(src: Path, dst: Path, dtype, label_column, delimiter, has_header) -> None:
    # Pass 1: count rows, sniff the header, and collect the label column
    # into a geometrically-grown array (labels precede data in PLSB).
    labels = np.empty(1024, dtype=np.float64)
    count = 0
    first_row = None
    header_pending = has_header
    width = label_idx = None
    for row in _iter_csv_rows(src, delimiter):
        if first_row is None:
            first_row = row
            if header_pending is None:
                header_pending = not _is_numeric_row(row)
            width = len(row)
            if width < 2:
                raise FileFormatError(f"{src}: need a label column plus features")
            label_idx = label_column if label_column >= 0 else width + label_column
            if not 0 <= label_idx < width:
                raise FileFormatError(
                    f"{src}: label column {label_column} out of range "
                    f"for {width} columns"
                )
            if header_pending:
                continue
        if len(row) != width:
            raise FileFormatError(
                f"{src}: row {count + 1} has {len(row)} cells, expected {width}"
            )
        try:
            label = float(row[label_idx])
        except ValueError as exc:
            raise FileFormatError(f"{src}: row {count + 1}: {exc}") from None
        if count == labels.shape[0]:
            grown = np.empty(labels.shape[0] * 2, dtype=np.float64)
            grown[:count] = labels
            labels = grown
        labels[count] = label
        count += 1
    if first_row is None:
        raise FileFormatError(f"{src}: file contains no data rows")
    if count == 0:
        raise FileFormatError(f"{src}: only a header line, no data")

    # Pass 2: convert feature values block by block into the PLSB file.
    with BinaryRowWriter(dst, labels[:count], width - 1, dtype) as writer:
        block = np.empty((min(_SPILL_BLOCK_ROWS, count), width - 1), dtype=dtype)
        filled = 0
        i = 0
        for row in _iter_csv_rows(src, delimiter, skip_first=bool(header_pending)):
            if i >= count:
                raise FileFormatError(f"{src}: file changed between parsing passes")
            if len(row) != width:
                raise FileFormatError(
                    f"{src}: row {i + 1} has {len(row)} cells, expected {width}"
                )
            try:
                values = [float(cell) for cell in row]
            except ValueError as exc:
                raise FileFormatError(f"{src}: row {i + 1}: {exc}") from None
            block[filled] = values[:label_idx] + values[label_idx + 1 :]
            filled += 1
            i += 1
            if filled == block.shape[0]:
                writer.append(block)
                filled = 0
        if i != count:
            raise FileFormatError(f"{src}: file changed between parsing passes")
        if filled:
            writer.append(block[:filled])


class ChunkedDataset:
    """Stream row-blocks of an on-disk dense matrix under a byte budget.

    Open via :func:`open_chunked`, which handles the text-format spill.
    Reads go through one locked file handle with explicit seeks; each
    ``iter_blocks`` step materializes a single ``(block_rows, d)`` array.

    Repeated sweeps (every CG iteration streams the data twice on the
    linear path) are served from a hot-block LRU bounded by
    :data:`CACHE_BUDGET_FRACTION` of the byte budget: blocks are stored
    read-only under their ``(start, stop)`` key, so data that fits is
    read from disk once while larger-than-cache data falls back to pure
    streaming, never exceeding the bound.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        memory_budget_mb: Optional[float] = None,
        block_rows: Optional[int] = None,
        source_path: Optional[Union[str, Path]] = None,
        cache_bytes: Optional[int] = None,
    ) -> None:
        self.path = Path(path)
        self.source_path = Path(source_path) if source_path else self.path
        header = read_binary_header(self.path)
        self._header = header
        self.num_rows = header.rows
        self.num_features = header.cols
        self.dtype = header.dtype
        budget = budget_from_mb(memory_budget_mb)
        if budget is None:
            budget = active_memory_budget()
        self.budget_bytes = budget
        self.block_rows = _resolve_block_rows(
            header.row_bytes, header.rows, block_rows, budget
        )
        if cache_bytes is None:
            cache_bytes = (
                DEFAULT_BLOCK_BYTES
                if budget is None
                else int(budget * CACHE_BUDGET_FRACTION)
            )
        self._cache_capacity = max(int(cache_bytes), 0)
        self._cache: "OrderedDict[Tuple[int, int], np.ndarray]" = OrderedDict()
        self._cache_bytes = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._lock = threading.Lock()
        self._handle = self.path.open("rb")
        self.y = self._read_labels()

    # -- shape protocol ----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.num_rows, self.num_features)

    ndim = 2

    @property
    def nbytes_dense(self) -> int:
        """Bytes a dense in-memory copy of the matrix would take."""
        return self.num_rows * self.num_features * self.dtype.itemsize

    # -- block reads -------------------------------------------------------

    def _read_labels(self) -> np.ndarray:
        h = self._header
        with self._lock:
            self._handle.seek(h.labels_offset)
            raw = self._handle.read(h.rows * h.dtype.itemsize)
        return np.frombuffer(raw, dtype=h.le_dtype).astype(h.dtype, copy=False)

    def row_block(self, start: int, stop: int) -> np.ndarray:
        """Read rows ``[start, stop)`` as a read-only ``(stop-start, d)`` array.

        Served from the hot-block LRU when the same range was read before
        and still fits the cache bound; otherwise one seek + read.
        """
        h = self._header
        start = int(start)
        stop = int(stop)
        if not 0 <= start <= stop <= self.num_rows:
            raise InvalidParameterError(
                f"row block [{start}, {stop}) out of range for {self.num_rows} rows"
            )
        key = (start, stop)
        count = stop - start
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.cache_hits += 1
                return cached
            self.cache_misses += 1
            self._handle.seek(h.data_offset + start * h.row_bytes)
            raw = self._handle.read(count * h.row_bytes)
        if len(raw) != count * h.row_bytes:
            raise FileFormatError(f"{self.path}: short read (file truncated?)")
        block = np.frombuffer(raw, dtype=h.le_dtype).reshape(count, h.cols)
        block = block.astype(h.dtype, copy=False)
        # frombuffer over bytes is already read-only; keep casts that way
        # too so a cached block can be shared safely between consumers.
        block.flags.writeable = False
        if 0 < block.nbytes <= self._cache_capacity:
            with self._lock:
                if key not in self._cache:
                    self._cache[key] = block
                    self._cache_bytes += block.nbytes
                    while self._cache_bytes > self._cache_capacity:
                        _, evicted = self._cache.popitem(last=False)
                        self._cache_bytes -= evicted.nbytes
        return block

    def iter_blocks(
        self, block_rows: Optional[int] = None, *, stop: Optional[int] = None
    ) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, block)`` covering rows ``[0, stop)`` in order."""
        step = block_rows or self.block_rows
        end = self.num_rows if stop is None else min(int(stop), self.num_rows)
        for start in range(0, end, step):
            hi = min(start + step, end)
            yield start, hi, self.row_block(start, hi)

    def gather_rows(self, indices: Sequence[int]) -> np.ndarray:
        """Read an arbitrary set of rows (RPCholesky pivot gathers)."""
        indices = np.asarray(indices, dtype=np.intp).ravel()
        out = np.empty((indices.shape[0], self.num_features), dtype=self.dtype)
        for k, i in enumerate(indices):
            out[k] = self.row_block(int(i), int(i) + 1)[0]
        return out

    def row(self, i: int) -> np.ndarray:
        return self.row_block(int(i), int(i) + 1)[0]

    def as_array(self) -> np.ndarray:
        """Lazy read-only memmap of the data matrix.

        O(1) to create; pages are only paged in (and counted toward RSS)
        when touched. Training never touches it — it backs the fitted
        model's ``support_vectors`` so prediction works after the fit.
        """
        h = self._header
        return np.memmap(
            self.path,
            dtype=h.le_dtype,
            mode="r",
            offset=h.data_offset,
            shape=(h.rows, h.cols),
        )

    def refresh(self) -> int:
        """Re-open the file and pick up appended rows; returns the row delta.

        The streaming trainer appends rows via
        :func:`~repro.io.binary_format.append_binary_rows`, which publishes
        a *new* file under the same path with ``os.replace`` — the handle
        this dataset holds still reads the old inode, so a refresh must
        reopen by path. The header is re-validated, labels are re-read,
        and the hot-block cache is dropped (block keys are positional and
        every data byte moved). A shrunk or reshaped file raises
        :class:`FileFormatError` rather than silently serving mixed
        generations.
        """
        header = read_binary_header(self.path)
        if header.cols != self.num_features or header.dtype != self.dtype:
            raise FileFormatError(
                f"{self.path}: shape/dtype changed under refresh "
                f"({header.rows}x{header.cols} {header.dtype}, was "
                f"{self.num_rows}x{self.num_features} {self.dtype})"
            )
        if header.rows < self.num_rows:
            raise FileFormatError(
                f"{self.path}: shrank from {self.num_rows} to {header.rows} "
                "rows under refresh"
            )
        delta = header.rows - self.num_rows
        handle = self.path.open("rb")
        with self._lock:
            old = self._handle
            self._handle = handle
            self._header = header
            self.num_rows = header.rows
            self._cache.clear()
            self._cache_bytes = 0
        if not old.closed:
            old.close()
        self.y = self._read_labels()
        return delta

    def close(self) -> None:
        self._cache.clear()
        self._cache_bytes = 0
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "ChunkedDataset":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"ChunkedDataset({self.path.name!r}, rows={self.num_rows}, "
            f"features={self.num_features}, block_rows={self.block_rows}, "
            f"dense={format_bytes(self.nbytes_dense)})"
        )


def open_chunked(
    path: Union[str, Path],
    *,
    memory_budget_mb: Optional[float] = None,
    block_rows: Optional[int] = None,
    num_features: Optional[int] = None,
    dtype=np.float64,
    spill_path: Optional[Union[str, Path]] = None,
    label_column: int = 0,
    delimiter: str = ",",
    has_header: Optional[bool] = None,
) -> ChunkedDataset:
    """Open a dataset for chunked streaming, spilling text formats to PLSB.

    PLSB files are served in place. libsvm/csv files are converted once to
    ``<path>.plsb`` (or ``spill_path``) with the bounded-memory streaming
    converter; an existing spill newer than the source is reused.
    """
    path = Path(path)
    if not path.exists():
        raise FileFormatError(f"{path}: no such file")
    if is_binary_file(path):
        return ChunkedDataset(
            path, memory_budget_mb=memory_budget_mb, block_rows=block_rows
        )
    cache = Path(spill_path) if spill_path else path.with_name(path.name + ".plsb")
    if not _spill_is_fresh(path, cache):
        spill_to_binary(
            path,
            cache,
            num_features=num_features,
            dtype=dtype,
            label_column=label_column,
            delimiter=delimiter,
            has_header=has_header,
        )
    return ChunkedDataset(
        cache,
        memory_budget_mb=memory_budget_mb,
        block_rows=block_rows,
        source_path=path,
    )


def _spill_is_fresh(src: Path, cache: Path) -> bool:
    if not cache.exists():
        return False
    try:
        read_binary_header(cache)
    except FileFormatError:
        return False
    return cache.stat().st_mtime >= src.stat().st_mtime
