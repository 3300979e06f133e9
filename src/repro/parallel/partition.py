"""Index-space decomposition helpers.

These utilities implement the partitioning schemes described in the paper:

* contiguous row blocks for the OpenMP backend's ``parallel for``;
* 2-D tile grids with padding for the GPU blocking scheme (§III-C1), where
  thread blocks cover the full (padded) matrix but only tiles on or above
  the diagonal perform work;
* feature-wise splits for multi-GPU execution of the linear kernel
  (§III-C5): each device receives a contiguous slice of the feature
  dimension, never of the data points.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Sequence, Tuple

__all__ = [
    "BlockRange",
    "chunk_ranges",
    "feature_split",
    "weighted_device_slices",
    "weighted_feature_split",
    "round_up",
    "tile_grid",
]


@dataclasses.dataclass(frozen=True)
class BlockRange:
    """A half-open index interval ``[start, stop)`` assigned to one worker."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ValueError(f"invalid block range [{self.start}, {self.stop})")

    def __len__(self) -> int:
        return self.stop - self.start

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.stop))

    @property
    def slice(self) -> slice:
        return slice(self.start, self.stop)


def round_up(value: int, multiple: int) -> int:
    """Round ``value`` up to the next multiple of ``multiple``.

    Used to compute padded sizes so device kernels never need boundary
    checks (paper §III-C1: "padding that is always at least the size of a
    full block").
    """
    if multiple <= 0:
        raise ValueError("multiple must be positive")
    if value < 0:
        raise ValueError("value must be non-negative")
    return ((value + multiple - 1) // multiple) * multiple


def chunk_ranges(total: int, num_chunks: int) -> List[BlockRange]:
    """Split ``[0, total)`` into ``num_chunks`` nearly equal contiguous blocks.

    The first ``total % num_chunks`` blocks are one element longer, matching
    OpenMP's static schedule. Empty blocks are produced when
    ``num_chunks > total`` so that callers can zip blocks with workers.
    """
    if num_chunks <= 0:
        raise ValueError("num_chunks must be positive")
    if total < 0:
        raise ValueError("total must be non-negative")
    base, extra = divmod(total, num_chunks)
    ranges: List[BlockRange] = []
    start = 0
    for i in range(num_chunks):
        size = base + (1 if i < extra else 0)
        ranges.append(BlockRange(start, start + size))
        start += size
    return ranges


def feature_split(num_features: int, num_devices: int) -> List[BlockRange]:
    """Feature-wise split across devices for the multi-GPU linear kernel.

    Every data point is cut into ``num_devices`` lower-dimensional points;
    the linear kernel's value is then the sum of the per-device partial dot
    products. Devices with an empty slice are dropped, mirroring PLSSVM's
    behaviour of not occupying more devices than there are features.
    """
    if num_devices <= 0:
        raise ValueError("num_devices must be positive")
    if num_features <= 0:
        raise ValueError("num_features must be positive")
    ranges = chunk_ranges(num_features, num_devices)
    return [r for r in ranges if len(r) > 0]


def weighted_device_slices(
    num_features: int, weights: Sequence[float]
) -> List[BlockRange]:
    """Feature slices proportional to per-device weights, one per device.

    The paper's long-term goal includes "load balancing on heterogeneous
    hardware": when the devices differ in throughput, an equal split makes
    the slowest device the critical path. This splitter sizes each
    contiguous feature slice proportionally to its device's weight
    (sustained FLOP/s), using largest-remainder rounding so the slices
    exactly tile the feature space. Slice ``i`` belongs to device ``i``;
    a device whose share rounds to zero gets an empty slice (and should
    be left idle).
    """
    if num_features <= 0:
        raise ValueError("num_features must be positive")
    if len(weights) == 0:
        raise ValueError("need at least one weight")
    w = [float(x) for x in weights]
    if any(x < 0 for x in w) or sum(w) <= 0:
        raise ValueError("weights must be non-negative with a positive sum")
    total = sum(w)
    exact = [num_features * x / total for x in w]
    sizes = [int(e) for e in exact]
    remainder = num_features - sum(sizes)
    # Largest fractional remainders get the leftover columns.
    order = sorted(range(len(w)), key=lambda i: exact[i] - sizes[i], reverse=True)
    for i in order[:remainder]:
        sizes[i] += 1
    ranges: List[BlockRange] = []
    start = 0
    for size in sizes:
        ranges.append(BlockRange(start, start + size))
        start += size
    return ranges


def weighted_feature_split(
    num_features: int, weights: Sequence[float]
) -> List[BlockRange]:
    """The non-empty slices of :func:`weighted_device_slices`, in order."""
    return [r for r in weighted_device_slices(num_features, weights) if len(r) > 0]


def tile_grid(
    num_rows: int, num_cols: int, tile: int, *, triangular: bool = False
) -> List[Tuple[BlockRange, BlockRange]]:
    """Enumerate the 2-D tile grid covering a (padded) matrix.

    Parameters
    ----------
    num_rows, num_cols:
        Logical matrix extent (tiles at the border are clipped to it).
    tile:
        Edge length of a square tile (the GPU ``blocksize``).
    triangular:
        When true, only tiles whose column-tile index is >= the row-tile
        index are returned — the upper-triangular tile set used to exploit
        the symmetry of the kernel matrix (paper §III-C1). The mirrored
        entries are filled in by the caller.
    """
    if tile <= 0:
        raise ValueError("tile must be positive")
    tiles: List[Tuple[BlockRange, BlockRange]] = []
    for bi, row_start in enumerate(range(0, num_rows, tile)):
        row = BlockRange(row_start, min(row_start + tile, num_rows))
        for bj, col_start in enumerate(range(0, num_cols, tile)):
            if triangular and bj < bi:
                continue
            col = BlockRange(col_start, min(col_start + tile, num_cols))
            tiles.append((row, col))
    return tiles


def assert_cover(ranges: Sequence[BlockRange], total: int) -> None:
    """Validate that ``ranges`` exactly tile ``[0, total)`` (debug helper)."""
    pos = 0
    for r in ranges:
        if r.start != pos:
            raise ValueError(f"ranges do not tile [0,{total}): gap/overlap at {pos}")
        pos = r.stop
    if pos != total:
        raise ValueError(f"ranges cover [0,{pos}) instead of [0,{total})")
