"""Simulated MPI-style communication for multi-node execution (paper §V).

The paper's outlook targets "multi-node multi-GPU systems". No cluster is
available here, so inter-node communication is simulated the same way the
devices are: collectives execute *functionally* on the host (the math is
exact) while a cost model charges each rank's communication clock with the
time the operation would take on a real interconnect.

Cost model (classic alpha-beta / Hockney with ring algorithms, the shapes
MPI implementations actually exhibit):

* point-to-point: ``latency + bytes / bandwidth``;
* allreduce of ``n`` bytes over ``p`` ranks (ring):
  ``2 (p-1) latency + 2 n (p-1) / (p bandwidth)``;
* broadcast / reduce (binomial tree): ``ceil(log2 p)`` rounds of
  point-to-point;
* barrier: one tree round-trip of empty messages.

The defaults describe a 200 Gb/s InfiniBand-class fabric.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Sequence

import numpy as np

from ..exceptions import DataError

__all__ = ["NetworkSpec", "SimCommunicator"]


@dataclasses.dataclass(frozen=True)
class NetworkSpec:
    """Interconnect parameters of the simulated cluster fabric."""

    name: str = "InfiniBand HDR"
    latency_us: float = 1.5
    bandwidth_gbs: float = 25.0  # 200 Gb/s

    def __post_init__(self) -> None:
        if self.latency_us < 0 or self.bandwidth_gbs <= 0:
            raise ValueError("invalid network parameters")

    @property
    def latency_s(self) -> float:
        return self.latency_us * 1e-6

    def p2p_time(self, nbytes: float) -> float:
        """One point-to-point message."""
        if nbytes < 0:
            raise ValueError("message size must be non-negative")
        return self.latency_s + nbytes / (self.bandwidth_gbs * 1e9)


class SimCommunicator:
    """An MPI_COMM_WORLD over simulated ranks.

    Collectives take *per-rank inputs as a list indexed by rank* and return
    per-rank outputs, executing the real arithmetic; every rank's
    communication clock advances by the modeled collective duration
    (collectives are synchronizing, so all ranks pay the same time).
    """

    def __init__(self, num_ranks: int, network: NetworkSpec = NetworkSpec()) -> None:
        if num_ranks < 1:
            raise DataError("need at least one rank")
        self.num_ranks = int(num_ranks)
        self.network = network
        self.clocks = [0.0] * self.num_ranks
        self.counters: Dict[str, int] = {
            "allreduce": 0,
            "broadcast": 0,
            "gather": 0,
            "barrier": 0,
        }
        self.bytes_moved = 0.0

    # -- cost helpers -------------------------------------------------------------

    def _charge_all(self, seconds: float, nbytes: float = 0.0) -> None:
        for rank in range(self.num_ranks):
            self.clocks[rank] += seconds
        self.bytes_moved += nbytes

    def _allreduce_time(self, nbytes: float) -> float:
        p = self.num_ranks
        if p == 1:
            return 0.0
        ring = 2.0 * nbytes * (p - 1) / (p * self.network.bandwidth_gbs * 1e9)
        return 2.0 * (p - 1) * self.network.latency_s + ring

    def _tree_time(self, nbytes: float) -> float:
        p = self.num_ranks
        if p == 1:
            return 0.0
        rounds = math.ceil(math.log2(p))
        return rounds * self.network.p2p_time(nbytes)

    # -- collectives ----------------------------------------------------------------

    def allreduce_sum(self, partials: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Element-wise sum over ranks; every rank receives the result."""
        self._validate(partials)
        total = np.sum(np.stack([np.asarray(p, dtype=np.float64) for p in partials]), axis=0)
        self.charge_allreduce(total.nbytes)
        return [total.copy() for _ in range(self.num_ranks)]

    def charge_allreduce(self, nbytes: float) -> None:
        """Charge an allreduce of ``nbytes`` per rank without moving data."""
        self._charge_all(self._allreduce_time(nbytes), nbytes * (self.num_ranks - 1))
        self.counters["allreduce"] += 1

    def broadcast(self, value: np.ndarray, root: int = 0) -> List[np.ndarray]:
        """Root's array delivered to every rank."""
        value = np.asarray(value, dtype=np.float64)
        self.charge_broadcast(value.nbytes, root=root)
        return [value.copy() for _ in range(self.num_ranks)]

    def charge_broadcast(self, nbytes: float, root: int = 0) -> None:
        """Charge a broadcast of ``nbytes`` from ``root`` without moving data."""
        self._check_rank(root)
        self._charge_all(self._tree_time(nbytes), nbytes * (self.num_ranks - 1))
        self.counters["broadcast"] += 1

    def gather(self, partials: Sequence[np.ndarray], root: int = 0) -> List[np.ndarray]:
        """Concatenate per-rank arrays at the root (rank order preserved)."""
        self._validate(partials)
        self._check_rank(root)
        nbytes = sum(np.asarray(p).nbytes for p in partials)
        self._charge_all(self._tree_time(nbytes / max(self.num_ranks, 1)), nbytes)
        self.counters["gather"] += 1
        return [np.asarray(p, dtype=np.float64).copy() for p in partials]

    def barrier(self) -> None:
        self._charge_all(2.0 * self._tree_time(0.0))
        self.counters["barrier"] += 1

    # -- bookkeeping -----------------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Communication seconds (all ranks advance in lockstep)."""
        return max(self.clocks)

    def reset(self) -> None:
        self.clocks = [0.0] * self.num_ranks
        for key in self.counters:
            self.counters[key] = 0
        self.bytes_moved = 0.0

    def _validate(self, partials: Sequence[np.ndarray]) -> None:
        if len(partials) != self.num_ranks:
            raise DataError(
                f"collective needs {self.num_ranks} per-rank inputs, got {len(partials)}"
            )
        shapes = {np.asarray(p).shape for p in partials}
        if len(shapes) != 1:
            raise DataError(f"per-rank arrays disagree in shape: {sorted(shapes)}")

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_ranks:
            raise DataError(f"rank {rank} out of range for {self.num_ranks} ranks")
