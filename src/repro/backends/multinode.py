"""Multi-node multi-GPU backend (paper §V: the long-term goal).

The paper's conclusion targets "multi-node multi-GPU systems ... to be able
to use even larger data sets". This backend delivers the natural
distributed scheme for the *linear* kernel, where the Gram factorization
``K_bar @ v = X_bar @ (X_bar.T @ v)`` makes true data distribution
possible:

* the data points (rows) are split across the nodes — unlike the
  *feature*-wise split inside a node, a row split shrinks every node's
  memory footprint with the data set size, which is the point of going
  multi-node;
* within each node the local row block is split feature-wise across the
  GPUs, exactly like the single-node multi-GPU scheme (§III-C5);
* one CG matvec costs two local GEMV passes over each GPU's slab plus a
  single ``d``-length allreduce across the nodes (the ``X_bar.T @ v``
  partial sums) — the only inter-node traffic per iteration.

The non-linear kernels distribute by *samples* (the out-of-core
row-shard scheme): each node owns a row-shard of the data and its slice
of ``v``, and per matvec streams every row tile of ``X_bar`` against its
own columns, producing a full-length partial product (computed by the
host tile pipeline over the node's shard). The partials genuinely
overlap, so combining them is a true ``n``-length allreduce — the
per-iteration streaming the linear Gram factorization avoids, now
delivered with its modeled cost (every foreign tile is charged as
inter-node traffic, every tile evaluation as GPU kernel time split
feature-wise over the node's devices).

Everything is functional (the arithmetic is exact, verified against the
single-node operator); node-local GPU time comes from the simulated
devices, inter-node time from :class:`repro.parallel.mpi_sim.SimCommunicator`.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from ..core.qmatrix import QMatrixBase
from ..core.tile_pipeline import TilePipeline
from ..exceptions import DataError, DeviceError, DeviceLostError
from ..parallel.mpi_sim import NetworkSpec, SimCommunicator
from ..parallel.partition import BlockRange, chunk_ranges, feature_split
from ..parameter import Parameter
from ..profiling import ComponentTimer
from ..simgpu.catalog import get_device_spec
from ..simgpu.device import SimulatedDevice
from ..simgpu.spec import DeviceSpec
from ..types import BackendType, KernelType
from .base import CSVM, report_device_summaries
from .kernels import vector_ops_costs
from .soa import transform_to_soa

__all__ = ["MultiNodeCSVM", "MultiNodeQMatrix"]

_FP64_BYTES = 8


def _gemv_cost(rows: int, cols: int) -> tuple:
    """(flops, global_bytes) of one dense GEMV over a rows x cols slab."""
    flops = 2.0 * rows * cols
    gbytes = (rows * cols + rows + cols) * _FP64_BYTES
    return flops, gbytes


class MultiNodeQMatrix(QMatrixBase):
    """Row-distributed Q_tilde across simulated nodes.

    Node ``k`` owns the row block ``rows_k`` of ``X_bar``; its GPUs hold
    feature slices of that block in SoA layout. Per linear-kernel matvec:

    1. each GPU computes its slice of ``w_k = X_bar[rows_k].T @ v[rows_k]``
       (disjoint feature segments — no intra-node reduction needed);
    2. the nodes allreduce ``w`` (one ``d``-vector);
    3. each GPU computes its contribution to ``out[rows_k] = X_bar[rows_k] @ w``
       from its feature slice; the host sums the per-GPU partials.

    Non-linear kernels have no Gram factorization, so they run the
    sample-sharded scheme instead: node ``k`` streams *every* row tile of
    ``X_bar`` against its own columns ``X_bar[rows_k]``, producing the
    full-length partial ``p_k[I] += K(X_I, X_bar[rows_k]) @ v[rows_k]``.
    Foreign tiles are charged as inter-node broadcasts, tile kernels as
    GPU launches split feature-wise over the node's devices, and the
    overlapping partials combine in one ``n``-length allreduce.
    """

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        param: Parameter,
        *,
        num_nodes: int,
        gpus_per_node: int,
        device: Union[str, DeviceSpec] = "nvidia_a100",
        network: NetworkSpec = NetworkSpec(),
        fault_plan=None,
        tile_rows: int = 1024,
    ) -> None:
        super().__init__(X, y, param)
        if tile_rows < 1:
            raise DeviceError("tile_rows must be positive")
        self._tile_rows = int(tile_rows)
        if num_nodes < 1 or gpus_per_node < 1:
            raise DeviceError("need at least one node with one GPU")
        spec = device if isinstance(device, DeviceSpec) else get_device_spec(device)
        if not spec.supports("cuda"):
            raise DeviceError("multi-node backend drives CUDA-capable devices")

        n, d = self.X_bar.shape
        self.row_blocks: List[BlockRange] = [
            r for r in chunk_ranges(n, num_nodes) if len(r) > 0
        ]
        # One rank per non-empty row block (tiny data may not fill the cluster).
        self.comm = SimCommunicator(len(self.row_blocks), network)
        self.nodes: List[List[SimulatedDevice]] = []
        self._node_data = []  # per node: list of (soa slab, feature slice)
        # Kept for failover: redistribution re-slices the node's SoA block.
        self._node_soa = []

        feature_ranges = feature_split(d, gpus_per_node)
        for node_id, rows in enumerate(self.row_blocks):
            soa = transform_to_soa(self.X_bar[rows.slice], block_size=64)
            devices = []
            slabs = []
            for gpu_id, frange in enumerate(feature_ranges):
                dev = SimulatedDevice(spec, "cuda", device_id=node_id * 100 + gpu_id)
                dev.attach_fault_plan(fault_plan)
                dev.initialize()
                slab = soa.feature_slice(frange.slice)
                dev.malloc("data", slab.nbytes)
                dev.malloc("vectors", 4 * max(len(rows), d) * _FP64_BYTES)
                dev.copy_to_device(slab.nbytes)
                devices.append(dev)
                slabs.append((slab, frange))
            self.nodes.append(devices)
            self._node_data.append(slabs)
            self._node_soa.append(soa)
        # Non-linear kernels: node k's partial K[:, rows_k] @ v[rows_k] is a
        # tile pipeline over the node's shard of columns. Like the modeled
        # GPUs, it recomputes every tile in every matvec (no tile cache).
        self._node_pipelines: List[TilePipeline] = []
        if self.param.kernel is not KernelType.LINEAR:
            self._node_pipelines = [
                TilePipeline(
                    self.X_bar,
                    self.param.kernel,
                    **self.param.kernel_kwargs(),
                    tile_rows=self._tile_rows,
                    cache_mb=0.0,
                    dtype=self.dtype,
                    shards=[rows],
                )
                for rows in self.row_blocks
            ]

    # -- fault recovery -----------------------------------------------------------

    def handle_device_loss(self, device: SimulatedDevice) -> None:
        """Redistribute a lost GPU's feature slice within its node.

        The row split across nodes is fixed (each node owns its rows'
        data), but *within* the owning node the feature-wise split works
        for any surviving GPU count — the same graceful degradation as the
        single-node operator. A node whose last GPU dies loses its row
        block entirely, which is unrecoverable (``device=None``).
        """
        for node_id, devices in enumerate(self.nodes):
            if device in devices:
                break
        else:
            raise DeviceError(
                f"device {device.spec.name!r} (id {device.device_id}) does "
                "not belong to this operator"
            )
        survivors = [dev for dev in devices if dev is not device and not dev.lost]
        if not survivors:
            raise DeviceLostError(
                f"node {node_id} lost its last GPU; its row block cannot be "
                "recovered by redistribution",
                device=None,
            )
        soa = self._node_soa[node_id]
        feature_ranges = feature_split(self.X_bar.shape[1], len(survivors))
        survivors = survivors[: len(feature_ranges)]
        slabs = []
        for dev, frange in zip(survivors, feature_ranges):
            dev.clock += dev.spec.fault_recovery_s
            dev.free("data")
            slab = soa.feature_slice(frange.slice)
            dev.malloc("data", slab.nbytes)
            dev.copy_to_device(slab.nbytes)
            slabs.append((slab, frange))
        self.nodes[node_id] = survivors
        self._node_data[node_id] = slabs

    # -- distributed matvec -----------------------------------------------------------

    def _kernel_matvec(self, v: np.ndarray) -> np.ndarray:
        if self.param.kernel is not KernelType.LINEAR:
            return self._row_shard_matvec(v)
        d = self.X_bar.shape[1]
        n = self.shape[0]
        # Phase 1: local X^T v partials per node (per GPU: its feature slice).
        partial_ws = []
        for rows, devices, slabs in zip(self.row_blocks, self.nodes, self._node_data):
            v_local = v[rows.slice]
            w_node = np.zeros(d)
            for dev, (slab, frange) in zip(devices, slabs):
                w_node[frange.slice] = slab.logical.T @ v_local
                flops, gbytes = _gemv_cost(len(rows), len(frange))
                dev.launch(
                    "multinode_gemv_xt_v",
                    flops=flops,
                    global_bytes=gbytes,
                    grid_blocks=max(len(frange) // 256, 1),
                    block_threads=256,
                )
                # Partial segment to the host for the allreduce.
                dev.copy_from_device(len(frange) * _FP64_BYTES)
            partial_ws.append(w_node)

        # Phase 2: one d-length allreduce across the nodes.
        ws = self.comm.allreduce_sum(partial_ws)

        # Phase 3: local X w per node.
        out = np.empty(n)
        for rows, devices, slabs, w in zip(
            self.row_blocks, self.nodes, self._node_data, ws
        ):
            acc = np.zeros(len(rows))
            for dev, (slab, frange) in zip(devices, slabs):
                dev.copy_to_device(len(frange) * _FP64_BYTES)
                acc += slab.logical @ w[frange.slice]
                flops, gbytes = _gemv_cost(len(rows), len(frange))
                dev.launch(
                    "multinode_gemv_x_w",
                    flops=flops,
                    global_bytes=gbytes,
                    grid_blocks=max(len(rows) // 256, 1),
                    block_threads=256,
                )
                vc = vector_ops_costs(max(len(rows), 1))
                dev.launch(
                    "multinode_vector_ops",
                    flops=vc.flops,
                    global_bytes=vc.global_bytes,
                    grid_blocks=vc.grid_blocks,
                    block_threads=vc.block_threads,
                )
            out[rows.slice] = acc
        return out

    def _row_shard_matvec(self, v: np.ndarray) -> np.ndarray:
        """Sample-sharded matvec for the non-linear kernels.

        Every node produces a *full-length* partial product from its own
        columns; the partials overlap on every entry, so the combine is a
        genuine ``n``-vector allreduce (unlike the linear path's
        ``d``-vector Gram reduction). The arithmetic of node ``k``'s
        partial is the host tile pipeline over its shard of columns.
        """
        n, d = self.X_bar.shape
        partials = []
        for rows, devices, slabs, pipeline in zip(
            self.row_blocks, self.nodes, self._node_data, self._node_pipelines
        ):
            for tstart in range(0, n, self._tile_rows):
                tstop = min(tstart + self._tile_rows, n)
                trows = tstop - tstart
                # Foreign tiles reach the node over the fabric; the node's
                # own rows are already resident.
                owned = rows.start <= tstart and tstop <= rows.stop
                tile_bytes = trows * d * _FP64_BYTES
                if not owned and self.comm.num_ranks > 1:
                    self.comm.broadcast(
                        np.empty(0), root=self._owner_of(tstart)
                    )
                    self.comm.bytes_moved += tile_bytes
                for dev, (_, frange) in zip(devices, slabs):
                    # Feature-sliced distance/inner-product partials; the
                    # kernel function itself is O(trows * |rows|).
                    flops = 2.0 * trows * len(rows) * max(len(frange), 1)
                    gbytes = (
                        trows * len(frange)
                        + len(rows) * len(frange)
                        + trows * len(rows)
                    ) * _FP64_BYTES
                    dev.launch(
                        "multinode_kernel_tile",
                        flops=flops,
                        global_bytes=gbytes,
                        grid_blocks=max(trows // 256, 1),
                        block_threads=256,
                    )
            for dev in devices:
                dev.copy_from_device(n * _FP64_BYTES)
            partials.append(pipeline.sweep(v))
        return self.comm.allreduce_sum(partials)[0]

    def _owner_of(self, row: int) -> int:
        for node_id, rows in enumerate(self.row_blocks):
            if rows.start <= row < rows.stop:
                return node_id
        return 0

    # -- reporting ----------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.row_blocks)

    def device_time(self) -> float:
        """Modeled elapsed time: slowest node's GPU clock + communication."""
        if not self.nodes or any(not devices for devices in self.nodes):
            raise DataError(
                "cannot report a device time: at least one node holds no devices"
            )
        per_node = [max(dev.clock for dev in devices) for devices in self.nodes]
        return max(per_node) + self.comm.elapsed

    def communication_time(self) -> float:
        return self.comm.elapsed

    def memory_per_gpu_gib(self) -> float:
        """Worst per-GPU peak footprint (GPUs are asymmetric after failover)."""
        if not self.nodes or any(not devices for devices in self.nodes):
            raise DataError(
                "cannot report per-GPU memory: at least one node holds no devices"
            )
        return (
            max(dev.peak_allocated_bytes for devices in self.nodes for dev in devices)
            / 1024**3
        )


class MultiNodeCSVM(CSVM):
    """Backend driving a simulated cluster of identical GPU nodes.

    Parameters
    ----------
    num_nodes:
        Cluster size (ranks).
    gpus_per_node:
        Devices per node (the paper's node has four A100s).
    device:
        Catalog key / spec of the per-node GPU model.
    network:
        Inter-node fabric parameters.
    fault_plan:
        Optional :class:`repro.simgpu.FaultPlan` attached to every GPU in
        the cluster (fault-injection experiments).
    """

    backend_type = BackendType.AUTOMATIC

    def __init__(
        self,
        num_nodes: int = 2,
        *,
        gpus_per_node: int = 4,
        device: Union[str, DeviceSpec] = "nvidia_a100",
        network: NetworkSpec = NetworkSpec(),
        fault_plan=None,
    ) -> None:
        if num_nodes < 1:
            raise DeviceError("need at least one node")
        self.num_nodes = int(num_nodes)
        self.gpus_per_node = int(gpus_per_node)
        self.device = device
        self.network = network
        self.fault_plan = fault_plan
        self._last_qmatrix: Optional[MultiNodeQMatrix] = None

    def create_qmatrix(
        self, X: np.ndarray, y: np.ndarray, param: Parameter
    ) -> MultiNodeQMatrix:
        qmat = MultiNodeQMatrix(
            X,
            y,
            param,
            num_nodes=self.num_nodes,
            gpus_per_node=self.gpus_per_node,
            device=self.device,
            network=self.network,
            fault_plan=self.fault_plan,
        )
        self._last_qmatrix = qmat
        return qmat

    def finalize(self, qmat: QMatrixBase, timings: ComponentTimer) -> None:
        if isinstance(qmat, MultiNodeQMatrix):
            timings.section("cg_device").add(qmat.device_time())
            timings.section("communication").add(qmat.communication_time())
            for devices in qmat.nodes:
                report_device_summaries(devices)

    def device_time(self) -> float:
        if self._last_qmatrix is None:
            raise DeviceError("no training run has been executed yet")
        return self._last_qmatrix.device_time()

    def communication_time(self) -> float:
        if self._last_qmatrix is None:
            raise DeviceError("no training run has been executed yet")
        return self._last_qmatrix.communication_time()

    def memory_per_gpu_gib(self) -> float:
        if self._last_qmatrix is None:
            raise DeviceError("no training run has been executed yet")
        return self._last_qmatrix.memory_per_gpu_gib()

    def describe(self) -> str:
        return (
            f"multi-node backend: {self.num_nodes} node(s) x "
            f"{self.gpus_per_node} GPU(s) over {self.network.name} (simulated)"
        )
