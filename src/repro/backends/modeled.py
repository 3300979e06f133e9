"""Modeled devices: the simulated GPUs and nodes behind the device backends.

Every device backend (CUDA / OpenCL / SYCL, the heterogeneous rig and the
multi-node cluster) trains on the one host operator,
:class:`repro.core.qmatrix.ImplicitQMatrix`, so splitting the features
across GPUs (§III-C5) or the rows across nodes changes only modeled time
and memory, never a value. What makes a backend a device backend is a
:class:`ModeledDevices` attached to that operator: before every kernel
product it issues the launches, transfers and collectives the real
devices would perform, one matvec's worth per right-hand-side column.

Two schemes share the object:

* **one node** (no network) runs PLSSVM's own kernels. Setup splits the
  features across the node's devices, allocates the padded SoA slab
  (§III-A), the ``q`` vector and the CG working set, uploads the slab
  and runs the ``q`` kernel (§III-C2). Each matvec launches the blocked
  implicit kernel and the BLAS-1 vector kernel on every device; with
  more than one device each partial result goes to the host and the
  reduced vector comes back over PCIe (no direct GPU-to-GPU traffic).
  The solution is written back once at the end.
* **a cluster** (a :class:`~repro.parallel.mpi_sim.NetworkSpec`): node
  ``k`` owns the ``k``-th of :func:`node_row_blocks`, split feature-wise
  over its GPUs. The row ownership is priced, not computed: the host
  operator's values do not depend on it. The linear kernel charges two
  GEMV passes per GPU around one ``d``-length allreduce (the Gram
  factorization); the non-linear kernels charge Tyree et al.'s
  sample-sharded sweep: every foreign row tile is broadcast to the node,
  each tile is one launch per GPU, and the overlapping full-length
  partials meet in one ``n``-length allreduce.

Every byte count takes its value width from the fit's dtype, and
``float32`` runs on the FP32 pipeline. The dry-run models of
:mod:`repro.experiments.analytic` replay this object on fresh devices
without data, so the paper-scale figures are this simulator evaluated
at another size.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import DataError, DeviceError, DeviceLostError
from ..parallel.mpi_sim import NetworkSpec, SimCommunicator
from ..parallel.partition import BlockRange, chunk_ranges, feature_split, round_up
from ..profiling import ComponentTimer
from ..simgpu.device import SimulatedDevice
from ..telemetry.context import current_context
from ..types import KernelType
from .kernels import (
    KernelConfig,
    KernelCosts,
    matvec_costs,
    q_vector_costs,
    vector_ops_costs,
)

__all__ = [
    "ModeledDevices",
    "ModeledBackend",
    "attach_devices",
    "node_row_blocks",
    "report_device_summaries",
]

#: Row padding of a cluster node's slab (its GEMV block size).
_CLUSTER_PAD = 64


def node_row_blocks(num_rows: int, num_nodes: int) -> List[BlockRange]:
    """The rows each node of a cluster owns: contiguous, near-equal blocks.

    Empty blocks are dropped, so tiny data may not fill the cluster.
    """
    return [r for r in chunk_ranges(num_rows, num_nodes) if len(r) > 0]


def report_device_summaries(devices: Sequence[SimulatedDevice]) -> None:
    """Push each device's end-of-solve summary into the active context.

    Called from :meth:`ModeledDevices.finalize` so a fit's ``report_``
    carries the per-device modeled times Fig. 2-style comparisons need.
    Lost and idle devices are included (flagged), since their partial
    work and loss are part of the fit's story.
    """
    ctx = current_context()
    for device in devices:
        summary = {
            "device_id": device.device_id,
            "name": device.spec.name,
            "lost": device.lost,
        }
        summary.update(device.summary())
        ctx.add_device_summary(summary)


def _gemv(rows: int, cols: int, parallel: int, value_bytes: int) -> KernelCosts:
    """One dense GEMV over a ``rows x cols`` slab, ``parallel`` outputs wide."""
    return KernelCosts(
        flops=2.0 * rows * cols,
        global_bytes=(rows * cols + rows + cols) * value_bytes,
        shared_bytes=0.0,
        grid_blocks=max(parallel // 256, 1),
        block_threads=256,
    )


class ModeledDevices:
    """Simulated devices attached to one operator: charges, memory, clocks.

    Parameters
    ----------
    nodes:
        One list of devices per node. A node uses as many of its devices
        as the feature split fills; surplus devices stay idle.
    num_rows, num_features:
        The reduced system's points: ``m - 1`` rows of ``d`` features.
    kernel, dtype:
        Kernel function and working precision.
    config:
        Blocked-kernel tuning knobs, which price the single-node kernels.
    feature_ranges:
        Explicit feature slices of a single node's devices, slice ``i``
        for device ``i`` (the heterogeneous backend's throughput-weighted
        split); a device with an empty slice stays idle. By default the
        features are split equally.
    row_blocks:
        The rows each node owns (:func:`node_row_blocks` for a cluster);
        by default one node owns every row.
    network:
        Inter-node fabric of a cluster; ``None`` for one node running
        PLSSVM's kernels.
    tile_rows:
        Row-tile height of the non-linear cluster sweep.

    Construction only lays the devices out; :meth:`setup` charges the
    setup (:func:`attach_devices` does both).
    """

    def __init__(
        self,
        nodes: Sequence[Sequence[SimulatedDevice]],
        *,
        num_rows: int,
        num_features: int,
        kernel=KernelType.LINEAR,
        dtype=np.float64,
        config: Optional[KernelConfig] = None,
        feature_ranges: Optional[Sequence[BlockRange]] = None,
        row_blocks: Optional[Sequence[BlockRange]] = None,
        network: Optional[NetworkSpec] = None,
        tile_rows: int = 1024,
    ) -> None:
        if not nodes or any(len(node) == 0 for node in nodes):
            raise DeviceError("at least one device is required")
        self.num_rows = int(num_rows)
        self.num_features = int(num_features)
        self.kernel = KernelType.from_name(kernel)
        if network is None and len(nodes[0]) > 1 and self.kernel is not KernelType.LINEAR:
            raise DeviceError(
                "multi-device execution currently supports only the linear kernel "
                "(the polynomial and radial kernels are single-device, as in PLSSVM v1.0.1)"
            )
        self.config = config or KernelConfig()
        # The paper's single template parameter: FP32 halves every byte
        # count and runs on the single precision pipeline.
        self.value_bytes = int(np.dtype(dtype).itemsize)
        self.precision = "fp32" if self.value_bytes == 4 else "fp64"
        self.tile_rows = int(tile_rows)
        self.row_blocks = (
            [BlockRange(0, self.num_rows)] if row_blocks is None else list(row_blocks)
        )
        if len(self.row_blocks) != len(nodes):
            raise DeviceError(
                f"{len(nodes)} node(s) for {len(self.row_blocks)} row block(s)"
            )
        self.comm = None if network is None else SimCommunicator(len(nodes), network)
        #: Every device handed in, for the end-of-fit report.
        self.devices: List[SimulatedDevice] = [dev for node in nodes for dev in node]
        #: Per node: the devices holding a feature slice, and their slices.
        self.nodes: List[List[SimulatedDevice]] = []
        self.slices: List[List[BlockRange]] = []
        for node in nodes:
            if feature_ranges is None:
                slices = feature_split(self.num_features, len(node))
            else:
                slices = list(feature_ranges)
                if sum(len(r) for r in slices) != self.num_features:
                    raise DeviceError("feature_ranges must cover every feature exactly once")
                if len(slices) > len(node):
                    raise DeviceError("more feature slices than devices")
            # Each slice stays with its own device; empty ones leave it idle.
            held = [(dev, sl) for dev, sl in zip(node, slices) if len(sl) > 0]
            self.nodes.append([dev for dev, _ in held])
            self.slices.append([sl for _, sl in held])

    # -- layout ---------------------------------------------------------------

    def _buffers(self, rows: int, features: int) -> Dict[str, int]:
        """Device buffers of one device holding ``rows`` x ``features`` points."""
        vb = self.value_bytes
        if self.comm is None:
            # The padded SoA slab (at least one full block of padding,
            # §III-C1), the q vector and the CG working set (x, r, d, Ad, rhs).
            pad = self.config.tile
            return {
                "data": (round_up(rows, pad) + pad) * features * vb,
                "q_vector": rows * vb,
                "cg_vectors": 5 * rows * vb,
            }
        return {
            "data": (round_up(rows, _CLUSTER_PAD) + _CLUSTER_PAD) * features * vb,
            "vectors": 4 * max(rows, self.num_features) * vb,
        }

    def memory_bytes(self) -> List[int]:
        """Bytes :meth:`setup` allocates on each active device (no device touched)."""
        return [
            sum(self._buffers(len(rows), len(sl)).values())
            for rows, slices in zip(self.row_blocks, self.slices)
            for sl in slices
        ]

    @property
    def active(self) -> List[SimulatedDevice]:
        """The devices holding a feature slice, node by node."""
        return [dev for node in self.nodes for dev in node]

    # -- charges ----------------------------------------------------------------

    def _launch(self, device: SimulatedDevice, name: str, costs: KernelCosts) -> None:
        device.launch(
            name,
            flops=costs.flops,
            global_bytes=costs.global_bytes,
            shared_bytes=costs.shared_bytes,
            grid_blocks=costs.grid_blocks,
            block_threads=costs.block_threads,
            precision=self.precision,
        )

    def _upload(self, device: SimulatedDevice, nbytes: int, features: int) -> None:
        """Copy a device's slab up; PLSSVM's kernels then compute its q partial."""
        device.copy_to_device(nbytes)
        if self.comm is None and self.config.cache_q:
            costs = q_vector_costs(
                self.num_rows, features, self.kernel, self.config,
                value_bytes=self.value_bytes,
            )
            self._launch(device, "device_kernel_q", costs)

    def setup(self) -> None:
        """Initialize every active device, allocate its buffers, upload its slab."""
        for rows, node, slices in zip(self.row_blocks, self.nodes, self.slices):
            for device, sl in zip(node, slices):
                device.initialize()
                buffers = self._buffers(len(rows), len(sl))
                for name, nbytes in buffers.items():
                    device.malloc(name, nbytes)
                self._upload(device, buffers["data"], len(sl))

    def charge_matvec(self, columns: int = 1) -> None:
        """Issue the charges of one matvec per right-hand-side column."""
        for _ in range(columns):
            if self.comm is None:
                self._charge_node()
            elif self.kernel is KernelType.LINEAR:
                self._charge_gram()
            else:
                self._charge_tiles()

    def _charge_node(self) -> None:
        n, vb = self.num_rows, self.value_bytes
        name = (
            "device_kernel_linear" if self.kernel is KernelType.LINEAR
            else f"device_kernel_{self.kernel}"
        )
        multi = len(self.nodes[0]) > 1
        for device, sl in zip(self.nodes[0], self.slices[0]):
            costs = matvec_costs(n, len(sl), self.kernel, self.config, value_bytes=vb)
            self._launch(device, name, costs)
            self._launch(device, "device_kernel_vector_ops", vector_ops_costs(n, value_bytes=vb))
            if multi:
                # Partial result to the host and the reduced vector back.
                device.copy_from_device(n * vb)
                device.copy_to_device(n * vb)

    def _charge_gram(self) -> None:
        vb = self.value_bytes
        # Phase 1: each GPU's feature segment of X_k^T v_k goes to the host.
        for rows, node, slices in zip(self.row_blocks, self.nodes, self.slices):
            for device, sl in zip(node, slices):
                costs = _gemv(len(rows), len(sl), len(sl), vb)
                self._launch(device, "multinode_gemv_xt_v", costs)
                device.copy_from_device(len(sl) * vb)
        # Phase 2: one d-length allreduce across the nodes.
        self.comm.charge_allreduce(self.num_features * vb)
        # Phase 3: each GPU's contribution to X_k w, then the CG vector updates.
        for rows, node, slices in zip(self.row_blocks, self.nodes, self.slices):
            for device, sl in zip(node, slices):
                device.copy_to_device(len(sl) * vb)
                costs = _gemv(len(rows), len(sl), len(rows), vb)
                self._launch(device, "multinode_gemv_x_w", costs)
                self._launch(
                    device, "multinode_vector_ops",
                    vector_ops_costs(max(len(rows), 1), value_bytes=vb),
                )

    def _charge_tiles(self) -> None:
        n, d, vb = self.num_rows, self.num_features, self.value_bytes
        tiles = [(t, min(t + self.tile_rows, n)) for t in range(0, n, self.tile_rows)]
        if self.comm.num_ranks > 1:
            # Every node sweeps every row tile: each tile's points leave
            # their owner once, to all other nodes.
            for tstart, tstop in tiles:
                owner = next(k for k, block in enumerate(self.row_blocks) if tstart < block.stop)
                self.comm.charge_broadcast((tstop - tstart) * d * vb, root=owner)
        for rows, node, slices in zip(self.row_blocks, self.nodes, self.slices):
            for tstart, tstop in tiles:
                trows = tstop - tstart
                for device, sl in zip(node, slices):
                    # Feature-sliced distance/inner-product partials; the
                    # kernel function itself is O(trows * |rows|).
                    f = len(sl)
                    costs = KernelCosts(
                        flops=2.0 * trows * len(rows) * max(f, 1),
                        global_bytes=(trows * f + len(rows) * f + trows * len(rows)) * vb,
                        shared_bytes=0.0,
                        grid_blocks=max(trows // 256, 1),
                        block_threads=256,
                    )
                    self._launch(device, "multinode_kernel_tile", costs)
            for device in node:
                device.copy_from_device(n * vb)
        # The full-length partials overlap: a true n-length allreduce.
        self.comm.charge_allreduce(n * vb)

    def writeback(self) -> None:
        """Charge the final device->host copy of the solution vector."""
        for device in self.active:
            device.copy_from_device(self.num_rows * self.value_bytes)

    # -- fault recovery -----------------------------------------------------------

    def handle_device_loss(self, device: SimulatedDevice) -> int:
        """Re-split a lost device's node over its survivors; returns their count.

        Graceful degradation (§III-D): the feature-wise split only needs
        the kernel's linearity, not a fixed device count, so losing a
        card mid-solve is recoverable by re-running the split over the
        node's surviving devices and re-uploading their (larger) slabs
        (PLSSVM's kernels also recompute their q partials). Every
        survivor is charged its modeled ``fault_recovery_s``. The rows a
        node owns stay with it: a node that loses its last device raises
        :class:`~repro.exceptions.DeviceLostError` with ``device=None``,
        which is unrecoverable. Called by
        :func:`repro.core.resilience.resilient_solve`; cascading faults
        during the re-upload propagate and are recovered in turn.
        """
        for k, node in enumerate(self.nodes):
            if device in node:
                break
        else:
            raise DeviceError(
                f"device {device.spec.name!r} (id {device.device_id}) does "
                "not belong to these devices"
            )
        survivors = [dev for dev in node if dev is not device and not dev.lost]
        if not survivors:
            raise DeviceLostError(
                f"device {device.spec.name!r} (id {device.device_id}) was the last "
                f"one of node {k}; its rows cannot be redistributed",
                device=None,
            )
        slices = feature_split(self.num_features, len(survivors))
        self.nodes[k], self.slices[k] = survivors[: len(slices)], slices
        rows = len(self.row_blocks[k])
        for dev, sl in zip(self.nodes[k], slices):
            dev.clock += dev.spec.fault_recovery_s
            dev.free("data")
            nbytes = self._buffers(rows, len(sl))["data"]
            dev.malloc("data", nbytes)
            self._upload(dev, nbytes, len(sl))
        return len(self.nodes[k])

    # -- reporting ------------------------------------------------------------------

    def _require_devices(self, what: str) -> None:
        if any(not node for node in self.nodes):
            raise DataError(f"cannot report {what}: at least one node holds no devices")

    def gpu_time(self) -> float:
        """Modeled device seconds: the devices run concurrently (max clock)."""
        self._require_devices("a device time")
        return max(dev.clock for dev in self.active)

    def communication_time(self) -> float:
        """Modeled inter-node seconds (zero without a network)."""
        return 0.0 if self.comm is None else self.comm.elapsed

    def device_time(self) -> float:
        """Modeled elapsed seconds: the slowest device plus the fabric."""
        return self.gpu_time() + self.communication_time()

    def total_device_launches(self) -> int:
        return sum(dev.counters.launches for dev in self.active)

    def memory_per_device_gib(self) -> List[float]:
        """Peak simulated memory footprint per active device, in GiB."""
        self._require_devices("per-GPU memory")
        return [dev.peak_allocated_bytes / 1024**3 for dev in self.active]

    def memory_per_gpu_gib(self) -> float:
        """Worst per-GPU peak footprint (GPUs are asymmetric after failover)."""
        return max(self.memory_per_device_gib())

    def finalize(self, timings: ComponentTimer) -> None:
        """End of fit: write back, fold modeled seconds into ``timings``, report."""
        if self.comm is None:
            # One node copies the solution back; a cluster leaves it distributed.
            self.writeback()
        timings.section("cg_device").add(self.device_time())
        if self.comm is not None:
            timings.section("communication").add(self.communication_time())
        report_device_summaries(self.devices)


def attach_devices(
    qmat,
    nodes: Sequence[Sequence[SimulatedDevice]],
    *,
    config: Optional[KernelConfig] = None,
    feature_ranges: Optional[Sequence[BlockRange]] = None,
    row_blocks: Optional[Sequence[BlockRange]] = None,
    network: Optional[NetworkSpec] = None,
) -> ModeledDevices:
    """Lay ``nodes`` out over ``qmat``, charge their setup, attach them.

    ``qmat`` is an :class:`~repro.core.qmatrix.ImplicitQMatrix`; node ``k``
    owns ``row_blocks[k]`` (by default one node owns every row).
    """
    cost = ModeledDevices(
        nodes,
        num_rows=qmat.shape[0],
        num_features=qmat.X.shape[1],
        kernel=qmat.param.kernel,
        dtype=qmat.dtype,
        config=config,
        feature_ranges=feature_ranges,
        row_blocks=row_blocks,
        network=network,
        tile_rows=qmat.tile_rows,
    )
    cost.setup()
    qmat.cost = cost
    return cost


class ModeledBackend:
    """What every simulated-device backend shares: the last run and its reports."""

    _last_run: Optional[ModeledDevices] = None

    def _attach(self, qmat, nodes, **kwargs):
        self._last_run = attach_devices(qmat, nodes, **kwargs)
        return qmat

    def finalize(self, qmat, timings: ComponentTimer) -> None:
        qmat.cost.finalize(timings)

    def last_run(self) -> ModeledDevices:
        """The modeled devices of the most recent training run."""
        if self._last_run is None:
            raise DeviceError("no training run has been executed yet")
        return self._last_run

    def device_time(self) -> float:
        """Modeled elapsed seconds of the most recent training run."""
        return self.last_run().device_time()

    def communication_time(self) -> float:
        """Modeled inter-node seconds of the most recent training run."""
        return self.last_run().communication_time()

    def memory_per_device_gib(self) -> List[float]:
        """Peak simulated memory per active device of the most recent run."""
        return self.last_run().memory_per_device_gib()

    def memory_per_gpu_gib(self) -> float:
        """Worst per-GPU peak memory of the most recent run."""
        return self.last_run().memory_per_gpu_gib()

    def per_device_times(self, *, include_init: bool = False):
        """(device name, busy seconds) per active device — the balancing diagnostic.

        ``include_init=False`` (default) subtracts the one-time context
        initialization: it is a constant per device and would mask the
        balance of the actual iteration work at small problem sizes.
        """
        out = []
        for d in self.last_run().active:
            busy = d.clock - (0.0 if include_init else d.spec.init_overhead_s)
            out.append((d.spec.name, max(busy, 0.0)))
        return out
