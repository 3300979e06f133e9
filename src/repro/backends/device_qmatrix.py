"""Q_tilde operator executing on (simulated) devices.

:class:`DeviceQMatrix` is the device-backend counterpart of
:class:`repro.core.qmatrix.ImplicitQMatrix`: functionally it computes the
exact same matrix-free ``Q_tilde @ v``, but it mirrors the full device
choreography of the C++ backends:

* setup transforms the data into the padded SoA layout (§III-A), splits it
  feature-wise across the devices for the linear kernel (§III-C5),
  allocates the device buffers, and charges the host->device copies;
* the cached ``q`` vector is computed by one simulated kernel per device
  (§III-C2);
* each CG matvec charges one blocked implicit-matvec kernel per device plus
  the BLAS-1 vector-update kernel; under multi-GPU execution the per-device
  partial results travel back over PCIe and are summed on the host
  (§III-C5: no direct GPU-to-GPU communication). The non-linear kernels'
  arithmetic is the host :class:`repro.core.tile_pipeline.TilePipeline`;
  only the charges are device-specific;
* teardown charges the final solution write-back.

The per-device clocks therefore advance exactly as often and by as much as
the real devices would be busy; :meth:`device_time` (the max over the
devices, they run concurrently) is what the GPU experiments report.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..core.qmatrix import QMatrixBase
from ..core.tile_pipeline import TilePipeline
from ..exceptions import DeviceError, DeviceLostError
from ..parallel.partition import feature_split
from ..parallel.reduction import sum_partials
from ..parameter import Parameter
from ..simgpu.device import SimulatedDevice
from ..types import KernelType
from .kernels import KernelConfig, matvec_costs, q_vector_costs, vector_ops_costs
from .soa import SoAMatrix, transform_to_soa

__all__ = ["DeviceQMatrix"]


class DeviceQMatrix(QMatrixBase):
    """Matrix-free Q_tilde whose matvecs run on simulated devices.

    Parameters
    ----------
    X, y, param:
        Training data and hyper-parameters (as for every Q matrix).
    devices:
        One or more :class:`SimulatedDevice`. More than one device requires
        the linear kernel — the feature-wise split relies on the kernel's
        linearity (§III-C5); the polynomial and radial kernels raise, as in
        PLSSVM v1.0.1.
    config:
        Blocked-kernel tuning knobs; also drives the cost accounting.
    tile_rows:
        Row-tile height of the host tile pipeline that does the non-linear
        kernels' arithmetic (memory bound).
    feature_ranges:
        Optional explicit feature slices per device, overriding the default
        equal split — the heterogeneous backend passes throughput-weighted
        slices here (load balancing, a paper §V long-term goal). Must tile
        ``[0, num_features)`` contiguously.
    """

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        param: Parameter,
        devices: Sequence[SimulatedDevice],
        *,
        config: Optional[KernelConfig] = None,
        tile_rows: int = 1024,
        feature_ranges=None,
    ) -> None:
        super().__init__(X, y, param)
        if len(devices) == 0:
            raise DeviceError("at least one device is required")
        if len(devices) > 1 and self.param.kernel is not KernelType.LINEAR:
            raise DeviceError(
                "multi-device execution currently supports only the linear kernel "
                "(the polynomial and radial kernels are single-device, as in PLSSVM v1.0.1)"
            )
        self.devices: List[SimulatedDevice] = list(devices)
        self.config = config or KernelConfig()
        self.tile_rows = int(tile_rows)
        # The modeled device recomputes every tile in every matvec, and so
        # does its host arithmetic: no tile cache.
        self.pipeline: Optional[TilePipeline] = None
        if self.param.kernel is not KernelType.LINEAR:
            self.pipeline = TilePipeline(
                self.X_bar,
                self.param.kernel,
                **self.param.kernel_kwargs(),
                tile_rows=self.tile_rows,
                cache_mb=0.0,
                dtype=self.dtype,
            )
        # The paper's single template parameter: FP32 halves every byte
        # count and runs on the single precision pipeline.
        self._value_bytes = int(self.param.dtype.itemsize)
        self._precision = "fp32" if self._value_bytes == 4 else "fp64"
        n = self.shape[0]

        # SoA transform of the *reduced* data (the first m-1 points drive
        # the matvec; the last point only appears through q_bar / q_mm).
        self.soa: SoAMatrix = transform_to_soa(self.X_bar, block_size=self.config.tile)
        if feature_ranges is not None:
            splits = list(feature_ranges)
            if sum(len(r) for r in splits) != self.soa.num_features:
                raise DeviceError(
                    "feature_ranges must cover every feature exactly once"
                )
            if len(splits) > len(self.devices):
                raise DeviceError("more feature slices than devices")
        else:
            splits = feature_split(self.soa.num_features, len(self.devices))
        # Fewer feature columns than devices: the surplus devices stay idle.
        self.active_devices = self.devices[: len(splits)]
        self._slices = [s.slice for s in splits]
        self._device_data = [self.soa.feature_slice(sl) for sl in self._slices]

        for device, slab in zip(self.active_devices, self._device_data):
            device.initialize()
            device.malloc("data", slab.nbytes)
            device.malloc("q_vector", n * self._value_bytes)
            # CG working set: x, r, d, Ad plus the rhs.
            device.malloc("cg_vectors", 5 * n * self._value_bytes)
            device.copy_to_device(slab.nbytes)
            local_d = slab.num_features
            if self.config.cache_q:
                costs = q_vector_costs(
                    n, local_d, self.param.kernel, self.config,
                    value_bytes=self._value_bytes,
                )
                device.launch(
                    "device_kernel_q",
                    flops=costs.flops,
                    global_bytes=costs.global_bytes,
                    shared_bytes=costs.shared_bytes,
                    grid_blocks=costs.grid_blocks,
                    block_threads=costs.block_threads,
                    precision=self._precision,
                )

    # -- fault recovery ---------------------------------------------------------

    def handle_device_loss(self, device: SimulatedDevice) -> None:
        """Redistribute a lost device's feature slice onto the survivors.

        Graceful degradation (§III-D): the feature-wise split only needs
        the kernel's linearity, not a fixed device count, so losing a card
        mid-solve is recoverable by re-running the split over the surviving
        devices and re-uploading their (larger) slabs. The cached ``q``
        partials depend on each device's feature slice, so they are
        recomputed too. Every survivor is charged its modeled
        ``fault_recovery_s`` (context re-creation after a sibling died).

        Raises :class:`~repro.exceptions.DeviceLostError` with
        ``device=None`` when no devices survive — that is unrecoverable.
        Called by :func:`repro.core.resilience.resilient_solve`; cascading
        faults during the re-upload propagate and are recovered in turn.
        """
        survivors = [
            dev for dev in self.active_devices if dev is not device and not dev.lost
        ]
        if not survivors:
            raise DeviceLostError(
                f"device {device.spec.name!r} (id {device.device_id}) was the "
                "last one standing; cannot redistribute",
                device=None,
            )
        n = self.shape[0]
        splits = feature_split(self.soa.num_features, len(survivors))
        self.active_devices = survivors[: len(splits)]
        self._slices = [s.slice for s in splits]
        self._device_data = [self.soa.feature_slice(sl) for sl in self._slices]
        for dev, slab in zip(self.active_devices, self._device_data):
            dev.clock += dev.spec.fault_recovery_s
            dev.free("data")
            dev.malloc("data", slab.nbytes)
            dev.copy_to_device(slab.nbytes)
            if self.config.cache_q:
                costs = q_vector_costs(
                    n, slab.num_features, self.param.kernel, self.config,
                    value_bytes=self._value_bytes,
                )
                dev.launch(
                    "device_kernel_q",
                    flops=costs.flops,
                    global_bytes=costs.global_bytes,
                    shared_bytes=costs.shared_bytes,
                    grid_blocks=costs.grid_blocks,
                    block_threads=costs.block_threads,
                    precision=self._precision,
                )

    # -- device-side matvec -----------------------------------------------------

    def _charge_matvec(self) -> None:
        n = self.shape[0]
        multi = len(self.active_devices) > 1
        for device, slab in zip(self.active_devices, self._device_data):
            costs = matvec_costs(
                n, slab.num_features, self.param.kernel, self.config,
                value_bytes=self._value_bytes,
            )
            device.launch(
                "device_kernel_linear" if self.param.kernel is KernelType.LINEAR
                else f"device_kernel_{self.param.kernel}",
                flops=costs.flops,
                global_bytes=costs.global_bytes,
                shared_bytes=costs.shared_bytes,
                grid_blocks=costs.grid_blocks,
                block_threads=costs.block_threads,
                precision=self._precision,
            )
            vops = vector_ops_costs(n, value_bytes=self._value_bytes)
            device.launch(
                "device_kernel_vector_ops",
                flops=vops.flops,
                global_bytes=vops.global_bytes,
                shared_bytes=vops.shared_bytes,
                grid_blocks=vops.grid_blocks,
                block_threads=vops.block_threads,
                precision=self._precision,
            )
            if multi:
                # Partial result to the host and the reduced vector back.
                device.copy_from_device(n * self._value_bytes)
                device.copy_to_device(n * self._value_bytes)

    def _kernel_matvec(self, v: np.ndarray) -> np.ndarray:
        self._charge_matvec()
        if self.param.kernel is KernelType.LINEAR:
            partials = []
            for slab in self._device_data:
                local = slab.logical
                partials.append(local @ (local.T @ v))
            if len(partials) == 1:
                return partials[0]
            return sum_partials(partials)
        # Non-linear kernels: single device, host-tiled evaluation.
        return self.pipeline.sweep(v)

    # -- lifecycle / reporting -----------------------------------------------------

    def writeback(self) -> None:
        """Charge the final device->host copy of the solution vector."""
        n = self.shape[0]
        for device in self.active_devices:
            device.copy_from_device(n * self._value_bytes)

    def device_time(self) -> float:
        """Modeled elapsed device time (devices run concurrently -> max clock)."""
        return max(device.clock for device in self.active_devices)

    def total_device_launches(self) -> int:
        return sum(device.counters.launches for device in self.active_devices)

    def memory_per_device_gib(self) -> List[float]:
        """Peak simulated memory footprint per active device, in GiB."""
        return [d.peak_allocated_bytes / 1024**3 for d in self.active_devices]
