"""Heterogeneous multi-device backend with load balancing (paper §V).

The paper's long-term plan: "extend all PLSSVM kernels to support
multi-node multi-GPU execution including load balancing on heterogeneous
hardware". This backend takes a *mixed* device set (e.g. an A100 next to a
V100) and splits the feature dimension proportionally to each device's
sustained throughput for its backend, so that all devices finish their
per-iteration matvec slice at roughly the same simulated time — the
feature-wise analogue of makespan-balanced scheduling.

``balanced=False`` falls back to the equal split, which the ablation
benchmark uses to quantify the balancing gain: with an equal split the
slowest device is the critical path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..core.qmatrix import ImplicitQMatrix
from ..exceptions import BackendUnavailableError, DeviceError
from ..parallel.partition import weighted_device_slices
from ..parameter import Parameter
from ..simgpu.catalog import get_device_spec
from ..simgpu.device import SimulatedDevice
from ..simgpu.spec import DeviceSpec
from ..types import BackendType
from .base import CSVM
from .kernels import KernelConfig
from .modeled import ModeledBackend

__all__ = ["HeterogeneousCSVM"]

#: Backend efficiency keys tried per device, fastest first — the mixed rig
#: drives every device through its best available backend, like a future
#: multi-backend PLSSVM process would.
_KEY_PREFERENCE = ("cuda", "opencl", "sycl_hipsycl", "sycl_dpcpp")


def _best_key(spec: DeviceSpec) -> str:
    for key in _KEY_PREFERENCE:
        if spec.supports(key):
            return key
    raise BackendUnavailableError(f"no device backend can drive {spec.name!r}")


class HeterogeneousCSVM(ModeledBackend, CSVM):
    """Multi-device backend over a mixed set of simulated devices.

    Parameters
    ----------
    devices:
        Catalog keys or :class:`DeviceSpec` instances, one per device.
    balanced:
        ``True`` (default) sizes the feature slices by sustained
        throughput; ``False`` splits equally (for comparison).
    config:
        Blocked-kernel tuning configuration shared by all devices.
    fault_plan:
        Optional :class:`repro.simgpu.FaultPlan` attached to every device.
    """

    backend_type = BackendType.AUTOMATIC

    def __init__(
        self,
        devices: Sequence[Union[str, DeviceSpec]],
        *,
        balanced: bool = True,
        config: Optional[KernelConfig] = None,
        fault_plan=None,
    ) -> None:
        if not devices:
            raise DeviceError("at least one device is required")
        specs = [
            d if isinstance(d, DeviceSpec) else get_device_spec(d) for d in devices
        ]
        self.config = config or KernelConfig()
        self.balanced = bool(balanced)
        self.devices: List[SimulatedDevice] = [
            SimulatedDevice(spec, _best_key(spec), device_id=i)
            for i, spec in enumerate(specs)
        ]
        self.fault_plan = fault_plan
        for dev in self.devices:
            dev.attach_fault_plan(fault_plan)

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def throughputs(self) -> List[float]:
        """Sustained FLOP/s per device under its chosen backend key."""
        return [d.cost_model.sustained_flops for d in self.devices]

    def create_qmatrix(
        self, X: np.ndarray, y: np.ndarray, param: Parameter
    ) -> ImplicitQMatrix:
        for device in self.devices:
            device.reset()
        qmat = ImplicitQMatrix(X, y, param)
        ranges = None  # the equal split
        if self.balanced and len(self.devices) > 1:
            ranges = weighted_device_slices(qmat.X.shape[1], self.throughputs())
        return self._attach(qmat, [self.devices], config=self.config, feature_ranges=ranges)

    def imbalance(self) -> float:
        """Max/min active-device busy-time ratio (1.0 = perfectly balanced).

        Computed over the per-iteration work (init excluded).
        """
        times = [t for _, t in self.per_device_times()]
        if min(times) <= 0:
            return float("inf")
        return max(times) / min(times)

    def describe(self) -> str:
        names = ", ".join(d.spec.name for d in self.devices)
        mode = "throughput-balanced" if self.balanced else "equal-split"
        return f"heterogeneous backend ({mode}) on [{names}] (simulated)"
