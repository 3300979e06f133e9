"""Backend framework base classes (the Python ``plssvm::csvm`` hierarchy).

A backend owns the execution of the implicit matrix-vector products inside
CG. Every backend exposes the same two-method surface:

* :meth:`CSVM.create_qmatrix` — build the ``Q_tilde`` operator bound to the
  backend's execution resources;
* :meth:`CSVM.finalize` — after the solve, fold backend-specific timing
  (e.g. simulated device seconds) into the component timer.

:class:`SimulatedDeviceCSVM` implements the shared logic of the four device
backends (CUDA / OpenCL / SYCL / device-OpenCL-on-CPU): device discovery
against the catalog; the multi-device setup, modeled charges and
simulated-time reporting come from :mod:`repro.backends.modeled`. The
concrete backends only differ in which platforms they may target and which
efficiency key prices their kernels — exactly the difference between the
C++ backends, which share all optimizations but compile through different
toolchains.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Union

import numpy as np

from ..core.qmatrix import ImplicitQMatrix, QMatrixBase
from ..exceptions import BackendUnavailableError, DeviceError
from ..parameter import Parameter
from ..profiling import ComponentTimer
from ..simgpu.catalog import default_gpu, devices_for_platform, get_device_spec
from ..simgpu.device import SimulatedDevice
from ..simgpu.spec import DeviceSpec
from ..types import BackendType, TargetPlatform
from .kernels import KernelConfig
from .modeled import ModeledBackend, report_device_summaries

__all__ = ["CSVM", "SimulatedDeviceCSVM", "report_device_summaries"]


class CSVM(abc.ABC):
    """Abstract backend interface."""

    backend_type: BackendType

    @abc.abstractmethod
    def create_qmatrix(
        self, X: np.ndarray, y: np.ndarray, param: Parameter
    ) -> QMatrixBase:
        """Build the Q_tilde operator for this backend."""

    def finalize(self, qmat: QMatrixBase, timings: ComponentTimer) -> None:
        """Fold backend-specific timing into ``timings`` (default: nothing)."""

    @property
    def num_devices(self) -> int:
        """Number of compute devices this backend drives (1 for host backends)."""
        return 1

    def describe(self) -> str:
        """One-line description for logs and the CLI's verbose output."""
        return f"{self.backend_type} backend"


class SimulatedDeviceCSVM(ModeledBackend, CSVM):
    """Shared implementation of the device (GPU) backends.

    Parameters
    ----------
    target:
        Vendor platform to discover devices on; ``AUTOMATIC`` resolves to
        the backend's preferred platform (NVIDIA for CUDA, any for OpenCL).
    n_devices:
        How many devices of that platform to use. Devices are homogeneous
        (the paper's multi-GPU node has four identical A100s).
    device:
        Explicit catalog key or :class:`DeviceSpec`, overriding discovery —
        this is how the Table I experiments pin specific GPUs.
    config:
        Blocked-kernel tuning knobs shared by all devices.
    fault_plan:
        Optional :class:`repro.simgpu.FaultPlan` attached to every device
        (fault-injection experiments; see :mod:`repro.simgpu.faults`).
    """

    #: Platforms this backend can target; subclasses override.
    supported_platforms: Sequence[TargetPlatform] = ()
    #: Efficiency key pricing this backend's kernels; subclasses override.
    efficiency_key: str = ""

    def __init__(
        self,
        *,
        target: TargetPlatform = TargetPlatform.AUTOMATIC,
        n_devices: int = 1,
        device: Union[None, str, DeviceSpec] = None,
        config: Optional[KernelConfig] = None,
        fault_plan=None,
    ) -> None:
        if n_devices < 1:
            raise DeviceError("n_devices must be positive")
        self.config = config or KernelConfig()
        self.spec = self._resolve_spec(target, device)
        self.devices: List[SimulatedDevice] = [
            SimulatedDevice(self.spec, self.efficiency_key, device_id=i)
            for i in range(n_devices)
        ]
        self.fault_plan = fault_plan
        for dev in self.devices:
            dev.attach_fault_plan(fault_plan)

    # -- device discovery -------------------------------------------------------

    def _resolve_spec(
        self, target: TargetPlatform, device: Union[None, str, DeviceSpec]
    ) -> DeviceSpec:
        if isinstance(device, DeviceSpec):
            spec = device
        elif isinstance(device, str):
            spec = get_device_spec(device)
        else:
            spec = self._discover(target)
        if spec.platform not in self.supported_platforms:
            raise BackendUnavailableError(
                f"backend {self.backend_type} cannot target platform {spec.platform}"
            )
        if not spec.supports(self.efficiency_key):
            raise BackendUnavailableError(
                f"device {spec.name!r} has no {self.efficiency_key!r} support"
            )
        return spec

    def _discover(self, target: TargetPlatform) -> DeviceSpec:
        if target is TargetPlatform.AUTOMATIC:
            candidates = [
                s
                for p in self.supported_platforms
                for s in devices_for_platform(p)
                if s.supports(self.efficiency_key)
            ]
            if not candidates:
                raise BackendUnavailableError(
                    f"no simulated device supports backend {self.backend_type}"
                )
            preferred = default_gpu()
            if preferred in candidates:
                return preferred
            # Deterministic choice: fastest remaining device.
            return max(candidates, key=lambda s: s.fp64_tflops)
        candidates = [
            s for s in devices_for_platform(target) if s.supports(self.efficiency_key)
        ]
        if not candidates:
            raise BackendUnavailableError(
                f"no {target} device supports backend {self.backend_type}"
            )
        return max(candidates, key=lambda s: s.fp64_tflops)

    # -- CSVM interface -------------------------------------------------------

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def create_qmatrix(
        self, X: np.ndarray, y: np.ndarray, param: Parameter
    ) -> ImplicitQMatrix:
        for device in self.devices:
            device.reset()
        return self._attach(ImplicitQMatrix(X, y, param), [self.devices], config=self.config)

    def describe(self) -> str:
        return (
            f"{self.backend_type} backend on {len(self.devices)}x {self.spec.name} "
            f"(simulated, efficiency key {self.efficiency_key!r})"
        )
