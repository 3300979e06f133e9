"""Backend registry and runtime selection.

PLSSVM compiles its backends conditionally and selects one at runtime; this
package mirrors that with a registry keyed by :class:`repro.types.BackendType`.
``"automatic"`` resolution follows the C++ library's preference order for
the requested target platform: CUDA where the platform is NVIDIA, then
OpenCL, then SYCL — and OpenMP for CPU targets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type, Union

from ..exceptions import BackendUnavailableError
from ..types import BackendType, TargetPlatform
from .base import CSVM, SimulatedDeviceCSVM
from .cuda import CUDACSVM
from .device_qmatrix import DeviceQMatrix
from .kernels import KernelConfig
from .opencl import OpenCLCSVM
from .openmp import OpenMPCSVM
from .soa import SoAMatrix, transform_to_soa
from .sycl import SYCLCSVM

__all__ = [
    "CSVM",
    "SimulatedDeviceCSVM",
    "CUDACSVM",
    "OpenCLCSVM",
    "OpenMPCSVM",
    "SYCLCSVM",
    "DeviceQMatrix",
    "KernelConfig",
    "SoAMatrix",
    "transform_to_soa",
    "BACKEND_REGISTRY",
    "create_backend",
    "list_available_backends",
    "preferred_backend",
]

BACKEND_REGISTRY: Dict[BackendType, Type[CSVM]] = {
    BackendType.OPENMP: OpenMPCSVM,
    BackendType.CUDA: CUDACSVM,
    BackendType.OPENCL: OpenCLCSVM,
    BackendType.SYCL: SYCLCSVM,
}

#: Automatic-resolution preference per target platform (most efficient first),
#: following the Table I backend ordering.
_PREFERENCE: Dict[TargetPlatform, List[BackendType]] = {
    TargetPlatform.CPU: [BackendType.OPENMP, BackendType.OPENCL, BackendType.SYCL],
    TargetPlatform.GPU_NVIDIA: [BackendType.CUDA, BackendType.OPENCL, BackendType.SYCL],
    TargetPlatform.GPU_AMD: [BackendType.OPENCL, BackendType.SYCL],
    TargetPlatform.GPU_INTEL: [BackendType.OPENCL, BackendType.SYCL],
    TargetPlatform.AUTOMATIC: [
        BackendType.CUDA,
        BackendType.OPENCL,
        BackendType.SYCL,
        BackendType.OPENMP,
    ],
}


def list_available_backends() -> List[BackendType]:
    """All backends usable on this installation (every one — the hardware is simulated)."""
    return list(BACKEND_REGISTRY)


def preferred_backend(target: Union[str, TargetPlatform]) -> BackendType:
    """The backend automatic resolution picks for ``target``."""
    target = TargetPlatform.from_name(target)
    return _PREFERENCE[target][0]


def create_backend(
    backend: Union[str, BackendType],
    *,
    target: Union[str, TargetPlatform] = TargetPlatform.AUTOMATIC,
    n_devices: int = 1,
    config: Optional[KernelConfig] = None,
    **kwargs,
) -> CSVM:
    """Instantiate a backend by name.

    Parameters
    ----------
    backend:
        A :class:`BackendType` or its name; ``"automatic"`` applies the
        per-target preference order.
    target:
        Target platform forwarded to device backends.
    n_devices:
        Device count for multi-GPU execution (device backends only).
    config:
        Kernel tuning configuration (device backends only).
    kwargs:
        Extra backend-specific options (e.g. ``num_threads`` for OpenMP,
        ``implementation`` for SYCL, ``device`` for pinning a catalog GPU).
    """
    backend = BackendType.from_name(backend)
    target = TargetPlatform.from_name(target)
    if backend is BackendType.AUTOMATIC:
        backend = _PREFERENCE[target][0]
        if target is TargetPlatform.AUTOMATIC and n_devices == 1 and "device" not in kwargs:
            # Bare automatic everything: prefer the host CPU backend — it is
            # the only one executing on real hardware.
            backend = BackendType.OPENMP

    cls = BACKEND_REGISTRY.get(backend)
    if cls is None:
        raise BackendUnavailableError(f"backend {backend} is not registered")

    if backend is BackendType.OPENMP:
        if target.is_gpu:
            raise BackendUnavailableError(
                "the OpenMP backend runs on the host CPU; it cannot target GPUs"
            )
        if n_devices != 1:
            raise BackendUnavailableError(
                "the OpenMP backend drives a single (host) device; "
                "use num_threads to scale it"
            )
        if kwargs.get("fault_plan") is not None:
            raise BackendUnavailableError(
                "the OpenMP backend has no simulated devices to inject faults into"
            )
        kwargs.pop("fault_plan", None)
        return cls(**kwargs)
    return cls(target=target, n_devices=n_devices, config=config, **kwargs)
