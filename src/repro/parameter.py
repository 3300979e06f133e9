"""SVM hyper-parameters (the Python counterpart of ``plssvm::parameter``).

A single frozen dataclass carries every knob of the training pipeline:
kernel choice and its coefficients, the regularization ``C``, the CG
termination criterion ``epsilon`` and iteration cap, and the floating point
working precision (the C++ library's single template parameter
``real_type``).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .exceptions import InvalidParameterError
from .types import KernelType

__all__ = [
    "Parameter",
    "SolverConfig",
    "ResourceConfig",
    "DEFAULT_EPSILON",
    "resolve_gamma",
]

#: Default relative residual used by the PLSSVM command line (`--epsilon`).
DEFAULT_EPSILON = 1e-3


@dataclasses.dataclass(frozen=True)
class Parameter:
    """Hyper-parameters of an LS-SVM training run.

    Parameters
    ----------
    kernel:
        Kernel function, see :class:`repro.types.KernelType`. Accepts enum
        values, LIBSVM integer codes, or names (``"linear"``, ``"rbf"`` ...).
    cost:
        Regularization parameter ``C > 0`` (LIBSVM ``-c``). Appears as the
        ``1/C`` ridge on the diagonal of the LS-SVM system.
    gamma:
        Kernel coefficient for polynomial/rbf/sigmoid kernels. ``None``
        requests LIBSVM's default of ``1 / num_features``, resolved when the
        data shape is known (:func:`resolve_gamma`).
    degree:
        Polynomial degree (LIBSVM ``-d``).
    coef0:
        Additive constant of polynomial/sigmoid kernels (LIBSVM ``-r``).
    epsilon:
        Relative residual termination criterion of the CG solver.
    max_iter:
        CG iteration cap. ``None`` uses the system size (CG converges in at
        most ``n`` steps in exact arithmetic).
    dtype:
        Working floating point precision; ``numpy.float64`` (default) or
        ``numpy.float32``, mirroring the C++ ``real_type`` template switch.
    """

    kernel: KernelType = KernelType.LINEAR
    cost: float = 1.0
    gamma: Optional[float] = None
    degree: int = 3
    coef0: float = 0.0
    epsilon: float = DEFAULT_EPSILON
    max_iter: Optional[int] = None
    dtype: np.dtype = np.dtype(np.float64)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernel", KernelType.from_name(self.kernel))
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise InvalidParameterError(
                f"dtype must be float32 or float64, got {self.dtype}"
            )
        if not np.isfinite(self.cost) or self.cost <= 0.0:
            raise InvalidParameterError(f"cost (C) must be positive, got {self.cost}")
        if self.gamma is not None and (not np.isfinite(self.gamma) or self.gamma <= 0.0):
            raise InvalidParameterError(f"gamma must be positive, got {self.gamma}")
        if self.degree < 1 or int(self.degree) != self.degree:
            raise InvalidParameterError(
                f"degree must be a positive integer, got {self.degree}"
            )
        if not np.isfinite(self.epsilon) or self.epsilon <= 0.0 or self.epsilon >= 1.0:
            raise InvalidParameterError(
                f"epsilon must lie in (0, 1), got {self.epsilon}"
            )
        if self.max_iter is not None and self.max_iter < 1:
            raise InvalidParameterError(
                f"max_iter must be positive, got {self.max_iter}"
            )

    def with_gamma_for(self, num_features: int) -> "Parameter":
        """Return a copy with ``gamma`` resolved for ``num_features`` columns."""
        return dataclasses.replace(self, gamma=resolve_gamma(self, num_features))

    def replace(self, **kwargs) -> "Parameter":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def kernel_kwargs(self) -> dict:
        """Keyword arguments consumed by :mod:`repro.core.kernels` functions."""
        return {"gamma": self.gamma, "degree": self.degree, "coef0": self.coef0}

    def describe(self) -> str:
        """Human-readable one-line summary (used by the CLI's verbose mode)."""
        gamma = "1/num_features" if self.gamma is None else f"{self.gamma:g}"
        parts = [f"kernel={self.kernel}", f"C={self.cost:g}"]
        if self.kernel is not KernelType.LINEAR:
            parts.append(f"gamma={gamma}")
        if self.kernel in (KernelType.POLYNOMIAL, KernelType.SIGMOID):
            parts.append(f"coef0={self.coef0:g}")
        if self.kernel is KernelType.POLYNOMIAL:
            parts.append(f"degree={self.degree}")
        parts.append(f"epsilon={self.epsilon:g}")
        parts.append(f"dtype={self.dtype}")
        return " ".join(parts)


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Grouped solver-strategy knobs (replaces the flat estimator kwargs).

    Collects the arguments that select and tune the *solve* — strategy,
    randomized ranks and seeds, polish refinement, and the CG
    preconditioner — into one typed object::

        LSSVC(kernel="rbf", C=10, config=SolverConfig(solver="nystrom",
                                                      solver_rank=256))

    Passing the equivalent flat keywords still works but emits a
    ``DeprecationWarning``; ``get_params``/``set_params``/``clone``
    round-trip both forms.
    """

    solver: str = "cg"
    solver_rank: Optional[int] = None
    solver_seed: int = 0
    polish_iters: int = 0
    precondition: Optional[str] = None
    precond_rank: Optional[int] = None
    precond_rng: Optional[object] = 0

    #: Estimator keyword names mirrored by this config (declaration order).
    fields = ()

    def as_kwargs(self) -> dict:
        """The equivalent flat estimator keyword arguments."""
        return {name: getattr(self, name) for name in type(self).fields}


@dataclasses.dataclass(frozen=True)
class ResourceConfig:
    """Grouped execution-resource knobs (threads, caches, budgets, faults).

    Collects the arguments that shape *how* the solve runs — worker
    threads, the kernel-tile cache, mixed precision, fault
    injection/recovery, and the out-of-core memory budget — into one
    typed object accepted as
    ``LSSVC(resources=ResourceConfig(...))``.
    """

    solver_threads: Optional[int] = None
    tile_cache_mb: Optional[float] = None
    compute_dtype: Optional[object] = None
    fault_plan: Optional[object] = None
    checkpoint_interval: Optional[int] = None
    max_retries: int = 3
    memory_budget_mb: Optional[float] = None

    fields = ()

    def as_kwargs(self) -> dict:
        """The equivalent flat estimator keyword arguments."""
        return {name: getattr(self, name) for name in type(self).fields}


SolverConfig.fields = tuple(f.name for f in dataclasses.fields(SolverConfig))
ResourceConfig.fields = tuple(f.name for f in dataclasses.fields(ResourceConfig))


def resolve_gamma(param: Parameter, num_features: int) -> Optional[float]:
    """Resolve the effective ``gamma`` for a data set with ``num_features``.

    The linear kernel ignores gamma entirely and keeps ``None``; all other
    kernels fall back to LIBSVM's default ``1 / num_features`` when the user
    did not set a value.
    """
    if param.kernel is KernelType.LINEAR:
        return param.gamma
    if param.gamma is not None:
        return param.gamma
    if num_features < 1:
        raise InvalidParameterError("cannot resolve gamma for empty feature space")
    return 1.0 / float(num_features)
