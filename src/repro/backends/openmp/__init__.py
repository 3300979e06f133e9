"""OpenMP (CPU) backend: real shared-memory parallelism on the host."""

from .backend import OpenMPCSVM

__all__ = ["OpenMPCSVM"]
