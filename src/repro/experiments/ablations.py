"""Ablations of the §III-C optimizations (design-choice benchmarks).

The paper motivates four kernel-level optimizations (symmetry blocking,
q-vector caching, block-level/shared-memory caching, thread-level/register
caching) plus the SoA data layout and the implicit matrix representation.
These runners quantify each choice:

* :func:`run_kernel_config` — modeled A100 matvec time for every
  optimization toggled off one at a time, at a paper-scale workload;
* :func:`run_block_sizes` — modeled sweep over the compile-time blocking
  sizes (``THREAD_BLOCK_SIZE`` x ``INTERNAL_BLOCK_SIZE``);
* :func:`run_host_variants` — *measured* host-side ablations: explicit vs
  implicit Q_tilde, SoA (column-major) vs row-major host layout for the
  dimension-wise access pattern, and Jacobi preconditioning on/off.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

import numpy as np

from ..backends.kernels import KernelConfig, matvec_costs
from ..core.cg import conjugate_gradient
from ..core.lssvm import encode_labels
from ..core.precond import make_preconditioner
from ..core.qmatrix import ExplicitQMatrix, ImplicitQMatrix
from ..data.synthetic import make_planes
from ..parameter import Parameter
from ..simgpu.catalog import default_gpu
from ..simgpu.costmodel import CostModel
from .common import ExperimentResult, Row

__all__ = ["run_kernel_config", "run_block_sizes", "run_host_variants"]


def _matvec_seconds(config: KernelConfig, m: int, d: int) -> Tuple[float, float, float]:
    """Modeled (seconds, flops, global_bytes) of one implicit matvec on the A100."""
    spec = default_gpu()
    cm = CostModel(spec, "cuda")
    costs = matvec_costs(m - 1, d, Parameter().kernel, config)
    return (
        cm.kernel_time(costs.flops, costs.global_bytes, costs.shared_bytes),
        costs.flops,
        costs.global_bytes,
    )


def run_kernel_config(
    *, num_points: int = 2**15, num_features: int = 2**12
) -> ExperimentResult:
    """Toggle each §III-C optimization off individually (modeled matvec)."""
    base = KernelConfig()
    variants = [
        ("baseline (all on)", base),
        ("no symmetry blocking", KernelConfig(use_symmetry=False)),
        ("no q-vector caching", KernelConfig(cache_q=False)),
        ("no block-level caching", KernelConfig(block_level_caching=False)),
        (
            "no thread-level caching",
            KernelConfig(thread_level_caching=False),
        ),
    ]
    base_time, _, _ = _matvec_seconds(base, num_points, num_features)
    rows: List[Row] = []
    for name, config in variants:
        seconds, flops, gbytes = _matvec_seconds(config, num_points, num_features)
        rows.append(
            Row(
                meta={"variant": name},
                values={
                    "matvec_s": seconds,
                    "slowdown": seconds / base_time,
                    "total_gflop": flops / 1e9,
                    "global_gib": gbytes / 1024**3,
                },
            )
        )
    return ExperimentResult(
        experiment="ablation_kernel_config",
        description=(
            f"Modeled A100 matvec ablations at {num_points} x {num_features} "
            "(each optimization disabled in turn)"
        ),
        mode="modeled",
        rows=rows,
    )


def run_block_sizes(
    *,
    num_points: int = 2**15,
    num_features: int = 2**12,
    thread_blocks: Sequence[int] = (8, 16, 32),
    internal_blocks: Sequence[int] = (1, 2, 4, 6, 8),
) -> ExperimentResult:
    """Sweep the compile-time blocking sizes (modeled matvec time)."""
    rows: List[Row] = []
    for tb in thread_blocks:
        for ib in internal_blocks:
            config = KernelConfig(thread_block=tb, internal_block=ib)
            seconds, _, gbytes = _matvec_seconds(config, num_points, num_features)
            rows.append(
                Row(
                    meta={"thread_block": tb, "internal_block": ib, "tile": config.tile},
                    values={"matvec_s": seconds, "global_gib": gbytes / 1024**3},
                )
            )
    return ExperimentResult(
        experiment="ablation_block_sizes",
        description="Modeled matvec time vs blocking configuration",
        mode="modeled",
        rows=rows,
    )


def run_host_variants(
    *, num_points: int = 768, num_features: int = 96, rng: int = 21
) -> ExperimentResult:
    """Measured host-side design ablations on one 'planes' instance."""
    X, y = make_planes(num_points, num_features, rng=rng)
    y_enc, _ = encode_labels(y)
    param = Parameter(kernel="linear")
    rows: List[Row] = []

    def timed(operator, precondition) -> Tuple[float, int]:
        # Operator assembly plus the CG solve: what a fit spends on Q_tilde.
        start = time.perf_counter()
        qmat = operator(X, y_enc, param)
        result = conjugate_gradient(
            qmat,
            qmat.rhs(),
            epsilon=param.epsilon,
            preconditioner=make_preconditioner(qmat, precondition),
        )
        return time.perf_counter() - start, result.iterations

    for name, operator, precondition in [
        ("explicit Q_tilde", ExplicitQMatrix, None),
        ("implicit Q_tilde", ImplicitQMatrix, None),
        ("implicit + jacobi", ImplicitQMatrix, "jacobi"),
    ]:
        seconds, iterations = timed(operator, precondition)
        rows.append(
            Row(
                meta={"variant": name},
                values={"seconds": seconds, "iterations": float(iterations)},
            )
        )

    # Dimension-wise access: column-major (SoA) vs row-major scans. This is
    # the §III-A layout argument measured directly on the host caches.
    data = np.asarray(make_planes(4096, 512, rng=rng)[0])
    c_order = np.ascontiguousarray(data)
    f_order = np.asfortranarray(data)
    for name, arr in [("row-major feature scan", c_order), ("SoA feature scan", f_order)]:
        start = time.perf_counter()
        total = 0.0
        for j in range(arr.shape[1]):
            total += float(arr[:, j].sum())
        seconds = time.perf_counter() - start
        rows.append(
            Row(meta={"variant": name}, values={"seconds": seconds, "iterations": 0.0})
        )
    return ExperimentResult(
        experiment="ablation_host_variants",
        description=(
            "Measured host ablations: Q_tilde assembly plus CG solve "
            "(explicit/implicit, Jacobi), feature scans by data layout"
        ),
        mode="measured",
        rows=rows,
    )


def run_precision(
    *, num_points: int = 2**15, num_features: int = 2**12, iterations: int = 20
) -> ExperimentResult:
    """FP64 vs FP32 training (the paper's single template parameter).

    PLSSVM switches between double and single precision "by changing a
    single template parameter" (§III). The modeled effect differs sharply
    by silicon class: server GPUs run FP32 at 2x FP64; consumer GPUs gate
    FP64 to 1/32 of FP32, so the precision switch is worth an order of
    magnitude there.
    """
    from ..simgpu.catalog import get_device_spec
    from .analytic import model_lssvm_gpu_run

    rows: List[Row] = []
    for key in ("nvidia_a100", "nvidia_v100", "nvidia_rtx3080", "nvidia_gtx1080ti"):
        spec = get_device_spec(key)
        times = {}
        for precision in ("fp64", "fp32"):
            times[precision] = model_lssvm_gpu_run(
                spec,
                "cuda",
                num_points=num_points,
                num_features=num_features,
                iterations=iterations,
                include_init=False,
                precision=precision,
            ).device_seconds
        rows.append(
            Row(
                meta={"device": spec.name},
                values={
                    "fp64_s": times["fp64"],
                    "fp32_s": times["fp32"],
                    "fp32_speedup": times["fp64"] / times["fp32"],
                    "fp64_fraction_of_fp32_peak": spec.fp64_flops / spec.fp32_flops,
                },
            )
        )
    return ExperimentResult(
        experiment="ablation_precision",
        description=(
            f"FP64 vs FP32 modeled training time at {num_points} x {num_features} "
            "(the paper's real_type template switch)"
        ),
        mode="modeled",
        rows=rows,
    )
