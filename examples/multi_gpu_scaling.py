#!/usr/bin/env python
"""Multi-GPU training with feature-wise data distribution (§III-C5).

The linear kernel is additive over feature blocks, so PLSSVM splits every
data point feature-wise across the devices: each simulated A100 is charged
for a contiguous slab of the SoA data and its partial implicit matvec, and
the host sums the partial result vectors (no direct GPU-to-GPU traffic).
This both accelerates training and divides the per-device memory — the
paper's §IV-G measures 8.15 GiB on one GPU vs 2.14 GiB/GPU on four. The
arithmetic is the one host operator, so the split never changes the model.

Run with ``python examples/multi_gpu_scaling.py``.
"""

import numpy as np

from repro import LSSVC
from repro.data import make_planes
from repro.experiments.analytic import lssvm_device_memory_bytes, model_lssvm_gpu_run
from repro.simgpu import default_gpu


def main() -> None:
    # Functional demonstration at a feasible size: the multi-device model
    # is bit-identical to the single-device one.
    X, y = make_planes(num_points=2048, num_features=256, rng=3)
    reference = None
    print("functional run (2048 x 256):")
    print(f"{'GPUs':>4} {'device time [s]':>16} {'mem/GPU [MiB]':>14} {'accuracy':>9}")
    for n_devices in (1, 2, 3, 4):
        clf = LSSVC(kernel="linear", backend="cuda", n_devices=n_devices)
        clf.fit(X, y)
        backend = clf._backend_instance
        mem_mib = backend.memory_per_device_gib()[0] * 1024
        print(
            f"{n_devices:>4} {backend.device_time():>16.4f} {mem_mib:>14.2f} "
            f"{clf.score(X, y):>9.4f}"
        )
        if reference is None:
            reference = clf.model_.alpha
        else:
            # The devices only model time and memory; the arithmetic is
            # the one host operator, so every device count agrees bit for bit.
            assert np.array_equal(clf.model_.alpha, reference)

    # Paper-scale projection (2^16 points x 2^14 features — Fig. 4b).
    # The dry-run model replays the exact same device choreography.
    m, d = 2**16, 2**14
    print(f"\npaper-scale projection ({m} x {d}, 26 CG iterations):")
    print(f"{'GPUs':>4} {'cg [min]':>9} {'speedup':>8} {'mem/GPU [GiB]':>14}")
    base = None
    for n_devices in (1, 2, 3, 4):
        run = model_lssvm_gpu_run(
            default_gpu(), "cuda", num_points=m, num_features=d,
            iterations=26, n_devices=n_devices,
        )
        mem = lssvm_device_memory_bytes(m, d, n_devices=n_devices)[0] / 1024**3
        base = base or run.device_seconds
        print(
            f"{n_devices:>4} {run.device_seconds / 60:>9.2f} "
            f"{base / run.device_seconds:>8.2f} {mem:>14.2f}"
        )
    print("\npaper anchors: 3.71x total speedup on four A100s; "
          "8.15 GiB -> 2.14 GiB per GPU")


if __name__ == "__main__":
    main()
