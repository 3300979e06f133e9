"""Figure 1 — runtime scaling vs number of points / features (CPU and GPU).

Four panels:

* **1a** CPU runtime vs number of points (fixed features): PLSSVM vs
  LIBSVM (sparse + dense) vs ThunderSVM — *measured* here at sizes scaled
  down from the paper (the shapes, i.e. the log-log slopes and the
  crossover where PLSSVM out-scales the SMO solvers, are size-invariant).
* **1b** CPU runtime vs number of features (fixed points) — measured.
* **1c** GPU runtime vs number of points: PLSSVM vs ThunderSVM — *modeled*
  on the simulated A100 at the paper's original sizes, with iteration
  counts measured from real solver runs and extrapolated across size.
* **1d** GPU runtime vs number of features — modeled likewise.

The paper's epsilon-matching protocol (refine epsilon until ~97 % training
accuracy) is simplified to a fixed epsilon of 1e-3 for every solver, which
the paper's own Fig. 3 shows reaches the accuracy plateau for this data.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..core.lssvm import LSSVC
from ..data.synthetic import make_planes
from ..simgpu.catalog import default_gpu
from ..smo.libsvm import LibSVMClassifier
from ..smo.thundersvm import ThunderSVMClassifier
from .analytic import model_lssvm_gpu_run, model_thunder_gpu_run
from .common import ExperimentResult, Row

__all__ = [
    "run_cpu_points",
    "run_cpu_features",
    "run_gpu_points",
    "run_gpu_features",
    "measure_thunder_outer_iterations",
]

#: Default measured sweep sizes (scaled down from the paper's 2^6..2^14).
CPU_POINT_SWEEP = (128, 256, 512, 1024)
CPU_FEATURE_SWEEP = (16, 32, 64, 128)
#: Paper-scale modeled sweeps (Fig. 1c/1d).
GPU_POINT_SWEEP = tuple(2**k for k in range(8, 16))
GPU_FEATURE_SWEEP = tuple(2**k for k in range(6, 15))

EPSILON = 1e-3


def _fresh_cpu_solvers() -> Dict[str, object]:
    """One new instance of every CPU contender (Fig. 1a/1b series)."""
    return {
        "plssvm": LSSVC(kernel="linear", C=1.0, epsilon=EPSILON),
        "libsvm": LibSVMClassifier(kernel="linear", C=1.0, eps=EPSILON, layout="sparse"),
        "libsvm_dense": LibSVMClassifier(
            kernel="linear", C=1.0, eps=EPSILON, layout="dense"
        ),
        "thundersvm": ThunderSVMClassifier(kernel="linear", C=1.0, eps=EPSILON),
    }


def _timed_fit(clf, X, y) -> Dict[str, float]:
    start = time.perf_counter()
    clf.fit(X, y)
    elapsed = time.perf_counter() - start
    return {"time_s": elapsed, "train_accuracy": clf.score(X, y)}


def _warmup() -> None:
    """One tiny fit per solver so first-call costs (BLAS/thread-pool
    initialization, import side effects) don't distort the smallest sweep
    point."""
    X, y = make_planes(32, 4, rng=999)
    for clf in _fresh_cpu_solvers().values():
        clf.fit(X, y)


def run_cpu_points(
    *,
    points: Sequence[int] = CPU_POINT_SWEEP,
    num_features: int = 32,
    rng: int = 0,
) -> ExperimentResult:
    """Fig. 1a (measured, scaled down): CPU runtime vs number of points."""
    _warmup()
    rows: List[Row] = []
    for m in points:
        X, y = make_planes(m, num_features, rng=rng)
        for name, clf in _fresh_cpu_solvers().items():
            values = _timed_fit(clf, X, y)
            rows.append(
                Row(
                    meta={"num_points": m, "num_features": num_features, "solver": name},
                    values=values,
                )
            )
    return ExperimentResult(
        experiment="figure1a",
        description=f"Fig 1a: CPU runtime vs points ({num_features} features, measured)",
        mode="measured",
        rows=rows,
    )


def run_cpu_features(
    *,
    features: Sequence[int] = CPU_FEATURE_SWEEP,
    num_points: int = 512,
    rng: int = 0,
) -> ExperimentResult:
    """Fig. 1b (measured, scaled down): CPU runtime vs number of features."""
    _warmup()
    rows: List[Row] = []
    for d in features:
        X, y = make_planes(num_points, d, rng=rng)
        for name, clf in _fresh_cpu_solvers().items():
            values = _timed_fit(clf, X, y)
            rows.append(
                Row(
                    meta={"num_points": num_points, "num_features": d, "solver": name},
                    values=values,
                )
            )
    return ExperimentResult(
        experiment="figure1b",
        description=f"Fig 1b: CPU runtime vs features ({num_points} points, measured)",
        mode="measured",
        rows=rows,
    )


def measure_thunder_outer_iterations(
    *, num_points: int = 1024, num_features: int = 64, rng: int = 5
) -> float:
    """Measured outer iterations per point for the batched working-set SMO.

    ThunderSVM's outer iteration count grows roughly linearly with the
    number of (support-vector) points on noisy data; this measures the
    proportionality constant at a feasible size so the paper-scale model
    can extrapolate ``outer ~ rate * m``.
    """
    X, y = make_planes(num_points, num_features, rng=rng)
    clf = ThunderSVMClassifier(kernel="linear", C=1.0, eps=EPSILON).fit(X, y)
    return clf.result_.outer_iterations / num_points


def _measure_cg_iterations(rng: int = 7) -> int:
    X, y = make_planes(1024, 64, rng=rng)
    return LSSVC(kernel="linear", C=1.0, epsilon=EPSILON).fit(X, y).iterations_


def run_gpu_points(
    *,
    points: Sequence[int] = GPU_POINT_SWEEP,
    num_features: int = 2**12,
    cg_iterations: Optional[int] = None,
    thunder_rate: Optional[float] = None,
) -> ExperimentResult:
    """Fig. 1c (modeled A100, paper sizes): GPU runtime vs number of points."""
    spec = default_gpu()
    if cg_iterations is None:
        cg_iterations = _measure_cg_iterations()
    if thunder_rate is None:
        thunder_rate = measure_thunder_outer_iterations()
    rows: List[Row] = []
    for m in points:
        pls = model_lssvm_gpu_run(
            spec,
            "cuda",
            num_points=m,
            num_features=num_features,
            iterations=cg_iterations,
        )
        rows.append(
            Row(
                meta={"num_points": m, "num_features": num_features, "solver": "plssvm"},
                values={"time_s": pls.device_seconds, "launches": pls.launches_per_device},
            )
        )
        outer = max(int(round(thunder_rate * m)), 1)
        thunder = model_thunder_gpu_run(
            spec,
            "cuda_smo",
            num_points=m,
            num_features=num_features,
            outer_iterations=outer,
        )
        rows.append(
            Row(
                meta={
                    "num_points": m,
                    "num_features": num_features,
                    "solver": "thundersvm",
                },
                values={
                    "time_s": thunder.device_seconds,
                    "launches": thunder.launches_per_device,
                },
            )
        )
    return ExperimentResult(
        experiment="figure1c",
        description=f"Fig 1c: modeled A100 runtime vs points ({num_features} features)",
        mode="modeled",
        rows=rows,
    )


def run_gpu_features(
    *,
    features: Sequence[int] = GPU_FEATURE_SWEEP,
    num_points: int = 2**15,
    cg_iterations: Optional[int] = None,
    thunder_rate: Optional[float] = None,
) -> ExperimentResult:
    """Fig. 1d (modeled A100, paper sizes): GPU runtime vs number of features."""
    spec = default_gpu()
    if cg_iterations is None:
        cg_iterations = _measure_cg_iterations()
    if thunder_rate is None:
        thunder_rate = measure_thunder_outer_iterations()
    outer = max(int(round(thunder_rate * num_points)), 1)
    rows: List[Row] = []
    for d in features:
        pls = model_lssvm_gpu_run(
            spec, "cuda", num_points=num_points, num_features=d, iterations=cg_iterations
        )
        rows.append(
            Row(
                meta={"num_points": num_points, "num_features": d, "solver": "plssvm"},
                values={"time_s": pls.device_seconds, "launches": pls.launches_per_device},
            )
        )
        thunder = model_thunder_gpu_run(
            spec, "cuda_smo", num_points=num_points, num_features=d, outer_iterations=outer
        )
        rows.append(
            Row(
                meta={"num_points": num_points, "num_features": d, "solver": "thundersvm"},
                values={
                    "time_s": thunder.device_seconds,
                    "launches": thunder.launches_per_device,
                },
            )
        )
    return ExperimentResult(
        experiment="figure1d",
        description=f"Fig 1d: modeled A100 runtime vs features ({num_points} points)",
        mode="modeled",
        rows=rows,
    )
