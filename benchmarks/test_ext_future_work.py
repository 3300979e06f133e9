"""Bench: the §V future-work extensions (sparse CG, heterogeneous balancing).

Two quantitative studies beyond the paper's published evaluation:

* sparse CSR CG vs dense CG across data densities — the "consider sparse
  data structures for the CG solver" item;
* throughput-balanced vs equal feature splits on a mixed A100+P100 rig —
  the "load balancing on heterogeneous hardware" item.
"""

import time

import numpy as np

from repro import LSSVC
from repro.backends.heterogeneous import HeterogeneousCSVM
from repro.data import make_planes
from repro.experiments.common import ExperimentResult, Row
from repro.sparse import CSRMatrix


def _sparse_vs_dense(densities=(0.05, 0.2, 0.5, 1.0), num_points=1024, num_features=512):
    rows = []
    rng = np.random.default_rng(0)
    X, y = make_planes(num_points, num_features, rng=0)
    for density in densities:
        Xd = X.copy()
        if density < 1.0:
            Xd[rng.random(Xd.shape) > density] = 0.0
        actual = CSRMatrix.from_dense(Xd).density

        start = time.perf_counter()
        dense = LSSVC(kernel="linear", epsilon=1e-8).fit(Xd, y)
        dense_s = time.perf_counter() - start

        start = time.perf_counter()
        sparse = LSSVC(kernel="linear", epsilon=1e-8, sparse=True).fit(Xd, y)
        sparse_s = time.perf_counter() - start

        agree = float(
            np.mean(dense.predict(Xd) == sparse.predict(Xd))
        )
        rows.append(
            Row(
                meta={"density": round(actual, 3)},
                values={
                    "dense_cg_s": dense_s,
                    "sparse_cg_s": sparse_s,
                    "speedup": dense_s / sparse_s,
                    "prediction_agreement": agree,
                },
            )
        )
    return ExperimentResult(
        experiment="ext_sparse_cg",
        description="Sparse (CSR) vs dense CG matvecs across data density (measured)",
        mode="measured",
        rows=rows,
    )


def test_sparse_cg_vs_dense(benchmark, record_result):
    result = benchmark.pedantic(_sparse_vs_dense, rounds=1, iterations=1)
    record_result(result)
    for row in result.rows:
        assert row.values["prediction_agreement"] >= 0.99
    # At the sparsest end the CSR path must win.
    sparsest = result.rows[0]
    assert sparsest.values["speedup"] > 1.0


def _heterogeneous(rigs=None, num_points=2048, num_features=1024):
    rigs = rigs or [
        ("A100+A100", ["nvidia_a100", "nvidia_a100"]),
        ("A100+V100", ["nvidia_a100", "nvidia_v100"]),
        ("A100+P100", ["nvidia_a100", "nvidia_p100"]),
        ("A100+1080Ti", ["nvidia_a100", "nvidia_gtx1080ti"]),
    ]
    X, y = make_planes(num_points, num_features, rng=4)
    rows = []
    for name, devices in rigs:
        makespans = {}
        for balanced in (False, True):
            backend = HeterogeneousCSVM(devices, balanced=balanced)
            LSSVC(kernel="linear", epsilon=1e-8, backend=backend).fit(X, y)
            makespans[balanced] = max(t for _, t in backend.per_device_times())
        rows.append(
            Row(
                meta={"rig": name},
                values={
                    "equal_split_s": makespans[False],
                    "balanced_s": makespans[True],
                    "balancing_gain": makespans[False] / makespans[True],
                },
            )
        )
    return ExperimentResult(
        experiment="ext_heterogeneous",
        description=(
            "Heterogeneous load balancing: per-iteration makespan, equal vs "
            "throughput-weighted feature split (modeled devices)"
        ),
        mode="modeled",
        rows=rows,
    )


def test_heterogeneous_load_balancing(benchmark, record_result):
    result = benchmark.pedantic(_heterogeneous, rounds=1, iterations=1)
    record_result(result)
    by = {row.meta["rig"]: row.values for row in result.rows}
    # Homogeneous rigs gain nothing; the more lopsided the rig, the bigger
    # the balancing gain.
    assert by["A100+A100"]["balancing_gain"] < 1.05
    assert by["A100+P100"]["balancing_gain"] > by["A100+V100"]["balancing_gain"] > 1.0
    assert by["A100+1080Ti"]["balancing_gain"] > 1.5
