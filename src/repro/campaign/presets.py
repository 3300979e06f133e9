"""The standard campaigns: ``solver``, ``serve``, and ``workloads``.

These fix each campaign's cells — scenario keys, problem sizes,
``--quick`` clamps — which is what keeps the committed
``BENCH_*{,.quick}.json`` artifacts valid as regression baselines.
``plssvm-bench run|check solver|serve|workloads`` builds them by name.

Cells deliberately carry *no* grid axes, so their keys are the flat
scenario names the BENCH reports have always used under
``report["scenarios"]``.
"""

from __future__ import annotations

from typing import List, Optional

from ..serve.batcher import BatchPolicy
from .spec import CampaignSpec

# Import for the registration side effect: the preset cells reference
# these scenarios by name.
from . import solver_scenarios  # noqa: F401
from . import serve_scenarios  # noqa: F401
from . import workload_scenarios  # noqa: F401

__all__ = [
    "solver_campaign",
    "serve_campaign",
    "workloads_campaign",
    "preset_campaign",
    "PRESETS",
]


def solver_campaign(
    *,
    points: int = 4000,
    solver_points: int = 2000,
    precond_points: int = 4000,
    rand_points: int = 4000,
    ooc_points: Optional[List[int]] = None,
    ooc_budget_mb: float = 64.0,
    refit_points: int = 3000,
    refit_chunk: int = 150,
    refit_chunks: int = 3,
    features: int = 16,
    classes: int = 4,
    epsilon: float = 1e-3,
    seed: int = 7,
    quick: bool = False,
) -> CampaignSpec:
    """The eight solver-stack scenarios as one campaign."""
    if ooc_points is None:
        ooc_points = [2000, 4000, 8000, 16000, 32000]
    if quick:
        points = min(points, 600)
        solver_points = min(solver_points, 500)
        precond_points = min(precond_points, 800)
        # Shrink the refit scenario proportionally (base and chunk
        # together, so the measured speedup keeps the same shape), but
        # not below m ~ 2000: under that the per-refit fixed overhead
        # (solver setup, telemetry) is a visible fraction of the ~30 ms
        # steady-state refit and the measured speedup dips toward the
        # gate's 5x floor on a noisy runner.
        refit_points = min(refit_points, 2000)
        refit_chunk = min(refit_chunk, 100)
        # Deliberately NOT shrunk: the CI gate asserts the nystrom direct
        # solve beats exact CG at m >= 2000, and below m=4000 the margin
        # sits within timing noise. Costs ~2s of wall clock in quick mode.
        rand_points = min(rand_points, 4000)
        # ooc_points also deliberately NOT shrunk: the 1.5x bar is judged
        # at the largest m, where the streaming pipeline's fixed per-sweep
        # overhead has amortized; the full curve costs a few seconds.
    shared = {"features": features, "epsilon": epsilon, "seed": seed}
    classed = {**shared, "classes": classes}
    return CampaignSpec.from_dict(
        {
            "name": "solver",
            "config": {
                "points": points,
                "solver_points": solver_points,
                "precond_points": precond_points,
                "rand_points": rand_points,
                "ooc_points": list(ooc_points),
                "ooc_budget_mb": ooc_budget_mb,
                "refit_points": refit_points,
                "refit_chunk": refit_chunk,
                "refit_chunks": refit_chunks,
                "features": features,
                "classes": classes,
                "epsilon": epsilon,
                "seed": seed,
                "quick": quick,
            },
            "cells": [
                {"scenario": "single_vs_block",
                 "params": {"m": solver_points, **classed}},
                {"scenario": "tile_cache",
                 "params": {"m": solver_points, **classed}},
                {"scenario": "multiclass",
                 "params": {"m": points, **classed}},
                {"scenario": "preconditioning",
                 "params": {"m": precond_points, **shared}},
                {"scenario": "mixed_precision",
                 "params": {"m": solver_points, **shared}},
                {"scenario": "randomized_solvers",
                 "params": {"m": rand_points, **shared,
                            "full_grid": not quick}},
                {"scenario": "incremental_refit",
                 "params": {"m": refit_points, "chunk": refit_chunk,
                            "chunks": refit_chunks, **shared}},
                {"scenario": "out_of_core",
                 "params": {"m_values": list(ooc_points), "features": features,
                            "budget_mb": ooc_budget_mb, "seed": seed}},
            ],
        }
    )


def serve_campaign(
    *,
    points: int = 4000,
    features: int = 16,
    requests: int = 200,
    requests_per_client: int = 50,
    concurrency: Optional[List[int]] = None,
    max_batch_rows: int = 64,
    max_wait_ms: float = BatchPolicy().max_wait_ms,
    seed: int = 7,
    quick: bool = False,
) -> CampaignSpec:
    """The three serving scenarios as one campaign."""
    if concurrency is None:
        concurrency = [1, 8, 32]
    if quick:
        points = min(points, 500)
        requests = min(requests, 40)
        requests_per_client = min(requests_per_client, 10)
        concurrency = [c for c in concurrency if c <= 8] or [1, 8]
    common = {"points": points, "features": features, "seed": seed}
    return CampaignSpec.from_dict(
        {
            "name": "serve",
            "config": {
                "points": points,
                "features": features,
                "requests": requests,
                "requests_per_client": requests_per_client,
                "concurrency": list(concurrency),
                "max_batch_rows": max_batch_rows,
                "max_wait_ms": max_wait_ms,
                "seed": seed,
                "quick": quick,
            },
            "cells": [
                {"scenario": "warm_engine",
                 "params": {**common, "requests": requests}},
                {"scenario": "batching",
                 "params": {**common, "concurrency": list(concurrency),
                            "requests_per_client": requests_per_client,
                            "max_batch_rows": max_batch_rows,
                            "max_wait_ms": max_wait_ms}},
                {"scenario": "compact_serving",
                 "params": {**common, "requests": requests}},
            ],
        }
    )


def workloads_campaign(
    *,
    seed: int = 7,
    duration: float = 8.0,
    stress_duration: float = 6.0,
    data_profiles: Optional[List[str]] = None,
    traffic_profiles: Optional[List[str]] = None,
    quick: bool = False,
) -> CampaignSpec:
    """The three workload-engine scenarios as one campaign.

    Everything here is a deterministic simulation, so ``quick`` shrinks
    only the trace durations — the pass/fail structure (including the
    matrix's mandatory failing cell) must survive the clamp, which the
    gates verify against the committed quick baseline.
    """
    if data_profiles is None:
        data_profiles = ["planes", "sparse_text", "imbalanced", "label_noise"]
    if traffic_profiles is None:
        traffic_profiles = ["steady", "diurnal", "bursty", "heavy_tail"]
    # ``quick`` deliberately clamps nothing: the whole campaign is a
    # sub-second deterministic simulation, and shrinking trace durations
    # would change which matrix cells fail — the one structure the gates
    # pin. The quick/full baselines differ only in the config flag.
    return CampaignSpec.from_dict(
        {
            "name": "workloads",
            "config": {
                "seed": seed,
                "duration": duration,
                "stress_duration": stress_duration,
                "data_profiles": list(data_profiles),
                "traffic_profiles": list(traffic_profiles),
                "quick": quick,
            },
            "cells": [
                {"scenario": "workload_determinism",
                 "params": {"seed": seed, "duration": duration}},
                {"scenario": "workload_matrix",
                 "params": {"seed": seed, "duration": duration,
                            "data_profiles": list(data_profiles),
                            "traffic_profiles": list(traffic_profiles)}},
                {"scenario": "workload_failure_diagnosis",
                 "params": {"duration": stress_duration}},
            ],
        }
    )


PRESETS = {
    "solver": solver_campaign,
    "serve": serve_campaign,
    "workloads": workloads_campaign,
}


def preset_campaign(name: str, **overrides) -> CampaignSpec:
    """Build a preset campaign by name (``solver``, ``serve``, ``workloads``)."""
    from ..exceptions import CampaignError

    try:
        builder = PRESETS[name]
    except KeyError:
        raise CampaignError(
            f"unknown campaign preset {name!r}; available: "
            f"{', '.join(sorted(PRESETS))}"
        ) from None
    return builder(**overrides)
