"""Bench: ablations of the §III-C design choices.

Quantifies each optimization the paper motivates: symmetry blocking,
q-vector caching, block-level (shared memory) caching, thread-level
(register) caching, the blocking-size tuning surface, and the host-side
choices (explicit vs implicit Q_tilde, Jacobi preconditioning, SoA layout).
"""

from repro.experiments import ablations


def test_kernel_optimization_ablation(benchmark, record_result):
    result = benchmark.pedantic(ablations.run_kernel_config, rounds=1, iterations=1)
    record_result(result)
    by = {row.meta["variant"]: row.values["slowdown"] for row in result.rows}
    for variant, slowdown in by.items():
        if variant != "baseline (all on)":
            assert slowdown > 1.0, f"{variant} did not help"
    # §III-C3: staging through shared memory is the decisive optimization —
    # without it the kernel is hopelessly global-memory bound.
    assert by["no block-level caching"] > 5.0


def test_blocking_size_sweep(benchmark, record_result):
    result = benchmark.pedantic(ablations.run_block_sizes, rounds=1, iterations=1)
    record_result(result)
    times = result.series("matvec_s")
    assert min(times) > 0
    # The tuning surface is non-trivial: worst/best differ measurably.
    assert max(times) / min(times) > 1.2


def test_host_variants(benchmark, record_result):
    result = benchmark.pedantic(ablations.run_host_variants, rounds=1, iterations=1)
    record_result(result)
    by = {row.meta["variant"]: row.values["seconds"] for row in result.rows}
    # §III-A: the SoA layout's dimension-wise scans beat row-major scans.
    assert by["SoA feature scan"] < by["row-major feature scan"]


def test_precision_ablation(benchmark, record_result):
    result = benchmark.pedantic(ablations.run_precision, rounds=1, iterations=1)
    record_result(result)
    by = {row.meta["device"]: row.values["fp32_speedup"] for row in result.rows}
    # Server GPUs: ~2x; consumer GPUs with gated FP64: an order of magnitude.
    assert 1.8 <= by["NVIDIA A100"] <= 2.2
    assert by["NVIDIA GTX 1080 Ti"] > 10.0
