"""Tests for the experiment runners (shape assertions per table/figure).

These use scaled-down sweeps so the full suite stays fast; the benchmark
harness runs the same runners at their default (paper-shaped) sizes.
"""

import math

import pytest

from repro.experiments import (
    ablations,
    figure1,
    figure2,
    figure3,
    figure4,
    sat6,
    summary,
    table1,
)
from repro.experiments.common import ExperimentResult, Row, format_table, loglog_slope, run_repeated


class TestCommon:
    def test_row_get(self):
        row = Row(meta={"a": 1}, values={"b": 2.0})
        assert row.get("a") == 1
        assert row.get("b") == 2.0
        assert row.get("missing") == ""

    def test_series_filtering(self):
        res = ExperimentResult(
            "x",
            "desc",
            "measured",
            [
                Row(meta={"s": "a"}, values={"t": 1.0}),
                Row(meta={"s": "b"}, values={"t": 2.0}),
                Row(meta={"s": "a"}, values={"t": 3.0}),
            ],
        )
        assert res.series("t", s="a") == [1.0, 3.0]
        assert res.meta_values("s") == ["a", "b", "a"]

    def test_format_table_aligns_heterogeneous_rows(self):
        rows = [
            Row(meta={"k": 1}, values={"v": 1.0}),
            Row(meta={"k": 2}, values={"v": 2.0, "extra": 9.0}),
        ]
        text = format_table(rows, title="t")
        assert "extra" in text
        assert text.splitlines()[0] == "t"

    def test_format_table_empty(self):
        assert "no rows" in format_table([], title="t")

    def test_run_repeated_wall_time(self):
        stats = run_repeated(lambda: None, repeats=3)
        assert stats.count == 3
        assert stats.mean >= 0

    def test_run_repeated_returned_time(self):
        stats = run_repeated(lambda: 2.0, repeats=2)
        assert stats.mean == 2.0

    def test_run_repeated_validates(self):
        with pytest.raises(ValueError):
            run_repeated(lambda: None, repeats=0)

    def test_loglog_slope(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        assert loglog_slope(xs, [x**2 for x in xs]) == pytest.approx(2.0)
        assert loglog_slope(xs, [5.0 * x for x in xs]) == pytest.approx(1.0)

    def test_loglog_slope_validates(self):
        with pytest.raises(ValueError):
            loglog_slope([1.0], [1.0])
        with pytest.raises(ValueError):
            loglog_slope([2.0, 2.0], [1.0, 2.0])


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return table1.run(iterations=20)

    def test_all_devices_present(self, result):
        assert len(result.rows) == 6

    def test_dashes_for_impossible_combinations(self, result):
        by_key = {row.meta["key"]: row for row in result.rows}
        assert math.isnan(by_key["amd_radeon_vii"].values["cuda_s"])
        assert math.isnan(by_key["intel_uhd_p630"].values["cuda_s"])
        assert not math.isnan(by_key["nvidia_v100"].values["cuda_s"])

    def test_paper_orderings_hold(self, result):
        assert table1.ordering_violations(result) == []

    def test_v100_faster_than_p100_faster_than_consumer(self, result):
        by_key = {row.meta["key"]: row for row in result.rows}
        assert (
            by_key["nvidia_v100"].values["cuda_s"]
            < by_key["nvidia_p100"].values["cuda_s"]
            < by_key["nvidia_gtx1080ti"].values["cuda_s"]
        )

    def test_intel_igpu_slowest(self, result):
        by_key = {row.meta["key"]: row for row in result.rows}
        others = [
            row.values["opencl_s"]
            for key, row in by_key.items()
            if key != "intel_uhd_p630"
        ]
        assert by_key["intel_uhd_p630"].values["opencl_s"] > max(others)

    def test_within_factor_three_of_paper(self, result):
        """Modeled cells stay within ~3x of the published runtimes.

        The published iteration count is unknown, so absolute times carry a
        constant offset; the catalog calibration keeps it bounded.
        """
        for row in result.rows:
            for backend in ("cuda", "opencl", "sycl"):
                modeled = row.values[f"{backend}_s"]
                paper = row.values[f"paper_{backend}_s"]
                if math.isnan(modeled) or math.isnan(paper):
                    continue
                assert 1 / 3 <= modeled / paper <= 3


class TestFigure1:
    @pytest.fixture(scope="class")
    def cpu_points(self):
        # SMO runtimes are dominated by constant costs below ~256 points;
        # the slope/crossover claims need the larger sweep.
        return figure1.run_cpu_points(points=(128, 512, 2048), num_features=32, rng=0)

    def test_all_solvers_swept(self, cpu_points):
        solvers = set(cpu_points.meta_values("solver"))
        assert solvers == {"plssvm", "libsvm", "libsvm_dense", "thundersvm"}

    def test_plssvm_fastest_at_largest_size(self, cpu_points):
        largest = max(cpu_points.meta_values("num_points"))
        pls = cpu_points.series("time_s", solver="plssvm", num_points=largest)[0]
        lib = cpu_points.series("time_s", solver="libsvm", num_points=largest)[0]
        assert pls < lib

    def test_smo_slope_steeper_than_lssvm(self, cpu_points):
        points = sorted(set(cpu_points.meta_values("num_points")))
        pls = [cpu_points.series("time_s", solver="plssvm", num_points=m)[0] for m in points]
        lib = [cpu_points.series("time_s", solver="libsvm", num_points=m)[0] for m in points]
        assert loglog_slope(points, lib) > loglog_slope(points, pls)

    def test_accuracies_comparable(self, cpu_points):
        for row in cpu_points.rows:
            assert row.values["train_accuracy"] > 0.85

    def test_gpu_points_modeled(self):
        res = figure1.run_gpu_points(
            points=(2**10, 2**12, 2**14),
            cg_iterations=25,
            thunder_rate=0.006,
        )
        pls = res.series("time_s", solver="plssvm")
        thunder = res.series("time_s", solver="thundersvm")
        assert all(p < t for p, t in zip(pls, thunder))
        # Paper: PLSSVM wins by roughly 7x at 2^14 (we accept 3-20x).
        assert 3 <= thunder[-1] / pls[-1] <= 20

    def test_gpu_features_modeled(self):
        res = figure1.run_gpu_features(
            features=(2**8, 2**11), cg_iterations=25, thunder_rate=0.006
        )
        pls = res.series("time_s", solver="plssvm", num_features=2**11)[0]
        thunder = res.series("time_s", solver="thundersvm", num_features=2**11)[0]
        assert thunder / pls > 3

    def test_cpu_features_sweep(self):
        res = figure1.run_cpu_features(features=(8, 16), num_points=128, rng=1)
        assert len(res.rows) == 8
        assert all(r.values["time_s"] > 0 for r in res.rows)


class TestFigure2:
    def test_measured_components_present(self):
        res = figure2.run_measured(points=(64, 128), num_features=16, rng=2)
        for row in res.rows:
            for key in ("read_s", "transform_s", "cg_s", "write_s", "total_s"):
                assert row.values[key] >= 0
            assert row.values["total_s"] > 0

    def test_modeled_cg_dominates_at_scale(self):
        res = figure2.run_modeled(points=(2**15,), cg_iterations=27)
        assert res.rows[0].values["cg_share"] > 0.8

    def test_modeled_io_scales_linearly(self):
        res = figure2.run_modeled(points=(2**10, 2**11), cg_iterations=25)
        a, b = (r.values["read_s"] for r in res.rows)
        assert b / a == pytest.approx(2.0, rel=0.01)

    def test_io_rate_measurement(self):
        read_rate, write_rate = figure2.measure_io_rates(num_points=64, num_features=16)
        assert read_rate > 0 and write_rate > 0


class TestFigure3:
    @pytest.fixture(scope="class")
    def result(self):
        return figure3.run(
            epsilons=(1e-1, 1e-3, 1e-6, 1e-9, 1e-12),
            num_points=256,
            num_features=64,
            rng=11,
        )

    def test_iterations_monotone_in_epsilon(self, result):
        iters = result.series("iterations")
        assert all(a <= b for a, b in zip(iters, iters[1:]))

    def test_accuracy_plateaus(self, result):
        accs = result.series("train_accuracy")
        assert accs[-1] == pytest.approx(accs[-2], abs=0.01)

    def test_residual_below_epsilon_when_converged(self, result):
        for row in result.rows:
            eps = row.meta["epsilon"]
            if row.values["residual"] <= eps:
                assert row.values["residual"] <= eps

    def test_runtime_grows_modestly(self, result):
        # Paper: 8 orders of magnitude tighter epsilon -> only ~1.83x time.
        iters = result.series("iterations")
        assert iters[-1] / iters[1] < 4.0

    def test_modeled_column_tracks_iterations(self, result):
        modeled = result.series("modeled_a100_s")
        iters = result.series("iterations")
        ratio = [m / i for m, i in zip(modeled, iters)]
        assert max(ratio) / min(ratio) < 1.2  # time per iteration ~constant


class TestFigure4:
    def test_cpu_modeled_cg_speedup(self):
        res = figure4.run_cpu_modeled()
        speedups = res.series("cg_speedup")
        assert speedups[-1] == pytest.approx(74.7, rel=0.05)  # paper anchor
        assert all(a < b for a, b in zip(speedups, speedups[1:]))

    def test_cpu_modeled_io_socket_effect(self):
        res = figure4.run_cpu_modeled(cores=(64, 128))
        read = res.series("read_s")
        assert read[1] > read[0]

    def test_cpu_measured_runs(self):
        res = figure4.run_cpu_measured(threads=(1,), num_points=128, num_features=32)
        assert res.rows[0].values["speedup"] == 1.0

    def test_multi_gpu_speedup_and_memory(self):
        res = figure4.run_multi_gpu(cg_iterations=26)
        speedups = res.series("speedup")
        assert speedups[0] == 1.0
        assert 3.4 <= speedups[-1] <= 4.0  # paper: 3.71
        mem = res.series("memory_gib_per_gpu")
        assert mem[0] == pytest.approx(8.15, rel=0.05)
        assert mem[-1] == pytest.approx(2.14, rel=0.08)


class TestSat6:
    @pytest.fixture(scope="class")
    def result(self):
        return sat6.run(num_images=400, rng=1)

    def test_both_solvers_reported(self, result):
        assert {row.meta["solver"] for row in result.rows} == {"plssvm", "thundersvm"}

    def test_accuracies_high(self, result):
        for row in result.rows:
            assert row.values["test_accuracy"] > 0.8

    def test_plssvm_modeled_faster_at_paper_scale(self, result):
        by = {row.meta["solver"]: row for row in result.rows}
        assert (
            by["plssvm"].values["modeled_a100_min"]
            < by["thundersvm"].values["modeled_a100_min"]
        )


class TestSummary:
    def test_speedups_positive(self):
        res = summary.run_speedups(num_points=256, num_features=16, rng=9)
        cpu_row = res.rows[0]
        assert cpu_row.values["speedup_vs_libsvm"] > 1.0
        gpu_row = res.rows[1]
        assert gpu_row.values["speedup_vs_thundersvm"] > 1.0

    def test_variation_lssvm_steadier_than_smo(self):
        res = summary.run_variation(runs=4, num_points=256, num_features=16)
        by = {row.meta["solver"]: row.values["iterations_cv"] for row in res.rows}
        # The paper's core claim: CG's work varies much less than SMO's.
        # Gated on iteration counts (seeds 100-103: CG 12/12/12/11, CV
        # 0.04) so machine load cannot flip it.
        assert by["plssvm"] < 0.1
        assert by["plssvm"] < min(by["libsvm"], by["libsvm_dense"], by["thundersvm"])

    @pytest.mark.slow
    def test_variation_runtime_steadier_than_smo(self):
        res = summary.run_variation(runs=10, num_points=256, num_features=16)
        by = {row.meta["solver"]: row.values["cv"] for row in res.rows}
        # The same claim on wall-clock times, which load noise can blur.
        assert by["plssvm"] <= max(by["libsvm"], by["thundersvm"]) + 0.05

    def test_kernel_census_matches_paper_profiling(self):
        res = summary.run_kernel_census()
        by = {row.meta["solver"]: row for row in res.rows}
        # Absolute launch counts track the instance's convergence; the
        # robust claims are the micro-kernel swarm vs the 3 fat kernels and
        # the utilization gap (32 % vs 2.4 % of FP64 peak).
        assert by["thundersvm"].values["launches"] > 10 * by["plssvm"].values["launches"]
        assert by["plssvm"].values["launches"] < 100
        assert by["plssvm"].values["fraction_of_peak"] == pytest.approx(0.32, abs=0.05)
        assert by["thundersvm"].values["fraction_of_peak"] == pytest.approx(
            0.024, abs=0.01
        )

    def test_launch_census_exceeds_1600_at_paper_iteration_count(self):
        # The paper's profiled run implies >=320 outer iterations (>1600
        # launches at ThunderSVM's per-iteration kernel pattern).
        from repro.experiments.analytic import model_thunder_gpu_run
        from repro.simgpu.catalog import default_gpu

        model = model_thunder_gpu_run(
            default_gpu(),
            "cuda_smo",
            num_points=2**14,
            num_features=2**12,
            outer_iterations=330,
        )
        assert model.launches_per_device > 1600


class TestAblations:
    def test_every_optimization_helps(self):
        res = ablations.run_kernel_config()
        by = {row.meta["variant"]: row.values["slowdown"] for row in res.rows}
        assert by["baseline (all on)"] == 1.0
        for variant, slowdown in by.items():
            if variant != "baseline (all on)":
                assert slowdown > 1.0, variant

    def test_block_caching_is_the_biggest_lever(self):
        res = ablations.run_kernel_config()
        by = {row.meta["variant"]: row.values["slowdown"] for row in res.rows}
        assert by["no block-level caching"] == max(
            v for k, v in by.items() if k != "baseline (all on)"
        )

    def test_block_size_sweep_has_an_interior_optimum_dimension(self):
        res = ablations.run_block_sizes(
            thread_blocks=(16,), internal_blocks=(1, 6)
        )
        times = res.series("matvec_s")
        assert times[1] <= times[0]  # register blocking helps

    def test_host_variants_run(self):
        res = ablations.run_host_variants(num_points=128, num_features=16)
        variants = set(res.meta_values("variant"))
        assert "explicit Q_tilde" in variants
        assert "SoA feature scan" in variants


class TestReport:
    def test_generate_report_with_subset(self, tmp_path, monkeypatch):
        """The report runner composes runner outputs into one document."""
        from repro.experiments import report as report_mod

        def tiny_runners():
            return [
                ("Fig. 4a modeled", lambda: figure4.run_cpu_modeled(cores=(1, 4))),
                (
                    "Fig. 4b modeled",
                    lambda: figure4.run_multi_gpu(gpus=(1, 2), cg_iterations=10),
                ),
            ]

        monkeypatch.setattr(report_mod, "_all_runners", tiny_runners)
        out = tmp_path / "report.md"
        text = report_mod.generate_report(out, progress=False)
        assert out.exists()
        assert "Fig. 4a modeled" in text
        assert "Fig. 4b modeled" in text
        assert "mode: modeled" in text
        assert out.read_text() == text

    def test_all_runners_registry_is_complete(self):
        from repro.experiments.report import _all_runners

        titles = [t for t, _ in _all_runners()]
        for fragment in ("Table I", "Fig. 1a", "Fig. 2", "Fig. 3", "Fig. 4a",
                         "Fig. 4b", "SAT-6", "census", "FP64"):
            assert any(fragment in t for t in titles), fragment
