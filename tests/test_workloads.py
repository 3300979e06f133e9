"""The workload-diversity engine: generation, replay, grading, reports.

Property-based where the promises are statistical (arrival rates within
tolerance, bounded-Pareto support, determinism across seeds), example-
based where they are structural (SLO grading, failure-report schema,
live in-process replay against a real ``ServingApp``, CLI round-trips,
the serving report's per-model quantiles and flush-trigger counters).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lssvm import LSSVC
from repro.data.synthetic import make_planes
from repro.exceptions import DataError, TelemetryError
from repro.io.binary_format import read_binary_file
from repro.serve import BatchPolicy, ModelRegistry, ServingApp
from repro.serve.report import validate_serving_report
from repro.telemetry.metrics import RESERVOIR_SIZE, Histogram
from repro.workloads import (
    SLO,
    FailureReport,
    InProcessTarget,
    ReplayResult,
    ServiceModel,
    WorkloadTrace,
    bounded_pareto,
    compile_trace,
    generate_profile,
    grade_replay,
    make_drift_chunks,
    poisson_process,
    replay,
    rows_for_event,
    simulate_replay,
    validate_failure_report,
    write_drift_chunks,
)
from repro.workloads.profiles_data import get_data_profile
from repro.workloads.profiles_traffic import get_traffic_profile

SETTINGS = dict(max_examples=15, deadline=None)


# ---------------------------------------------------------------------------
# Arrival processes (property-based)
# ---------------------------------------------------------------------------


class TestArrivals:
    @given(rate=st.floats(20.0, 200.0), seed=st.integers(0, 5000))
    @settings(**SETTINGS)
    def test_poisson_rate_within_tolerance(self, rate, seed):
        """Empirical rate of a long Poisson stream stays near nominal."""
        gen = np.random.default_rng(seed)
        duration = 40.0
        times = poisson_process(gen, rate, duration)
        expected = rate * duration
        # 5 sigma on a Poisson count: fails by chance ~3e-7 per example.
        assert abs(times.size - expected) < 5.0 * np.sqrt(expected)
        assert np.all(np.diff(times) >= 0)
        assert times.size == 0 or (times[0] >= 0 and times[-1] < duration)

    @given(
        alpha=st.floats(0.8, 3.0),
        upper=st.integers(8, 512),
        seed=st.integers(0, 5000),
    )
    @settings(**SETTINGS)
    def test_bounded_pareto_support(self, alpha, upper, seed):
        """Heavy-tailed sizes always land in [lower, upper]."""
        gen = np.random.default_rng(seed)
        draws = bounded_pareto(gen, alpha, 1.0, float(upper), size=2000)
        assert np.all(draws >= 1.0)
        assert np.all(draws <= upper)

    def test_bounded_pareto_is_heavy_tailed(self):
        gen = np.random.default_rng(0)
        draws = bounded_pareto(gen, 1.1, 1.0, 256.0, size=20000)
        # Mass concentrates near the lower bound yet the tail is visited.
        assert np.median(draws) < 3.0
        assert draws.max() > 100.0


# ---------------------------------------------------------------------------
# Traffic profiles and traces
# ---------------------------------------------------------------------------


class TestTraces:
    @pytest.mark.parametrize(
        "profile", ["steady", "diurnal", "bursty", "heavy_tail", "tenant_mix"]
    )
    def test_identical_seeds_identical_traces(self, profile):
        """Byte-identical canonical JSON (and digest) per seed."""
        kwargs = {"seed": 13, "duration": 5.0}
        if profile == "tenant_mix":
            kwargs["models"] = ("a", "b", "c")
        t1 = compile_trace(profile, **kwargs)
        t2 = compile_trace(profile, **kwargs)
        assert t1.to_json() == t2.to_json()
        assert t1.digest() == t2.digest()
        t3 = compile_trace(profile, **{**kwargs, "seed": 14})
        assert t3.digest() != t1.digest()

    def test_events_sorted_and_bounded(self):
        trace = compile_trace("bursty", seed=3, duration=6.0)
        times = [e.time for e in trace.events]
        assert times == sorted(times)
        assert all(0 <= t < 6.0 for t in times)
        assert set(trace.phases()) <= {
            f"{s}-{i}" for s in ("calm", "burst") for i in range(200)
        }

    def test_bursty_burst_phases_are_denser(self):
        trace = compile_trace(
            "bursty", seed=5, duration=20.0, burst_multiplier=10.0
        )
        spans = {}
        for e in trace.events:
            state = e.phase.split("-")[0]
            spans.setdefault(state, []).append(e.time)
        assert "burst" in spans and "calm" in spans

    def test_tenant_mix_addresses_all_models(self):
        trace = compile_trace(
            "tenant_mix", seed=9, duration=20.0, models=("a", "b", "c")
        )
        assert {e.model for e in trace.events} == {"a", "b", "c"}
        # The least-weighted tenant sends the chunky requests.
        chunky = [e for e in trace.events if e.rows > 1]
        assert chunky and {e.model for e in chunky} == {"c"}

    def test_trace_json_round_trip(self, tmp_path):
        trace = compile_trace("heavy_tail", seed=21, duration=3.0)
        path = trace.write_json(tmp_path / "trace.json")
        back = WorkloadTrace.read_json(path)
        assert back.digest() == trace.digest()
        assert back.profile == "heavy_tail" and back.seed == 21

    def test_unknown_profile_and_bad_params(self):
        with pytest.raises(DataError, match="unknown traffic profile"):
            compile_trace("nope", seed=0)
        with pytest.raises(DataError, match="does not accept"):
            compile_trace("steady", seed=0, warp_factor=9)
        assert "steady" in repr(get_traffic_profile("steady").name)


# ---------------------------------------------------------------------------
# Data profiles
# ---------------------------------------------------------------------------


class TestDataProfiles:
    def test_sparse_text_density_and_determinism(self):
        X1, y1 = generate_profile(
            "sparse_text", seed=4, num_points=400, num_features=256
        )
        X2, y2 = generate_profile(
            "sparse_text", seed=4, num_points=400, num_features=256
        )
        assert np.array_equal(X1, X2) and np.array_equal(y1, y2)
        density = np.count_nonzero(X1) / X1.size
        assert 0.02 <= density <= 0.10
        assert set(np.unique(y1)) <= {-1.0, 1.0}

    def test_imbalanced_ratio(self):
        X, y = generate_profile(
            "imbalanced", seed=8, num_points=1000, imbalance=50.0
        )
        minority = min(np.sum(y == 1), np.sum(y == -1))
        assert 2 <= minority <= 1000 / 25

    def test_label_noise_degrades_separability(self):
        # The flip mask perturbs downstream RNG draws, so clean/noisy X
        # are not comparable row-for-row; measure the noise through what
        # it exists to do — cap a linear fit's training accuracy.
        X, y = generate_profile(
            "label_noise", seed=6, num_points=500, flip_fraction=0.0
        )
        clean = LSSVC(kernel="linear", C=10.0).fit(X, y).score(X, y)
        Xn, yn = generate_profile(
            "label_noise", seed=6, num_points=500, flip_fraction=0.3
        )
        noisy = LSSVC(kernel="linear", C=10.0).fit(Xn, yn).score(Xn, yn)
        assert clean > 0.95
        assert clean - noisy > 0.08, (clean, noisy)

    @given(seed=st.integers(0, 1000))
    @settings(**SETTINGS)
    def test_drift_chunks_ordered_and_reproducible(self, seed):
        a = list(make_drift_chunks(4, 60, 8, rng=seed))
        b = list(make_drift_chunks(4, 60, 8, rng=seed))
        assert len(a) == 4
        for (Xa, ya), (Xb, yb) in zip(a, b):
            assert np.array_equal(Xa, Xb) and np.array_equal(ya, yb)

    def test_drift_actually_drifts(self):
        chunks = list(
            make_drift_chunks(6, 400, 8, drift_per_chunk=0.5, rng=0)
        )
        X0, y0 = chunks[0]
        clf = LSSVC(kernel="linear", C=10.0).fit(X0, y0)
        early = clf.score(X0, y0)
        X_late, y_late = chunks[-1]
        late = clf.score(X_late, y_late)
        assert early - late > 0.1, (early, late)

    def test_write_drift_chunks_layout(self, tmp_path):
        paths = write_drift_chunks(tmp_path / "chunks", 3, 50, 8, rng=1)
        names = [p.name for p in paths]
        assert names == ["chunk-0000.plsb", "chunk-0001.plsb", "chunk-0002.plsb"]
        assert names == sorted(names)
        X, y = read_binary_file(paths[0])
        assert X.shape == (50, 8) and y.shape == (50,)

    def test_traits_scale_with_profile(self):
        dense = get_data_profile("planes").traits()
        sparse = get_data_profile("sparse_text").traits()
        assert dense["cost_scale"] == pytest.approx(1.0)
        assert sparse["num_features"] > dense["num_features"]
        assert sparse["cost_scale"] < sparse["num_features"] / 64.0


# ---------------------------------------------------------------------------
# Deterministic simulation + grading
# ---------------------------------------------------------------------------


def _stress_result(seed=7):
    trace = compile_trace(
        "bursty", seed=seed, duration=4.0, rate=200.0, burst_multiplier=10.0
    )
    policy = BatchPolicy(max_batch_rows=32, max_wait_ms=2.0, max_queue_rows=64)
    service = ServiceModel(base_ms=2.0, per_row_ms=0.5)
    return simulate_replay(trace, policy=policy, service=service)


class TestSimulation:
    def test_identical_outcome_sequences(self):
        r1, r2 = _stress_result(), _stress_result()
        assert r1.outcome_digest() == r2.outcome_digest()
        assert r1.outcome_sequence() == r2.outcome_sequence()

    def test_quiet_trace_all_ok(self):
        trace = compile_trace("steady", seed=1, duration=3.0, rate=20)
        result = simulate_replay(trace)
        counts = result.counts()
        assert counts["ok"] == counts["total"] > 0
        assert result.reject_rate() == 0.0

    def test_overload_rejects_with_backpressure(self):
        result = _stress_result()
        rejected = [o for o in result.outcomes if o.status == "rejected"]
        assert rejected, "stress config no longer overruns the queue"
        assert all(o.http_status == 503 and o.retry_after for o in rejected)

    def test_batches_respect_policy(self):
        result = _stress_result()
        # Single-row requests: packing must never exceed max_batch_rows.
        assert all(b["rows"] <= 32 for b in result.batches)
        assert all(b["trigger"] in ("count", "wait") for b in result.batches)

    def test_grade_passes_quiet_and_fails_stress(self):
        quiet = simulate_replay(
            compile_trace("steady", seed=1, duration=3.0, rate=20)
        )
        assert grade_replay(quiet, SLO()).passed
        stressed = grade_replay(_stress_result(), SLO(p99_ms=50.0))
        assert not stressed.passed
        violated = {o.objective for o in stressed.objectives if not o.passed}
        assert "latency_p99_ms" in violated or "reject_rate" in violated

    def test_failure_report_names_window_and_validates(self):
        grade = grade_replay(_stress_result(), SLO(p99_ms=50.0))
        report = grade.failure_report
        assert report is not None
        data = validate_failure_report(report.to_json())
        worst = data["failures"][0]
        window = worst["window"]
        assert window["end"] > window["start"] >= 0.0
        assert window["phase"].split("-")[0] in ("calm", "burst")
        assert worst["suggestion"]
        assert "violated" in report.summary

    def test_no_deadline_latency_failure_names_the_busy_worker(self):
        """Under the 0 ms default every partial batch counts as a deadline
        flush, but there is no deadline to lower: the report must blame
        the worker, not max_wait_ms."""
        trace = compile_trace("bursty", seed=7, rate=200.0, burst_multiplier=10.0)
        result = simulate_replay(trace, service=ServiceModel(2.0, 0.5))
        assert result.config["policy"]["max_wait_ms"] == 0.0
        grade = grade_replay(result, SLO(p99_ms=20.0))
        worst = grade.failure_report.failures[0]
        assert worst.objective == "latency_p99_ms"
        assert worst.batches["wait_triggered"] > worst.batches["count_triggered"]
        assert "max_wait_ms" not in worst.suggestion
        assert "worker is busy" in worst.suggestion

    def test_failure_report_rejects_malformed(self):
        grade = grade_replay(_stress_result(), SLO(p99_ms=50.0))
        data = grade.failure_report.as_dict()
        data["failures"][0].pop("window")
        with pytest.raises(TelemetryError, match="missing key 'window'"):
            validate_failure_report(data)
        with pytest.raises(TelemetryError, match="schema_version"):
            validate_failure_report({**grade.failure_report.as_dict(),
                                     "schema_version": 99})

    def test_replay_result_round_trip(self, tmp_path):
        result = _stress_result()
        path = result.write_json(tmp_path / "replay.json")
        back = ReplayResult.read_json(path)
        assert back.outcome_digest() == result.outcome_digest()
        assert back.counts() == result.counts()
        assert back.config["policy"] == result.config["policy"]

    def test_slo_round_trip_and_unknown_field(self):
        slo = SLO(name="x", p99_ms=100.0)
        assert SLO.from_dict(slo.as_dict()) == slo
        with pytest.raises(DataError, match="unknown SLO field"):
            SLO.from_dict({"p99_ms": 1.0, "p42_ms": 2.0})


# ---------------------------------------------------------------------------
# Live in-process replay against a real ServingApp
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_app():
    X, y = make_planes(300, 8, rng=5)
    clf = LSSVC(kernel="rbf", C=10.0, gamma=0.125).fit(X, y)
    registry = ModelRegistry()
    registry.register("planes", clf.model_)
    app = ServingApp(
        registry,
        policy=BatchPolicy(max_batch_rows=32, max_wait_ms=2.0,
                           max_queue_rows=4096),
    )
    yield app, clf, X
    app.close()


class TestLiveReplay:
    def test_in_process_replay_matches_offline(self, trained_app):
        app, clf, X = trained_app
        trace = compile_trace("steady", seed=2, duration=1.0, rate=40, rows=4)
        result = replay(
            trace,
            InProcessTarget(app),
            row_pools={"*": X},
            speed=4.0,
            spot_check_every=3,
            oracles={"default": clf.model_.decision_function},
        )
        counts = result.counts()
        assert counts["error"] == 0
        assert counts["ok"] == counts["total"]
        diff = result.max_value_diff()
        assert diff is not None and diff < 1e-8

    def test_server_report_has_model_quantiles(self, trained_app):
        app, _, X = trained_app
        trace = compile_trace("steady", seed=3, duration=0.5, rate=60)
        result = replay(
            trace, InProcessTarget(app), row_pools={"*": X}, speed=8.0
        )
        report = validate_serving_report(result.server_report)
        entry = next(m for m in report["models"] if m["name"] == "planes")
        assert set(entry["latency_ms"]) == {"p50", "p95", "p99"}
        assert entry["latency_ms"]["p50"] > 0
        assert entry["latency_ms"]["p99"] >= entry["latency_ms"]["p50"]
        check = result.server_quantile_check()
        assert check["planes"]["consistent"]

    def test_flush_trigger_counters_in_report(self, trained_app):
        app, _, X = trained_app
        # Sparse arrivals: deadline flushes. Then a wide burst: count flush.
        trace = compile_trace("steady", seed=4, duration=0.4, rate=30)
        replay(trace, InProcessTarget(app), row_pools={"*": X}, speed=4.0)
        app.predict(None, X[:64], timeout=30.0)  # 64 rows > 32-row target
        counters = app.report().as_dict()["counters"]
        assert counters["serve_flush_max_wait"] > 0
        assert counters["serve_flush_count_trigger"] > 0
        total_flushes = (
            counters["serve_flush_count_trigger"]
            + counters["serve_flush_max_wait"]
            + counters["serve_flush_drain"]
        )
        assert total_flushes == counters["serve_batches"]

    def test_rows_for_event_deterministic_slices(self):
        pool = np.arange(40, dtype=np.float64).reshape(10, 4)
        a = rows_for_event(pool, 7, 3)
        b = rows_for_event(pool, 7, 3)
        assert np.array_equal(a, b)
        assert a.shape == (3, 4)
        assert not np.array_equal(a, rows_for_event(pool, 8, 3))


# ---------------------------------------------------------------------------
# Histogram reservoir quantiles
# ---------------------------------------------------------------------------


class TestHistogramQuantiles:
    def test_quantiles_on_known_data(self):
        h = Histogram("x")
        for v in range(1, 101):
            h.observe(float(v))
        q = h.quantiles()
        assert q["p50"] == pytest.approx(50.0, abs=2.0)
        assert q["p99"] == pytest.approx(99.0, abs=2.0)
        assert h.quantile(0.0) == 1.0 and h.quantile(1.0) == 100.0

    def test_reservoir_is_recency_biased(self):
        h = Histogram("x")
        for _ in range(RESERVOIR_SIZE):
            h.observe(1.0)
        for _ in range(RESERVOIR_SIZE):
            h.observe(100.0)
        assert h.quantile(0.5) == 100.0
        assert h.count == 2 * RESERVOIR_SIZE

    def test_empty_and_invalid(self):
        h = Histogram("x")
        assert h.quantile(0.5) == 0.0
        assert h.quantiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        with pytest.raises(ValueError):
            h.quantile(1.5)


# ---------------------------------------------------------------------------
# CLI round-trips
# ---------------------------------------------------------------------------


class TestWorkloadCLI:
    def test_generate_replay_grade_pipeline(self, tmp_path, capsys):
        from repro.cli.workload import main

        trace_path = tmp_path / "t.json"
        result_path = tmp_path / "r.json"
        grade_path = tmp_path / "g.json"
        fail_path = tmp_path / "f.json"
        assert main([
            "generate", "--traffic", "bursty", "--seed", "7",
            "--duration", "4", "--param", "rate=200",
            "--param", "burst_multiplier=10", "-o", str(trace_path),
        ]) == 0
        assert main([
            "replay", str(trace_path), "--max-batch-rows", "32",
            "--max-queue-rows", "64", "--base-ms", "2.0",
            "--per-row-ms", "0.5", "-o", str(result_path),
        ]) == 0
        # The stress config violates the default SLO: grade exits 1 and
        # writes a schema-valid failure report naming the window.
        assert main([
            "grade", str(result_path), "--p99-ms", "50",
            "-o", str(grade_path), "--failure-report", str(fail_path),
        ]) == 1
        report = validate_failure_report(fail_path.read_text())
        assert report["failures"][0]["window"]["events"] > 0
        grade = json.loads(grade_path.read_text())
        assert grade["passed"] is False

    def test_cli_determinism(self, tmp_path):
        from repro.cli.workload import main

        digests = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main([
                "generate", "--traffic", "heavy_tail", "--seed", "3",
                "-o", str(path),
            ]) == 0
            digests.append(WorkloadTrace.read_json(path).digest())
        assert digests[0] == digests[1]

    def test_list_commands(self, capsys):
        from repro.cli.workload import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bursty" in out and "sparse_text" in out

    def test_generate_data_profiles(self, tmp_path, capsys):
        from repro.cli.generate_data import main

        assert main(["--list-profiles"]) == 0
        assert "drift [chunked]" in capsys.readouterr().out
        out = tmp_path / "x.libsvm"
        assert main([
            str(out), "--profile", "sparse_text", "-n", "100", "--seed", "2",
        ]) == 0
        assert out.exists()
        chunks = tmp_path / "chunks"
        assert main([
            str(chunks), "--profile", "drift", "--seed", "2",
            "--param", "num_chunks=2", "--param", "chunk_points=40",
        ]) == 0
        assert sorted(p.name for p in chunks.iterdir()) == [
            "chunk-0000.plsb", "chunk-0001.plsb",
        ]
        assert main([
            str(tmp_path / "bad"), "--profile", "no_such",
        ]) == 2


# ---------------------------------------------------------------------------
# Campaign integration
# ---------------------------------------------------------------------------


class TestWorkloadCampaign:
    def test_matrix_has_diagnosed_failing_cell(self):
        from repro.campaign.scenarios import get_scenario
        from repro.campaign.workload_scenarios import workload_matrix

        params = get_scenario("workload_matrix").resolve_params({})
        result = workload_matrix(**params)
        assert result["cells_total"] >= 16
        assert result["has_failing_cell"]
        assert result["all_failures_diagnosed"]
        for key in result["failing_cells"]:
            data, traffic = key.split(" x ")
            cell = result["grid"][data][traffic]
            assert cell["violated"] and "worst_window" in cell

    def test_workloads_preset_registered(self):
        from repro.campaign.presets import preset_campaign

        spec = preset_campaign("workloads", quick=True)
        assert [c.scenario for c in spec.cells] == [
            "workload_determinism",
            "workload_matrix",
            "workload_failure_diagnosis",
        ]
