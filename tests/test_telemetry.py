"""Tests for the span/metrics telemetry subsystem and ``TrainingReport``.

Covers the context/span tree, metric bubbling to the process root,
report building/validation, the merged chrome trace, and — the acceptance criterion — per-fit attribution
under concurrent fits sharing a thread pool.
"""

import json

import numpy as np
import pytest

from repro.core.lssvm import LSSVC
from repro.data.synthetic import make_planes
from repro.exceptions import TelemetryError
from repro.parallel.thread_pool import ThreadPool
from repro.telemetry import (
    REPORT_SCHEMA_VERSION,
    SOLVER_COUNTER_NAMES,
    SOLVER_GAUGE_NAMES,
    TrainingReport,
    build_report,
    current_context,
    fit_scope,
    reset_root_context,
    root_context,
    validate_report,
)


def span_names(span_dict):
    """Flat list of span names in a serialized span tree."""
    out = [span_dict["name"]]
    for child in span_dict.get("children", ()):
        out.extend(span_names(child))
    return out


class TestContext:
    def test_current_context_defaults_to_root(self):
        assert current_context() is root_context()

    def test_fit_scope_activates_and_restores(self):
        with fit_scope("test.fit") as ctx:
            assert current_context() is ctx
        assert current_context() is root_context()

    def test_span_tree_nests(self):
        with fit_scope("test.fit") as ctx:
            with ctx.span("outer"):
                with ctx.span("inner", i=3):
                    pass
            with ctx.span("sibling"):
                pass
        root = ctx.root_span
        assert [c.name for c in root.children] == ["outer", "sibling"]
        inner = root.children[0].children[0]
        assert inner.name == "inner"
        assert inner.attrs["i"] == 3
        assert inner.dur >= 0.0

    def test_root_context_records_no_spans(self):
        with root_context().span("never-kept") as span:
            assert span is None

    def test_counters_bubble_to_root(self):
        reset_root_context()
        with fit_scope("test.fit") as ctx:
            ctx.inc("tile_sweeps", 3)
            ctx.set_gauge("precond_rank", 17)
        assert ctx.solver_counters_dict()["tile_sweeps"] == 3
        root = root_context().solver_counters_dict()
        assert root["tile_sweeps"] == 3
        assert root["precond_rank"] == 17

    def test_root_aggregates_across_fits(self, planes_small):
        X, y = planes_small
        reset_root_context()
        LSSVC(kernel="linear", C=1.0).fit(X, y)
        LSSVC(kernel="rbf", C=1.0, gamma=0.1).fit(X, y)
        root = root_context().solver_counters_dict()
        assert root["cg_solves"] == 2
        assert root["cg_iterations"] > 0
        names = set(SOLVER_COUNTER_NAMES + SOLVER_GAUGE_NAMES)
        assert set(root) == names | {"cache_hit_rate"}

    def test_nested_scopes_bubble_through_parent(self):
        reset_root_context()
        with fit_scope("outer.fit") as outer:
            with fit_scope("inner.fit") as inner:
                inner.inc("cg_solves")
        assert inner.solver_counters_dict()["cg_solves"] == 1
        assert outer.solver_counters_dict()["cg_solves"] == 1
        assert root_context().solver_counters_dict()["cg_solves"] == 1

    def test_span_cap_drops_but_keeps_counting(self):
        with fit_scope("test.fit", max_spans=3) as ctx:
            for i in range(10):
                with ctx.span("s", i=i):
                    pass
        # root + 2 retained children == 3; the rest are dropped but counted.
        assert len(ctx.root_span.children) == 2
        assert ctx.dropped_spans == 8


class TestTrainingReport:
    @pytest.fixture(scope="class")
    def fitted(self, planes_medium):
        X, y = planes_medium
        clf = LSSVC(kernel="rbf", C=1.0, gamma=0.05, precondition="jacobi")
        return clf.fit(X, y)

    def test_report_attached_and_consistent(self, fitted):
        report = fitted.report_
        assert isinstance(report, TrainingReport)
        assert report.estimator == "LSSVC"
        assert report.num_samples == 512
        assert report.num_features == 32
        assert report.iterations == fitted.iterations_
        assert report.counters["cg_solves"] == 1
        assert report.counters["cg_iterations"] == fitted.iterations_
        assert report.counters["precond_setups"] == 1
        assert report.solver["converged"] is True
        assert report.wall_seconds > 0

    def test_span_tree_covers_solver_phases(self, fitted):
        names = span_names(fitted.report_.spans)
        assert names[0] == "LSSVC.fit"
        assert "assembly" in names
        assert "cg_solve" in names
        assert "precond_setup" in names
        assert names.count("iteration") == fitted.iterations_

    def test_round_trips_through_json_and_schema(self, fitted, tmp_path):
        report = fitted.report_
        assert report.as_dict()["schema_version"] == REPORT_SCHEMA_VERSION
        validate_report(report.as_dict())
        validate_report(report.to_json())
        path = tmp_path / "report.json"
        report.write_json(path)
        validate_report(json.loads(path.read_text()))

    def test_chrome_trace_loads(self, fitted, tmp_path):
        trace = fitted.report_.chrome_trace()
        events = trace["traceEvents"]
        assert any(e.get("ph") == "X" and e["pid"] == 0 for e in events)
        assert any(e.get("ph") == "M" for e in events)  # metadata names
        path = tmp_path / "trace.json"
        n = fitted.report_.write_chrome_trace(path)
        assert n > 0
        json.loads(path.read_text())

    def test_device_backend_report(self, planes_small):
        X, y = planes_small
        clf = LSSVC(kernel="linear", C=1.0, backend="cuda", n_devices=2)
        clf.fit(X, y)
        report = clf.report_
        assert len(report.devices) == 2
        assert report.device_event_count > 0
        assert report.modeled_device_seconds > 0
        trace = report.chrome_trace()
        device_events = [
            e for e in trace["traceEvents"] if e.get("ph") == "X" and e["pid"] == 1
        ]
        assert device_events
        assert {e["tid"] for e in device_events} == {0, 1}

    def test_validate_rejects_missing_and_mistyped(self, fitted):
        good = fitted.report_.as_dict()
        bad = dict(good)
        del bad["counters"]
        with pytest.raises(TelemetryError):
            validate_report(bad)
        bad = dict(good)
        bad["schema_version"] = REPORT_SCHEMA_VERSION + 1
        with pytest.raises(TelemetryError):
            validate_report(bad)
        bad = dict(good)
        bad["wall_seconds"] = "fast"
        with pytest.raises(TelemetryError):
            validate_report(bad)
        with pytest.raises(TelemetryError):
            validate_report("{not json")

    def test_build_report_without_result(self):
        with fit_scope("bare.fit") as ctx:
            ctx.inc("cg_solves")
        report = build_report(
            ctx, estimator="X", backend="numpy", num_samples=1, num_features=1
        )
        assert report.solver["status"] == "NONE"
        assert report.iterations == 0
        validate_report(report.as_dict())


class TestConcurrentAttribution:
    """Acceptance criterion: two concurrent fits on a shared thread pool
    produce disjoint, internally-consistent reports whose per-phase
    seconds account for the wall total to within 5%."""

    @staticmethod
    def _concurrent_fits():
        X1, y1 = make_planes(512, 16, rng=0)
        X2, y2 = make_planes(384, 24, rng=1)
        clf1 = LSSVC(kernel="rbf", C=1.0, gamma=0.1)
        clf2 = LSSVC(kernel="linear", C=1.0)
        reset_root_context()
        jobs = [(clf1, X1, y1), (clf2, X2, y2)]
        with ThreadPool(2) as pool:
            pool.map_tasks(lambda job: job[0].fit(job[1], job[2]), jobs)
        return clf1, clf2

    def test_concurrent_fits_disjoint_reports(self):
        clf1, clf2 = self._concurrent_fits()
        r1, r2 = clf1.report_, clf2.report_
        assert r1.num_samples == 512 and r2.num_samples == 384

        for report, clf in ((r1, clf1), (r2, clf2)):
            # Each report counts exactly its own solve...
            assert report.counters["cg_solves"] == 1
            assert report.counters["cg_iterations"] == clf.iterations_
            # ...and its span tree contains exactly its own iterations.
            names = span_names(report.spans)
            assert names.count("cg_solve") == 1
            assert names.count("iteration") == clf.iterations_
            # The phase spans follow one another inside the fit's span,
            # and the phase seconds never exceed the wall total.
            root = report.spans
            end = root["ts"] + root["dur"]
            phases = sorted(root["children"], key=lambda span: span["ts"])
            assert phases
            for prev, span in zip(phases, phases[1:]):
                assert prev["ts"] + prev["dur"] <= span["ts"]
            for span in phases:
                assert root["ts"] <= span["ts"] and span["ts"] + span["dur"] <= end
            wall = report.wall_seconds
            parts = sum(v for k, v in report.phases.items() if k != "total")
            assert wall > 0
            assert parts <= wall + 1e-6

        # The fits were attributed to different threads...
        assert r1.spans["attrs"]["thread"] != r2.spans["attrs"]["thread"]
        # ...while the process root still aggregates both.
        root = root_context().solver_counters_dict()
        assert root["cg_solves"] == 2
        assert (
            root["cg_iterations"]
            == r1.counters["cg_iterations"] + r2.counters["cg_iterations"]
        )

    @pytest.mark.slow
    def test_concurrent_fits_phases_cover_the_wall(self):
        # The same fits on wall-clock seconds, which machine load can blur.
        for clf in self._concurrent_fits():
            wall = clf.report_.wall_seconds
            parts = sum(v for k, v in clf.report_.phases.items() if k != "total")
            # Per-phase seconds account for the wall total to within 5%.
            assert parts >= 0.95 * wall - 1e-3

    def test_concurrent_device_fits_keep_device_events_apart(self, planes_small):
        X, y = planes_small
        clfs = [
            LSSVC(kernel="linear", C=1.0, backend="cuda", n_devices=1),
            LSSVC(kernel="linear", C=1.0, backend="opencl", n_devices=2),
        ]
        with ThreadPool(2) as pool:
            pool.map_tasks(lambda c: c.fit(X, y), clfs)
        r_cuda, r_ocl = clfs[0].report_, clfs[1].report_
        assert len(r_cuda.devices) == 1
        assert len(r_ocl.devices) == 2
        assert r_cuda.device_event_count > 0
        assert r_ocl.device_event_count > 0
        # Device ids seen by each fit match its own device set.
        ids_cuda = {e["device_id"] for e in r_cuda.device_events}
        ids_ocl = {e["device_id"] for e in r_ocl.device_events}
        assert ids_cuda == {0}
        assert ids_ocl == {0, 1}
