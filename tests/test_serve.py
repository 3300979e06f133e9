"""Tests for ``repro.serve``: engine, micro-batcher, registry, HTTP server.

The load-bearing acceptance checks live here:

* batched concurrent predictions are bit-identical to one offline
  ``model.predict`` over the same stacked rows;
* K concurrent single-row requests cost at most ceil(K / max_batch_rows)
  tile sweeps (verified through telemetry counters);
* the registry never serves a stale generation after a hot-swap reload;
* ``/healthz``, ``/models``, and ``/metrics`` respond with
  schema-validated JSON.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.lssvm import LSSVC
from repro.core.multiclass import OneVsAllLSSVC
from repro.exceptions import (
    DataError,
    ModelNotFoundError,
    ServerOverloadedError,
    TelemetryError,
)
from repro.serve import (
    BatchPolicy,
    MicroBatcher,
    ModelRegistry,
    PLSSVMServer,
    PredictionEngine,
    ServingApp,
    build_serving_report,
    validate_serving_report,
)
from repro.telemetry import TelemetryContext, activate


@pytest.fixture(scope="module", params=["linear", "rbf"])
def fitted_model(request, planes_small):
    X, y = planes_small
    kw = {"gamma": 0.25} if request.param == "rbf" else {}
    clf = LSSVC(kernel=request.param, C=10.0, **kw).fit(X, y)
    return clf.model_


@pytest.fixture
def ctx():
    """A fresh telemetry context activated for the test body."""
    context = TelemetryContext("test-serve")
    with activate(context):
        yield context


class TestPredictionEngine:
    def test_bit_identical_to_model(self, fitted_model, planes_small):
        X, _ = planes_small
        engine = PredictionEngine(fitted_model)
        assert np.array_equal(
            engine.decision_function(X), fitted_model.decision_function(X)
        )
        assert np.array_equal(engine.predict(X), fitted_model.predict(X))

    def test_single_row_input(self, fitted_model, planes_small):
        X, _ = planes_small
        engine = PredictionEngine(fitted_model)
        f_row = engine.decision_function(X[0])
        assert f_row.shape == (1,)
        assert f_row[0] == fitted_model.decision_function(X[:1])[0]

    def test_feature_mismatch_raises(self, fitted_model):
        engine = PredictionEngine(fitted_model)
        with pytest.raises(DataError):
            engine.predict(np.ones((2, fitted_model.num_features + 3)))

    def test_nbytes_and_describe(self, fitted_model):
        engine = PredictionEngine(fitted_model, name="m", generation=7)
        assert engine.nbytes > 0
        info = engine.describe()
        assert info["name"] == "m"
        assert info["generation"] == 7
        assert info["num_support_vectors"] == fitted_model.num_support_vectors

    def test_thread_safe_concurrent_predict(self, fitted_model, planes_small):
        X, _ = planes_small
        engine = PredictionEngine(fitted_model)
        reference = fitted_model.decision_function(X)
        results = [None] * 8
        errors = []

        def work(i):
            try:
                results[i] = engine.decision_function(X)
            except BaseException as exc:  # pragma: no cover - debug aid
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for r in results:
            assert np.array_equal(r, reference)


class TestBatchPolicy:
    def test_defaults_valid(self):
        policy = BatchPolicy()
        assert policy.max_batch_rows <= policy.max_queue_rows

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_rows": 0},
            {"max_wait_ms": -1.0},
            {"max_batch_rows": 64, "max_queue_rows": 32},
        ],
    )
    def test_invalid_policy_raises(self, kwargs):
        with pytest.raises(DataError):
            BatchPolicy(**kwargs)


class TestMicroBatcher:
    def test_concurrent_bit_identity_and_sweep_budget(
        self, fitted_model, planes_small, ctx
    ):
        """The headline acceptance test: K concurrent single-row requests
        are answered bit-identically to one stacked offline predict while
        costing at most ceil(K / max_batch_rows) tile sweeps."""
        X, _ = planes_small
        K, batch_rows = 48, 16
        engine = PredictionEngine(fitted_model)
        policy = BatchPolicy(max_batch_rows=batch_rows, max_wait_ms=250.0)
        reference_labels = fitted_model.predict(X[:K])
        reference_values = fitted_model.decision_function(X[:K])

        sweeps_before = ctx.metrics.value("tile_sweeps")
        labels = [None] * K
        values = [None] * K
        errors = []
        gate = threading.Barrier(K)

        def work(i):
            try:
                gate.wait(timeout=10.0)
                with activate(ctx):
                    labels[i], values[i] = batcher.submit(X[i], timeout=10.0)
            except BaseException as exc:
                errors.append(exc)

        with MicroBatcher(engine, policy=policy, context=ctx) as batcher:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(K)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        for i in range(K):
            assert labels[i].shape == (1,)
            assert labels[i][0] == reference_labels[i]
            assert values[i][0] == reference_values[i]
        if fitted_model.param.kernel.name == "RBF":
            sweeps = ctx.metrics.value("tile_sweeps") - sweeps_before
            assert 0 < sweeps <= -(-K // batch_rows)
        assert batcher.batches <= -(-K // batch_rows)
        assert ctx.metrics.value("serve_requests") == K
        assert ctx.metrics.value("serve_batched_requests") > 0

    def test_max_wait_flushes_partial_batch(self, fitted_model, ctx):
        """A lone request must not wait for a full batch: the deadline
        trigger flushes it after max_wait_ms."""
        engine = PredictionEngine(fitted_model)
        policy = BatchPolicy(max_batch_rows=1024, max_wait_ms=10.0)
        row = fitted_model.support_vectors[0]
        with MicroBatcher(engine, policy=policy, context=ctx) as batcher:
            labels, values = batcher.submit(row, timeout=5.0)
        assert labels.shape == values.shape == (1,)
        assert labels[0] == fitted_model.predict(row[None, :])[0]

    def test_queue_full_raises_overloaded(self, fitted_model, ctx):
        engine = PredictionEngine(fitted_model)
        policy = BatchPolicy(max_batch_rows=4, max_wait_ms=50.0, max_queue_rows=4)
        batcher = MicroBatcher(engine, policy=policy, context=ctx)
        try:
            oversized = np.tile(fitted_model.support_vectors[0], (5, 1))
            with pytest.raises(ServerOverloadedError) as excinfo:
                batcher.submit(oversized)
            assert excinfo.value.max_queue_rows == 4
            assert ctx.metrics.value("serve_rejected") == 1
        finally:
            batcher.close()

    def test_block_submit_matches_offline(self, fitted_model, planes_small, ctx):
        X, _ = planes_small
        engine = PredictionEngine(fitted_model)
        with MicroBatcher(engine, context=ctx) as batcher:
            labels, values = batcher.submit(X[:20], timeout=10.0)
        assert np.array_equal(labels, fitted_model.predict(X[:20]))
        assert np.array_equal(values, fitted_model.decision_function(X[:20]))

    def test_closed_batcher_rejects(self, fitted_model, ctx):
        engine = PredictionEngine(fitted_model)
        batcher = MicroBatcher(engine, context=ctx)
        batcher.close()
        from repro.exceptions import ServingError

        with pytest.raises(ServingError):
            batcher.submit(fitted_model.support_vectors[0])

    def test_evaluation_error_reaches_submitter(self, fitted_model, ctx):
        engine = PredictionEngine(fitted_model)
        with MicroBatcher(engine, context=ctx) as batcher:
            with pytest.raises(DataError):
                batcher.submit(
                    np.ones((2, fitted_model.num_features + 1)), timeout=5.0
                )


class TestModelRegistry:
    def _model(self, planes, kernel="rbf", C=10.0):
        X, y = planes
        return LSSVC(kernel=kernel, C=C, gamma=0.25).fit(X, y).model_

    def test_register_get_roundtrip(self, planes_small, tmp_path):
        model = self._model(planes_small)
        path = tmp_path / "m.model"
        model.save(path)
        registry = ModelRegistry()
        gen = registry.register("m", path)
        assert gen == 0
        engine = registry.get("m")
        assert engine.generation == 0
        assert registry.get("m") is engine  # warm hit
        assert registry.stats()["hits"] == 1

    def test_unknown_model_raises(self):
        registry = ModelRegistry()
        with pytest.raises(ModelNotFoundError):
            registry.get("nope")

    def test_hot_swap_never_serves_stale_generation(self, planes_small):
        X, y = planes_small
        registry = ModelRegistry()
        registry.register("m", self._model(planes_small, C=1.0))
        first = registry.get("m")
        assert first.generation == 0
        gen = registry.reload("m", self._model(planes_small, C=100.0))
        assert gen == 1
        second = registry.get("m")
        assert second is not first
        assert second.generation == 1
        # The C=100 refit has different alphas; the swap must be visible.
        assert not np.array_equal(
            first.decision_function(X[:5]), second.decision_function(X[:5])
        )
        # In-flight use of the old engine object still works (immutable).
        assert first.decision_function(X[:3]).shape == (3,)

    def test_byte_budget_evicts_lru(self, planes_small):
        model = self._model(planes_small)
        probe = PredictionEngine(model)
        # Budget fits exactly two warm engines of this size.
        budget_mb = (2 * probe.nbytes + 1024) / (1024 * 1024)
        registry = ModelRegistry(budget_mb=budget_mb)
        for name in ("a", "b", "c"):
            registry.register(name, model)
            registry.get(name)
        assert registry.warm_models == ["b", "c"]
        stats = registry.stats()
        assert stats["evictions"] == 1
        assert stats["warm_bytes"] <= registry.budget_bytes
        # Touching "b" then warming a fourth engine must evict "c".
        registry.get("b")
        registry.register("d", model)
        registry.get("d")
        assert registry.warm_models == ["b", "d"]

    def test_oversized_engine_served_cold(self, planes_small):
        model = self._model(planes_small)
        registry = ModelRegistry(budget_mb=1e-6)
        registry.register("big", model)
        engine = registry.get("big")
        assert engine.num_support_vectors == model.num_support_vectors
        assert registry.warm_models == []
        assert registry.stats()["oversized"] == 1

    def test_unregister(self, planes_small):
        registry = ModelRegistry()
        registry.register("m", self._model(planes_small))
        registry.get("m")
        registry.unregister("m")
        assert "m" not in registry
        with pytest.raises(ModelNotFoundError):
            registry.get("m")


class TestServingReport:
    def test_report_validates(self, fitted_model, ctx):
        engine = PredictionEngine(fitted_model)
        with MicroBatcher(engine, context=ctx) as batcher:
            batcher.submit(fitted_model.support_vectors[:4], timeout=10.0)
        registry = ModelRegistry()
        registry.register("m", fitted_model)
        report = build_serving_report(
            ctx, server="test", policy=BatchPolicy(), registry=registry
        )
        payload = validate_serving_report(report.as_dict())
        assert payload["counters"]["serve_requests"] == 1
        assert payload["counters"]["serve_rows"] == 4
        assert payload["latency"]["serve_wait_seconds"]["count"] == 1
        # JSON round trip validates too.
        validate_serving_report(report.to_json())

    def test_validation_catches_drift(self, ctx):
        report = build_serving_report(ctx, server="test", policy=BatchPolicy())
        good = report.as_dict()
        for mutilate in (
            lambda d: d.pop("counters"),
            lambda d: d.pop("queue"),
            lambda d: d["counters"].pop("serve_requests"),
            lambda d: d["latency"].pop("sweep_seconds"),
            lambda d: d.update(schema_version=99),
            lambda d: d["models"].append({"name": "x"}),
        ):
            bad = json.loads(json.dumps(good, default=str))
            mutilate(bad)
            with pytest.raises(TelemetryError):
                validate_serving_report(bad)
        with pytest.raises(TelemetryError):
            validate_serving_report("not json{")


@pytest.fixture
def http_server(planes_small):
    X, y = planes_small
    model = LSSVC(kernel="rbf", C=10.0, gamma=0.25).fit(X, y).model_
    registry = ModelRegistry()
    registry.register("planes", model)
    app = ServingApp(registry, policy=BatchPolicy(max_batch_rows=32, max_wait_ms=5.0))
    server = PLSSVMServer(("127.0.0.1", 0), app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield base, model, X
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def _post(url, payload):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=10.0) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


class TestHTTPServer:
    def test_healthz(self, http_server):
        base, _, _ = http_server
        status, payload = _get(f"{base}/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["models"] == 1
        assert payload["uptime_seconds"] >= 0

    def test_models_endpoint(self, http_server):
        base, model, _ = http_server
        status, payload = _get(f"{base}/models")
        assert status == 200
        (entry,) = payload["models"]
        assert entry["name"] == "planes"
        assert entry["generation"] == 0

    def test_predict_matches_offline(self, http_server):
        base, model, X = http_server
        rows = X[:5].tolist()
        status, payload = _post(f"{base}/predict", {"model": "planes", "rows": rows})
        assert status == 200
        assert payload["model"] == "planes"
        assert payload["generation"] == 0
        assert payload["rows"] == 5
        assert np.array_equal(payload["predictions"], model.predict(X[:5]))
        assert np.array_equal(
            payload["decision_values"], model.decision_function(X[:5])
        )
        assert payload["batch"]["batch_rows"] >= 5

    def test_predict_single_row_and_default_model(self, http_server):
        base, model, X = http_server
        status, payload = _post(f"{base}/predict", {"row": X[0].tolist()})
        assert status == 200
        assert payload["predictions"] == [model.predict(X[:1])[0]]

    def test_metrics_schema_valid(self, http_server):
        base, _, X = http_server
        _post(f"{base}/predict", {"rows": X[:3].tolist()})
        status, payload = _get(f"{base}/metrics")
        assert status == 200
        validate_serving_report(payload)
        assert payload["counters"]["serve_requests"] >= 1
        assert payload["counters"]["serve_rows"] >= 3
        assert payload["queue"]["max_queue_rows"] == 4096

    def test_unknown_model_404(self, http_server):
        base, _, X = http_server
        status, payload = _post(
            f"{base}/predict", {"model": "ghost", "rows": X[:1].tolist()}
        )
        assert status == 404
        assert "ghost" in payload["error"]

    def test_bad_rows_400(self, http_server):
        base, _, _ = http_server
        for body in ({}, {"rows": []}, {"rows": "nope"}, {"rows": [[1, "x"]]}):
            status, _ = _post(f"{base}/predict", body)
            assert status == 400

    def test_unknown_path_404(self, http_server):
        base, _, _ = http_server
        status, _ = _get(f"{base}/nope")
        assert status == 404


class TestRewiredPredictPaths:
    def test_model_decision_function_budget_chunks(self, planes_small):
        from repro.core.model import LSSVMModel
        from repro.core.tile_pipeline import TILE_BYTES, TilePipeline
        from repro.exceptions import InvalidParameterError
        from repro.parameter import Parameter

        X, y = planes_small
        model = LSSVC(kernel="rbf", C=10.0, gamma=0.25).fit(X, y).model_
        full = model.decision_function(X)
        # One-row query tiles: results must agree with the default tiling.
        param = model.param
        pipeline = TilePipeline(
            model.support_vectors, param.kernel, **param.kernel_kwargs(), tile_rows=1
        )
        chunked = pipeline.cross_sweep(X, model.alpha) + model.bias
        assert np.allclose(chunked, full)
        with pytest.raises(InvalidParameterError):
            TilePipeline(model.support_vectors, param.kernel, tile_rows=0)
        # A large support set shrinks the query tile under its TILE_BYTES budget.
        big = LSSVMModel(
            support_vectors=np.zeros((100_000, 1)),
            alpha=np.zeros(100_000),
            bias=0.0,
            param=Parameter(kernel="rbf", gamma=1.0),
        )
        rows = big.engine().pipeline.tile_rows
        assert 1 <= rows < 1024
        assert rows * big.num_support_vectors * 8 <= TILE_BYTES

    def test_model_engine_helper(self, planes_small):
        X, y = planes_small
        model = LSSVC(kernel="rbf", C=10.0, gamma=0.25).fit(X, y).model_
        engine = model.engine()
        assert isinstance(engine, PredictionEngine)
        assert np.array_equal(engine.predict(X), model.predict(X))

    def test_multiclass_shared_sweep_matches_per_machine(self, rng):
        from repro.telemetry import root_context

        X = rng.normal(size=(96, 5))
        y = rng.integers(0, 3, size=96).astype(float)
        for kernel in ("linear", "rbf"):
            clf = OneVsAllLSSVC(kernel=kernel, C=2.0, gamma=0.4).fit(X, y)
            before = root_context().metrics.value("tile_sweeps")
            fast = clf.decision_matrix(X[:17])
            sweeps = root_context().metrics.value("tile_sweeps") - before
            reference = np.column_stack(
                [np.atleast_1d(m.decision_function(X[:17])) for m in clf.machines_]
            )
            assert fast.shape == (17, 3)
            assert np.allclose(fast, reference)
            # All three classes in one cross sweep (none on the linear
            # kernel's primal path).
            assert sweeps == (1 if kernel == "rbf" else 0)
            # Predictions route through the same matrix.
            assert np.array_equal(
                clf.predict(X[:17]),
                clf.classes_[np.argmax(reference, axis=1)],
            )


class _StallingEngine:
    """Engine supplier whose first resolution blocks on an event.

    Holding the flush worker inside the supplier keeps later submissions
    *queued* — exactly the state the timeout-cancellation and batch-error
    regression tests need to pin down.
    """

    def __init__(self, engine, stall):
        self.engine = engine
        self.stall = stall
        self.entered = threading.Event()

    def __call__(self):
        self.entered.set()
        assert self.stall.wait(timeout=10.0)
        return self.engine


class TestServingRegressions:
    """Regression tests for the serving-path bug sweep.

    Each of these fails on the pre-fix code: the timed-out request used
    to stay queued (leaking admission budget), a cold registry load used
    to hold the global lock (blocking warm hits for other models), and a
    failed flush used to increment no counter at all.
    """

    def test_timed_out_submit_releases_queue_budget(self, fitted_model, ctx):
        """A timed-out submit must cancel its queued request: the rows
        stop counting against max_queue_rows and serve_timeouts ticks."""
        engine = PredictionEngine(fitted_model)
        stall = threading.Event()
        supplier = _StallingEngine(engine, stall)
        policy = BatchPolicy(max_batch_rows=1, max_wait_ms=0.0, max_queue_rows=1)
        row = fitted_model.support_vectors[0]
        results = {}
        errors = []

        def keeper(key):
            with activate(ctx):
                try:
                    results[key] = batcher.submit(row, timeout=10.0)
                except BaseException as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

        from repro.exceptions import ServingError

        batcher = MicroBatcher(supplier, policy=policy, context=ctx)
        try:
            # Request 1 is collected into a batch whose flush stalls in
            # the engine supplier; the queue (budget 1) is empty again.
            t1 = threading.Thread(target=keeper, args=("first",))
            t1.start()
            assert supplier.entered.wait(timeout=10.0)
            # Request 2 occupies the whole admission budget, then times
            # out while still queued (the worker is stalled).
            with pytest.raises(ServingError, match="timed out"):
                batcher.submit(row, timeout=0.05)
            assert ctx.metrics.value("serve_timeouts") == 1
            assert batcher.queued_rows == 0  # pre-fix: 1, leaked forever
            # The freed budget must admit request 3 (pre-fix this raised
            # ServerOverloadedError because the dead request pinned it).
            t3 = threading.Thread(target=keeper, args=("third",))
            t3.start()
            deadline = time.perf_counter() + 10.0
            while batcher.queued_rows == 0 and time.perf_counter() < deadline:
                time.sleep(0.005)
            assert batcher.queued_rows == 1
            stall.set()
            t1.join(timeout=10.0)
            t3.join(timeout=10.0)
            assert not errors
            labels, _ = results["third"]
            assert labels[0] == fitted_model.predict(row[None, :])[0]
        finally:
            stall.set()
            batcher.close()

    def test_cold_load_does_not_block_other_models(self, planes_small, tmp_path, monkeypatch):
        """A slow cold load must not serialize warm hits for other
        models behind the registry lock."""
        import repro.serve.registry as registry_mod

        X, y = planes_small
        model = LSSVC(kernel="rbf", C=10.0, gamma=0.25).fit(X, y).model_
        path = tmp_path / "slow.model"
        model.save(path)
        registry = ModelRegistry()
        registry.register("slow", path)
        registry.register("fast", model)
        registry.get("fast")  # warm it before the slow load starts

        loading = threading.Event()
        release = threading.Event()
        real_load = registry_mod.load_model

        def slow_load(source):
            loading.set()
            assert release.wait(timeout=10.0)
            return real_load(source)

        monkeypatch.setattr(registry_mod, "load_model", slow_load)
        slow_result = {}
        t = threading.Thread(
            target=lambda: slow_result.update(engine=registry.get("slow"))
        )
        t.start()
        try:
            assert loading.wait(timeout=10.0)
            # The cold load is parked inside slow_load; a warm hit for the
            # other model must complete while it is still in flight
            # (pre-fix get() held the global lock across the build, so
            # this probe would hang until the load finished).
            probe = {}
            p = threading.Thread(
                target=lambda: probe.update(engine=registry.get("fast"))
            )
            p.start()
            p.join(timeout=2.0)
            assert not p.is_alive(), "warm hit blocked behind the cold load"
            assert probe["engine"].generation == 0
            assert not release.is_set()
        finally:
            release.set()
            t.join(timeout=10.0)
        assert slow_result["engine"].name == "slow"

    def test_concurrent_misses_singleflight(self, planes_small, tmp_path, monkeypatch):
        """K concurrent first-time gets for one model load it exactly once."""
        import repro.serve.registry as registry_mod

        X, y = planes_small
        model = LSSVC(kernel="rbf", C=10.0, gamma=0.25).fit(X, y).model_
        path = tmp_path / "m.model"
        model.save(path)
        registry = ModelRegistry()
        registry.register("m", path)

        loads = []
        gate = threading.Barrier(6)
        real_load = registry_mod.load_model

        def counting_load(source):
            loads.append(source)
            time.sleep(0.05)  # widen the window the waiters pile into
            return real_load(source)

        monkeypatch.setattr(registry_mod, "load_model", counting_load)
        engines = [None] * 5
        errors = []

        def work(i):
            try:
                gate.wait(timeout=10.0)
                engines[i] = registry.get("m")
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(5)]
        for t in threads:
            t.start()
        gate.wait(timeout=10.0)
        for t in threads:
            t.join(timeout=10.0)
        assert not errors
        assert len(loads) == 1  # singleflight: one disk read for 5 misses
        assert all(e is engines[0] for e in engines)
        stats = registry.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 4

    def test_failed_load_propagates_to_waiters(self, tmp_path):
        """Every caller piled on a failing load sees the error; a later
        get retries instead of serving a poisoned ticket."""
        registry = ModelRegistry()
        registry.register("broken", tmp_path / "missing.model")
        for _ in range(2):  # the ticket must not stay poisoned
            with pytest.raises(Exception):
                registry.get("broken")

    def test_flush_failure_counts_serve_batch_errors(self, fitted_model, ctx):
        """An evaluation error inside a flush must be visible in the
        serve_batch_errors counter (and the ServingReport), not just in
        the submitter's exception."""
        engine = PredictionEngine(fitted_model)
        with MicroBatcher(engine, context=ctx) as batcher:
            with pytest.raises(DataError):
                batcher.submit(
                    np.ones((2, fitted_model.num_features + 1)), timeout=5.0
                )
        assert ctx.metrics.value("serve_batch_errors") == 1  # pre-fix: 0
        registry = ModelRegistry()
        report = build_serving_report(
            ctx, server="t", policy=BatchPolicy(), registry=registry
        )
        validate_serving_report(report.as_dict())
        assert report.as_dict()["counters"]["serve_batch_errors"] == 1
        assert report.as_dict()["counters"]["serve_timeouts"] == 0
