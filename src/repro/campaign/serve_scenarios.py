"""Built-in serving benchmark scenarios (the ``serve`` campaign).

Closed-loop, in-process load tests against the ``repro.serve`` stack:
``warm_engine`` (cold model calls vs the warm engine), ``batching``
(client concurrency x batch policy through one
:class:`~repro.serve.MicroBatcher`), and ``compact_serving`` (exact RBF
vs a compact RFF feature-map artifact, plus the bit-identity check the
CI gate keys on).

Training the RBF model dominates quick-mode wall-clock, and
``warm_engine`` / ``batching`` exercise the *same* model, so trained
models are memoized per ``(points, features, seed)`` for the life of the
process — campaign cells stay independent in what they measure while
sharing setup cost.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..core.lssvm import LSSVC
from ..data.synthetic import make_planes
from ..serve import BatchPolicy, MicroBatcher, PredictionEngine
from ..telemetry import TelemetryContext, activate
from .gate import GateRule
from .scenarios import register_scenario

__all__ = ["warm_engine", "batching", "compact_serving"]

_MODEL_CACHE: dict = {}
_MODEL_CACHE_LOCK = threading.Lock()


def _trained_model(points: int, features: int, seed: int):
    """The shared RBF model for the serving scenarios, trained once."""
    key = (points, features, seed)
    with _MODEL_CACHE_LOCK:
        hit = _MODEL_CACHE.get(key)
    if hit is not None:
        return hit
    X, y = make_planes(points, features, rng=seed)
    clf = LSSVC(kernel="rbf", C=10.0, gamma=1.0 / features).fit(X, y)
    with _MODEL_CACHE_LOCK:
        return _MODEL_CACHE.setdefault(key, (clf.model_, X))


def warm_engine(points: int, features: int, seed: int, requests: int) -> dict:
    """Cold per-call model prediction vs the warm engine, single rows."""
    model, X = _trained_model(points, features, seed)
    rows = X[np.arange(requests) % X.shape[0]]

    start = time.perf_counter()
    for i in range(requests):
        model.decision_function(rows[i])
    cold_seconds = time.perf_counter() - start

    engine = PredictionEngine(model)
    engine.decision_function(rows[0])  # touch everything once
    start = time.perf_counter()
    for i in range(requests):
        engine.decision_function(rows[i])
    warm_seconds = time.perf_counter() - start

    return {
        "requests": requests,
        "support_vectors": model.num_support_vectors,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / max(warm_seconds, 1e-9),
    }


def _closed_loop(
    engine,
    X,
    *,
    clients: int,
    requests_per_client: int,
    policy: BatchPolicy,
) -> dict:
    """K closed-loop clients, each firing single-row requests back to back."""
    ctx = TelemetryContext(f"bench-serve-c{clients}")
    latencies = [[] for _ in range(clients)]
    errors = []
    gate = threading.Barrier(clients + 1)

    def client(k):
        rng = np.random.default_rng(k)
        idx = rng.integers(0, X.shape[0], size=requests_per_client)
        try:
            gate.wait(timeout=30.0)
            with activate(ctx):
                for i in idx:
                    t0 = time.perf_counter()
                    batcher.submit(X[i], timeout=60.0)
                    latencies[k].append(time.perf_counter() - t0)
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    with MicroBatcher(engine, policy=policy, context=ctx) as batcher:
        threads = [
            threading.Thread(target=client, args=(k,), daemon=True)
            for k in range(clients)
        ]
        for t in threads:
            t.start()
        gate.wait(timeout=30.0)
        start = time.perf_counter()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        batches = batcher.batches
    if errors:
        raise errors[0]

    lat = np.array([v for per_client in latencies for v in per_client])
    total = clients * requests_per_client
    return {
        "clients": clients,
        "requests": total,
        "seconds": elapsed,
        "throughput_rps": total / elapsed,
        "latency_p50_ms": float(np.percentile(lat, 50) * 1e3),
        "latency_p99_ms": float(np.percentile(lat, 99) * 1e3),
        "latency_mean_ms": float(lat.mean() * 1e3),
        "batches": batches,
        "requests_per_batch": total / max(batches, 1),
        "tile_sweeps": ctx.metrics.value("tile_sweeps"),
        "batched_requests": ctx.metrics.value("serve_batched_requests"),
    }


def batching(
    points: int,
    features: int,
    seed: int,
    concurrency: list,
    requests_per_client: int,
    max_batch_rows: int,
    max_wait_ms: float,
) -> dict:
    """Batching off vs on across a client-concurrency sweep."""
    model, X = _trained_model(points, features, seed)
    engine = PredictionEngine(model)
    engine.decision_function(X[:1])  # warm once, outside the clock
    grid = {}
    for clients in concurrency:
        off = _closed_loop(
            engine,
            X,
            clients=clients,
            requests_per_client=requests_per_client,
            policy=BatchPolicy(max_batch_rows=1, max_wait_ms=0.0,
                               max_queue_rows=max(4096, clients * 4)),
        )
        on = _closed_loop(
            engine,
            X,
            clients=clients,
            requests_per_client=requests_per_client,
            policy=BatchPolicy(max_batch_rows=max_batch_rows,
                               max_wait_ms=max_wait_ms,
                               max_queue_rows=max(4096, clients * 4)),
        )
        grid[str(clients)] = {
            "unbatched": off,
            "batched": on,
            "throughput_gain": on["throughput_rps"] / off["throughput_rps"],
            "p99_ratio": on["latency_p99_ms"] / max(off["latency_p99_ms"], 1e-9),
        }
    return {
        "policy": {"max_batch_rows": max_batch_rows, "max_wait_ms": max_wait_ms},
        "requests_per_client": requests_per_client,
        "grid": grid,
        # The gated headline: at the sweet-spot concurrency, coalescing
        # must still beat one-row-per-batch serving.
        "max_throughput_gain": max(
            cell["throughput_gain"] for cell in grid.values()
        ),
    }


def _single_row_latencies(engine, rows) -> np.ndarray:
    engine.decision_function(rows[0])  # touch everything once
    lat = np.empty(len(rows))
    for i, row in enumerate(rows):
        t0 = time.perf_counter()
        engine.decision_function(row)
        lat[i] = time.perf_counter() - t0
    return lat


def compact_serving(points: int, features: int, seed: int, requests: int) -> dict:
    """Exact RBF serving vs a compact RFF feature-map model."""
    X, y = make_planes(points, features, rng=seed)
    hyper = dict(kernel="rbf", C=10.0, gamma=1.0 / features)
    exact = LSSVC(**hyper).fit(X, y)
    compact = LSSVC(solver="rff", solver_seed=seed, **hyper).fit(X, y)
    rows = [X[i % X.shape[0]] for i in range(requests)]

    exact_engine = PredictionEngine(exact.model_)
    compact_engine = PredictionEngine(compact.model_)
    lat_exact = _single_row_latencies(exact_engine, rows)
    lat_compact = _single_row_latencies(compact_engine, rows)

    # plssvm-predict and plssvm-serve both route through the engine; the
    # claim worth checking is that the engine's primal fast path is
    # bit-identical to the model's own evaluation of the same artifact.
    engine_preds = compact_engine.predict(X)
    model_preds = compact.model_.predict(X)
    exact_bytes = (exact.model_.support_vectors.nbytes
                   + exact.model_.alpha.nbytes)
    return {
        "requests": requests,
        "support_vectors": exact.model_.num_support_vectors,
        "compact_rank": compact.model_.rank,
        "exact_p50_ms": float(np.percentile(lat_exact, 50) * 1e3),
        "exact_p99_ms": float(np.percentile(lat_exact, 99) * 1e3),
        "compact_p50_ms": float(np.percentile(lat_compact, 50) * 1e3),
        "compact_p99_ms": float(np.percentile(lat_compact, 99) * 1e3),
        "p50_speedup": float(np.percentile(lat_exact, 50)
                             / max(np.percentile(lat_compact, 50), 1e-9)),
        "exact_model_bytes": int(exact_bytes),
        "compact_model_bytes": int(compact.model_.nbytes),
        "exact_accuracy": float(exact.score(X, y)),
        "compact_accuracy": float(compact.score(X, y)),
        "bit_identical_serve": bool(np.array_equal(engine_preds, model_preds)),
    }


def _register_builtin_serve_scenarios() -> None:
    common = {"points": 4000, "features": 16, "seed": 7}
    register_scenario(
        "warm_engine",
        warm_engine,
        defaults={**common, "requests": 200},
        gate=(
            GateRule(
                "warm_speedup", "speedup", "higher", max_regression=0.7,
                floor=1.0,
            ),
        ),
        replace=True,
    )
    register_scenario(
        "batching",
        batching,
        defaults={
            **common,
            "concurrency": [1, 8, 32],
            "requests_per_client": 50,
            "max_batch_rows": 64,
            "max_wait_ms": BatchPolicy().max_wait_ms,
        },
        gate=(
            GateRule(
                "max_throughput_gain",
                "max_throughput_gain",
                "higher",
                max_regression=0.7,
            ),
        ),
        replace=True,
    )
    register_scenario(
        "compact_serving",
        compact_serving,
        defaults={**common, "requests": 200},
        gate=(
            GateRule(
                "bit_identical_serve",
                "bit_identical_serve",
                "equal",
                expect=True,
            ),
            GateRule(
                "compact_p50_speedup", "p50_speedup", "higher",
                max_regression=0.8,
            ),
        ),
        replace=True,
    )


_register_builtin_serve_scenarios()
