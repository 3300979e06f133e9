"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import serving  # noqa: E402
import stats  # noqa: E402
from outcome import Outcome  # noqa: E402


class TestPercentile:
    def test_refuses_p99_below_1000_samples(self):
        value, n = stats.percentile(list(range(999)), 99)
        assert value is None and n == 999

    def test_reports_p99_at_1000_samples(self):
        value, n = stats.percentile([float(i) for i in range(1, 1001)], 99)
        assert n == 1000
        assert value == 990.0  # ten samples lie beyond it

    def test_p50_needs_twenty_samples(self):
        assert stats.percentile(list(range(19)), 50) == (None, 19)
        value, n = stats.percentile(list(range(20)), 50)
        assert n == 20 and value == 9

    def test_empty(self):
        assert stats.percentile([], 50) == (None, 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            stats.percentile([1.0] * 100, 101)


class TestCapacity:
    TABLE = [
        dict(rate=100, p99_ms=6.0, backlog=False),
        dict(rate=200, p99_ms=9.0, backlog=False),
        dict(rate=400, p99_ms=40.0, backlog=False),
        dict(rate=800, p99_ms=540.0, backlog=True),
    ]

    def test_highest_step_within_limit(self):
        assert stats.capacity(self.TABLE, 50.0)["rate"] == 400
        assert stats.capacity(self.TABLE, 20.0)["rate"] == 200

    def test_growing_backlog_fails_a_step_within_the_limit(self):
        assert stats.capacity(self.TABLE, 1000.0)["rate"] == 400

    def test_search_stops_at_first_failing_step(self):
        table = [dict(self.TABLE[0]), dict(self.TABLE[1], p99_ms=80.0), dict(self.TABLE[2], p99_ms=30.0)]
        assert stats.capacity(table, 50.0)["rate"] == 100

    def test_unsupported_p99_or_failures_fail_the_step(self):
        assert stats.capacity([dict(self.TABLE[0], p99_ms=None)], 50.0) is None
        assert stats.capacity([dict(self.TABLE[0], failed=1)], 50.0) is None

    def test_order_of_the_table_does_not_matter(self):
        assert stats.capacity(list(reversed(self.TABLE)), 50.0)["rate"] == 400


class TestResidual:
    @staticmethod
    def _solve(X, y, gamma, C):
        m = X.shape[0]
        A = np.zeros((m + 1, m + 1))
        A[0, 1:] = A[1:, 0] = 1.0
        A[1:, 1:] = stats.rbf_block(X, X, gamma) + np.eye(m) / C
        sol = np.linalg.solve(A, np.concatenate([[0.0], y]))
        return sol[1:], sol[0]

    def test_exact_solution_passes_and_perturbed_alpha_is_flagged(self):
        X, y = inputs.planes(7, 1, 120, 3)
        alpha, bias = self._solve(X, y, 0.5, 1.0)
        exact = stats.lssvm_residual(X, y, alpha, bias, 0.5, 1.0, block=32)
        assert exact < 1e-10
        bad = alpha.copy()
        bad[5] += 0.05
        assert stats.lssvm_residual(X, y, bad, bias, 0.5, 1.0, block=32) > 2e-3

    def test_blocking_does_not_change_the_residual(self):
        X, y = inputs.planes(3, 1, 50, 2)
        alpha = np.random.default_rng(0).standard_normal(50)
        a = stats.lssvm_residual(X, y, alpha, 0.3, 1.0, 2.0, block=7)
        b = stats.lssvm_residual(X, y, alpha, 0.3, 1.0, 2.0, block=1024)
        assert a == pytest.approx(b, rel=1e-12)


class _FakeModel:
    """Offline model stand-in: value of a row is its first feature."""

    labels = (1.0, -1.0)

    def decision_function(self, X):
        return np.asarray(X)[:, 0].astype(float)


class _StallingHandler(BaseHTTPRequestHandler):
    """Answers /predict like plssvm-serve; the first two requests stall."""

    protocol_version = "HTTP/1.1"
    stall_s = 0.15
    calls = 0
    lock = threading.Lock()

    def log_message(self, *args):
        pass

    def do_POST(self):
        with self.lock:
            type(self).calls += 1
            call = self.calls
        row = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["row"]
        if call <= 2:
            time.sleep(self.stall_s)
        body = json.dumps(
            {
                "decision_values": [row[0]],
                "predictions": [1.0 if row[0] >= 0 else -1.0],
                "seconds": 0.0,
                "batch": {"batch_id": call, "batch_rows": 1},
            }
        ).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture()
def stalling_server():
    _StallingHandler.calls = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _prep(rows=8):
    pool = np.arange(1.0, rows + 1.0)[:, None] * np.array([[1.0, 0.0]])
    bodies = [serving._request(json.dumps({"row": r.tolist()}).encode()) for r in pool]
    return dict(offline=_FakeModel(), pool=pool, bodies=bodies)


def _closed_port() -> int:
    """A local port that nothing listens on."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestOpenLoop:
    def test_latency_counts_from_due_time_and_lateness_is_reported(self, stalling_server):
        # Two connections; the first two requests stall for 150 ms, so
        # both workers are busy while requests keep falling due 5 ms
        # apart: those are sent late and their latency counts the wait.
        rng = np.random.default_rng(0)
        results = serving.open_loop(stalling_server, _prep(), 200.0, 20, rng)
        assert all(r["ok"] for r in results)
        late = [r["sent"] - r["due"] for r in results]
        assert max(late) > 0.02
        for r in results:
            assert r["sent"] >= r["due"] - 1e-3
            assert r["done"] - r["due"] >= r["done"] - r["sent"] - 1e-3
        s = serving.step_summary(200.0, results)
        assert s["n"] == 20 and s["failed"] == 0
        # Too few samples for p99; p50 is measured from the due time.
        assert s["p99_ms"] is None
        lat = sorted((r["done"] - r["due"]) * 1e3 for r in results)
        assert s["p50_ms"] == lat[9]

    def test_refused_requests_are_counted_as_failed(self):
        results = serving.open_loop(_closed_port(), _prep(), 200.0, 20, np.random.default_rng(0))
        assert len(results) == 20 and not any(r["ok"] for r in results)
        assert serving.step_summary(200.0, results)["failed"] == 20

    def test_step_summary_counts_failures_as_missing_every_limit(self):
        base = dict(due=0.0, sent=0.0, done=0.004, seconds=0.002)
        results = [dict(base, ok=True) for _ in range(989)] + [dict(base, ok=False)] * 11
        s = serving.step_summary(100.0, results)
        assert s["failed"] == 11
        assert s["p99_ms"] == float("inf")
        assert s["late_p99_ms"] == 0.0


class TestClosedLoop:
    def test_every_attempt_is_counted_when_no_server_answers(self):
        # Every connect is refused, and each refused attempt is recorded
        # as a failed request.
        keep = serving.closed_loop(_closed_port(), _prep(), 0.2)
        assert keep["sent"] >= 2 and keep["ok"] == 0
        assert keep["aborted"] == 0 and keep["rps"] == 0.0

    def test_keep_alive_responses_pass(self, stalling_server):
        keep = serving.closed_loop(stalling_server, _prep(), 0.5)
        assert keep["sent"] == keep["ok"] > 2 and keep["aborted"] == 0

    def test_dead_server_or_aborted_client_fails_the_run(self):
        out = Outcome()
        serving._count_keepalive(dict(sent=10, ok=10, aborted=1), True, out)
        assert (out.attempted, out.failed) == (11, 1) and not out.correct
        out = Outcome()
        serving._count_keepalive(dict(sent=10, ok=10, aborted=0), False, out)
        assert out.failed == 0 and not out.correct


class TestOutcome:
    def test_missing_or_infinite_metrics_are_unmeasured(self):
        out = Outcome()
        out.metric("a", 1.0, "s")
        out.metric("b", float("inf"), "ms")
        assert out.unmeasured(["a", "b", "c"]) == ["b", "c"]
        assert out.result(["a"])["metrics"] == {"a": {"value": 1.0, "unit": "s"}}


class TestVerify:
    def _response(self, k, value, batch, rows):
        return dict(k=k, status=200, ok=False, values=[value], labels=[1.0 if value >= 0 else -1.0], batch=batch, batch_rows=rows)

    def test_exact_values_pass_in_either_admission_order(self):
        prep = _prep()
        rs = [self._response(3, 4.0, 7, 2), self._response(1, 2.0, 7, 2), self._response(0, 1.0, 8, 1)]
        serving.verify(rs, prep)
        assert all(r["ok"] for r in rs)

    def test_one_ulp_off_fails(self):
        prep = _prep()
        rs = [self._response(2, float(np.nextafter(3.0, 4.0)), 1, 1)]
        serving.verify(rs, prep)
        assert not rs[0]["ok"]

    def test_batch_with_rows_this_client_did_not_send_fails(self):
        prep = _prep()
        rs = [self._response(2, 3.0, 1, 2)]
        serving.verify(rs, prep)
        assert not rs[0]["ok"]

    def test_malformed_200_fails(self):
        r = serving._parse(0, 200, b'{"decision_values": [1.0]}')
        serving.verify([r], _prep())
        assert not r["ok"] and r["status"] != 200
