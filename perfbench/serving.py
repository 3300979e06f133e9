"""The ``serve_http`` workload: ``plssvm-serve`` under single-row traffic.

The server runs with its default flags in a child process and serves an
RBF model trained in set-up through plssvm-train's functions (read the
LIBSVM file, fit, save the model). The load comes from this process,
with at most two threads and at most two connections open at once:

(a) open loop: Poisson arrivals at a rate ladder that doubles from
    100 requests/s, one new connection per request (as curl and urllib
    clients do). Each request is timed from the moment it was due, so a
    stalled generator shows up as latency, and the generator's lateness
    is reported. Every step sends at least 1000 requests, so p99 rests on
    at least 1000 samples.
(b) closed loop: two keep-alive clients sending back to back. Every
    request on a kept-alive connection waits alike here, so this phase
    is reported as throughput and median latency.

The gated latency, ``predict_p50_ms``, comes from phase (b): phase (a)'s
p50 passes through five thread hand-offs per request, and its
non-waiting part grew two- to threefold whenever the VM's neighbours
took its CPUs, so it is printed (``serve_p50_ms``) but not gated; see
README.md.

Every 200 response's decision value must equal the offline
``decision_function`` of the served model file; any other outcome
counts as a failed request.

The served model's read, fit and save is timed as ``train_s``: it is
repeated while the server idles, before each ladder step and after the
keep-alive phase, and each fit is checked like a training workload's.
"""

from __future__ import annotations

import gc
import itertools
import json
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core import model as model_mod
from repro.core.lssvm import LSSVC
from repro.io import libsvm_format

import inputs
import stats
import training
from outcome import Outcome

#: Served model: an RBF LS-SVM on planes data, small enough to train in
#: set-up (explicit reduced system).
MODEL = dict(m=2048, d=16, C=1.0)
POOL_ROWS = 4096
LADDER = (100, 200, 400, 800)
#: Requests per ladder step: p99 needs 1000; the 100 requests/s step,
#: which gives serve_p50_ms and serve_p99_ms, gets more so that its
#: percentiles average over more of the machine's slow spells.
STEP_REQUESTS = 1000
FIRST_STEP_REQUESTS = 1800
#: p99 limit of a ladder step (ms), away from every step's p99 at the
#: commit that introduced it: about 10 ms at 100 and 200 requests/s,
#: 40 ms at 400 and over 500 ms, with a growing backlog, at 800. The
#: 400 requests/s step sits near the saturation of two connections, so
#: on a slower machine state it fails by backlog and capacity reads 200.
LIMIT_MS = 200.0
#: A step has a backlog when the median lateness of its last third
#: exceeds that of its first third by more than this (ms).
BACKLOG_MS = 5.0
KEEPALIVE_S = 3.0
#: Pause of a keep-alive client after a failed request, so a server that
#: is gone yields a bounded list of failed attempts, not a busy loop.
RETRY_S = 0.01
WARMUP_REQUESTS = 200
#: Timed read-fit-save repeats of the served model in each pause of the
#: load. One takes about 0.3 s, mostly pure-Python parsing and
#: formatting, whose speed drifts over a run; pauses spread across the
#: run let the median average over that drift.
TRAIN_PER_PAUSE = 5


def prepare(seed: int, work: Path) -> dict:
    """Train and save the served model; build the request pool."""
    work.mkdir(parents=True, exist_ok=True)
    X, y, pool, pool_y = inputs.train_test(seed, MODEL["m"], POOL_ROWS, MODEL["d"])
    train_file = work / "served.libsvm"
    inputs.write_libsvm(train_file, X, y)
    path = work / "served.model"
    train(train_file, path)
    bodies = [_request(json.dumps({"row": row.tolist()}).encode()) for row in pool]
    return dict(
        model=path, offline=model_mod.load_model(path), pool=pool, pool_y=pool_y, bodies=bodies,
        train_file=train_file, X=X, y=y, train_s=[],
    )


def train(train_file: Path, model_file: Path):
    """plssvm-train's path for the served model; returns it and the seconds taken."""
    t0 = time.perf_counter()
    X, y = libsvm_format.read_libsvm_file(train_file)
    clf = LSSVC(kernel="rbf", C=MODEL["C"]).fit(X, y)
    model_mod.save_model(clf.model_, model_file)
    return clf, time.perf_counter() - t0


def _train_pause(prep: dict, work: Path, out: Outcome) -> None:
    """``TRAIN_PER_PAUSE`` timed trainings of the served model, each checked.

    Each fit is one operation; the seconds of those that pass go to
    ``prep["train_s"]``. The generator's heap is collected and frozen
    again afterwards, so the fits' garbage cannot stall the next sends.
    """
    for _ in range(TRAIN_PER_PAUSE):
        gc.collect()
        out.attempted += 1
        try:
            clf, seconds = train(prep["train_file"], work / "retrained.model")
            ok, _ = training.check_fit(
                clf, prep["X"], prep["y"], MODEL["C"], clf.predict(prep["pool"]), prep["pool_y"], out
            )
        except Exception as exc:  # a failed fit counts; the run goes on
            ok = out.check("served-model fit completed", False, repr(exc))
        if ok:
            prep["train_s"].append(seconds)
        else:
            out.failed += 1
    gc.collect()
    gc.freeze()


class Server:
    """``plssvm-serve`` in a child process, started through the launcher."""

    def __init__(self, model: Path, trace_out: Optional[Path] = None) -> None:
        launcher = Path(__file__).with_name("serve_launcher.py")
        cmd = [sys.executable, str(launcher)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["--", str(model), "--port", "0"]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        self.port = self._await_port(60.0)

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "listening on http://" in line:
                    return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("plssvm-serve did not start")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def metrics(self) -> dict:
        with _connect(self.port) as sock:
            status, body = _exchange(sock, b"GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _request(body: bytes) -> bytes:
    return (
        b"POST /predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        b"Content-Type: application/json\r\nContent-Length: "
        + str(len(body)).encode()
        + b"\r\n\r\n"
        + body
    )


def _exchange(sock: socket.socket, request: bytes):
    """Send one request; return ``(status, body)`` of the response.

    The benchmark's only HTTP client: one ``sendall`` for the whole
    request and just enough parsing to find the status and the body's
    length. Against ``http.client`` it spends 0.41 instead of 0.69 ms of
    the generator's CPU per request and reads p50 at 100 requests/s
    0.29 ms lower (see README.md), time that is not the server's.
    """
    sock.sendall(request)
    buf = b""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed before the response headers")
        buf += chunk
    head, _, body = buf.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed inside the response body")
        body += chunk
    return status, body


def _connect(port: int) -> socket.socket:
    return socket.create_connection(("127.0.0.1", port), timeout=30)


def _parse(k: int, status: int, payload: bytes) -> dict:
    """One response as the fields the checks and the metrics need."""
    r = dict(k=k, status=status, ok=False, seconds=None)
    if status == 200:
        try:
            data = json.loads(payload)
            r.update(
                seconds=float(data["seconds"]),
                values=data["decision_values"],
                labels=data["predictions"],
                batch=data["batch"]["batch_id"],
                batch_rows=data["batch"]["batch_rows"],
            )
        except (ValueError, KeyError, TypeError):
            # A malformed 200 fails like any other wrong answer.
            r.update(status=-1, seconds=None)
    return r


def verify(results: List[dict], prep: dict) -> None:
    """Mark each response ``ok`` when it equals offline prediction.

    The server evaluates the rows of one micro-batch together, and a
    row's value depends in its last bits on how many rows share the
    BLAS call. So each batch (grouped by the ``batch_id`` the server
    returns) is checked against the offline ``decision_function`` of the
    served file on exactly that batch's rows, in either admission order;
    equality must be exact. A batch holding rows this client did not
    send, or any value or label that differs, fails every request in it.
    """
    model = prep["offline"]
    pos, neg = model.labels
    groups: Dict[int, List[dict]] = {}
    for r in results:
        if r["status"] == 200:
            groups.setdefault(r["batch"], []).append(r)
    for group in groups.values():
        if len(group) != group[0]["batch_rows"] or len(group) > 4:
            continue
        for order in itertools.permutations(group):
            values = model.decision_function(prep["pool"][[r["k"] for r in order]])
            if all(r["values"] == [v] for r, v in zip(order, values)):
                for r, v in zip(order, values):
                    r["ok"] = r["labels"] == [pos if v >= 0.0 else neg]
                break


def open_loop(port: int, prep: dict, rate: float, n: int, rng: np.random.Generator) -> List[dict]:
    """Send ``n`` requests at Poisson times of the given ``rate``.

    Two worker threads take requests in due order; each opens a new
    connection, sends, reads, and closes. A request whose worker is still
    busy when it falls due is sent late; its latency counts from the due
    time and ``late`` records by how much.
    """
    gaps = rng.exponential(1.0 / rate, size=n)
    picks = rng.integers(0, len(prep["bodies"]), size=n)
    t0 = time.perf_counter() + 0.05
    due = t0 + np.cumsum(gaps)
    results: List[Optional[dict]] = [None] * n
    counter = itertools.count()

    def worker() -> None:
        while True:
            i = next(counter)
            if i >= n:
                return
            wait = due[i] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            status, payload = -1, b""
            try:
                with _connect(port) as sock:
                    status, payload = _exchange(sock, prep["bodies"][picks[i]])
            except (OSError, ValueError, IndexError):
                pass
            results[i] = (sent, time.perf_counter(), status, payload)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    parsed = []
    for i, result in enumerate(results):
        # A request no worker got to (a worker died) is an unsent failure.
        sent, done, status, payload = result or (due[i], due[i], -1, b"")
        r = _parse(int(picks[i]), status, payload)
        r.update(due=due[i], sent=sent, done=done)
        parsed.append(r)
    verify(parsed, prep)
    return parsed


def closed_loop(port: int, prep: dict, duration: float) -> dict:
    """Two keep-alive clients sending back to back for ``duration`` s.

    Every attempt is recorded, including one whose connection could not
    be opened (status -1); after a failure the client pauses for
    ``RETRY_S`` and reconnects. A client thread that ends before
    ``duration`` is used up is reported in ``aborted``.
    """
    start = time.perf_counter()
    stop_at = start + duration
    per_client: List[List[dict]] = [[], []]
    finished = [False, False]

    def client(j: int) -> None:
        sock = None
        i = j
        try:
            while time.perf_counter() < stop_at:
                k = i % len(prep["bodies"])
                i += 2
                sent = time.perf_counter()
                status, payload = -1, b""
                try:
                    if sock is None:
                        sock = _connect(port)
                    status, payload = _exchange(sock, prep["bodies"][k])
                except (OSError, ValueError, IndexError):
                    if sock is not None:
                        sock.close()
                    sock = None
                    time.sleep(RETRY_S)
                per_client[j].append((k, sent, time.perf_counter(), status, payload))
            finished[j] = True
        finally:
            if sock is not None:
                sock.close()

    threads = [threading.Thread(target=client, args=(j,)) for j in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    results = []
    for k, sent, done, status, payload in per_client[0] + per_client[1]:
        r = _parse(k, status, payload)
        r.update(sent=sent, done=done)
        results.append(r)
    verify(results, prep)
    ok = [r for r in results if r["ok"]]
    end = max((r["done"] for r in results), default=start)
    return dict(
        sent=len(results),
        ok=len(ok),
        aborted=finished.count(False),
        rps=len(ok) / (end - start) if ok else 0.0,
        # A failed request counts as infinitely slow.
        latency=[(r["done"] - r["sent"]) * 1e3 if r["ok"] else float("inf") for r in results],
        overhead=[(r["done"] - r["sent"] - r["seconds"]) * 1e3 for r in ok],
        answered=ok,
    )


def step_summary(rate: float, results: List[dict]) -> dict:
    """Latency from the due time (failed requests count as infinite)."""
    lat = [(r["done"] - r["due"]) * 1e3 if r["ok"] else float("inf") for r in results]
    late = [(r["sent"] - r["due"]) * 1e3 for r in results]
    third = max(1, len(late) // 3)
    backlog = float(np.median(late[-third:])) > float(np.median(late[:third])) + BACKLOG_MS
    p50, n = stats.percentile(lat, 50)
    p99, _ = stats.percentile(lat, 99)
    late99, _ = stats.percentile(late, 99)
    overhead = [
        (r["done"] - r["sent"] - r["seconds"]) * 1e3
        for r in results
        if r["ok"] and r["seconds"] is not None
    ]
    return dict(
        rate=rate,
        n=n,
        ok=sum(r["ok"] for r in results),
        failed=sum(not r["ok"] for r in results),
        p50_ms=p50,
        p99_ms=p99,
        late_p99_ms=late99,
        backlog=backlog,
        overhead=overhead,
        start=min(r["due"] for r in results),
        end=max(r["done"] for r in results),
        results=results,
    )


def warm_up(port: int, prep: dict) -> None:
    for i in range(WARMUP_REQUESTS):
        with _connect(port) as sock:
            _exchange(sock, prep["bodies"][i % len(prep["bodies"])])


def setup(seed: int, work: Path, trace_out: Optional[Path] = None):
    prep = prepare(seed, work)
    server = Server(prep["model"], trace_out)
    try:
        warm_up(server.port, prep)
    except BaseException:
        server.stop()
        raise
    return prep, server


def run(seed: int, seconds: float, trace: bool, work: Path, out: Outcome, t_start: float) -> None:
    if trace:
        _run_traced(seed, seconds, work, out, t_start)
        return
    prep, server = setup(seed, work)
    out.setup_s.append(time.perf_counter() - t_start)
    # The generator's own garbage collections would stall its sends.
    gc.collect()
    gc.freeze()
    try:
        phase_start = time.perf_counter()
        steps = []
        for k, rate in enumerate(LADDER):
            _train_pause(prep, work, out)
            rng = np.random.default_rng([seed, 100 + k])
            n = FIRST_STEP_REQUESTS if k == 0 else STEP_REQUESTS
            s = step_summary(rate, open_loop(server.port, prep, rate, n, rng))
            steps.append(s)
            out.attempted += n
            out.failed += s["failed"]
            out.note(
                f"step {rate} rps: p50 {_fmt(s['p50_ms'])} ms, p99 {_fmt(s['p99_ms'])} ms "
                f"(n={s['n']}), late p99 {_fmt(s['late_p99_ms'])} ms, backlog {s['backlog']}, "
                f"failed {s['failed']}"
            )
            if stats.capacity([s], LIMIT_MS) is None:
                break
        remaining = seconds - (time.perf_counter() - phase_start)
        keep = closed_loop(server.port, prep, max(KEEPALIVE_S, remaining))
        alive = server.alive()
        rss = server.peak_rss_mb() if alive else None
    finally:
        server.stop()
    first = steps[0]
    for s in steps:
        out.check("open-loop responses", s["failed"] == 0, "every 200 response equals offline decision_function")
    _count_keepalive(keep, alive, out)
    _train_pause(prep, work, out)
    train_s = prep["train_s"]
    if train_s:
        out.metric("train_s", stats.median(train_s), "s", n=len(train_s))
    out.note("train_s samples: " + " ".join(f"{v:.3f}" for v in train_s))
    if keep["ok"]:
        out.metric("predict_rows_per_s", keep["rps"], "rows/s", n=keep["sent"])
    p50, n = stats.percentile(keep["latency"], 50)
    if p50 is not None:
        out.metric("predict_p50_ms", p50, "ms", n=n)
    # Printed, not gated: see README.md for their measured spread.
    if first["p50_ms"] is not None:
        out.metric("serve_p50_ms", first["p50_ms"], "ms", n=first["n"])
    if first["p99_ms"] is not None:
        out.metric("serve_p99_ms", first["p99_ms"], "ms", n=first["n"])
    best = stats.capacity(steps, LIMIT_MS)
    if best is not None:
        # Printed, not gated: see README.md for how it flips between steps.
        out.metric("serve_capacity_rps", best["rate"], "1/s", n=best["n"])
    out.note(f"capacity limit: p99 <= {LIMIT_MS:g} ms without a growing backlog")
    answered = [r for s in steps for r in s["results"] if r["ok"]] + keep["answered"]
    right = sum(r["labels"] == [prep["pool_y"][r["k"]]] for r in answered)
    if answered:
        out.metric("test_accuracy", right / len(answered), "ratio", n=len(answered))
    if rss is not None:
        out.metric("peak_rss_mb", rss, "MB")


def _count_keepalive(keep: dict, alive: bool, out: Outcome) -> None:
    """Count phase (b) in the run's operations and record its checks.

    A client thread that ended early counts as one more failed operation,
    and a server that is gone after the phase fails the run.
    """
    out.attempted += keep["sent"] + keep["aborted"]
    out.failed += keep["sent"] - keep["ok"] + keep["aborted"]
    out.check("keep-alive responses", keep["sent"] == keep["ok"], "every 200 response equals offline decision_function")
    out.check("keep-alive clients", keep["aborted"] == 0, "both clients sent until the phase ended")
    out.check("server alive", alive, "plssvm-serve still running after the keep-alive phase")


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.3f}"


def _run_traced(seed: int, seconds: float, work: Path, out: Outcome, t_start: float) -> None:
    """The 100 rps step and the keep-alive phase, untraced then traced."""
    keep_s = max(KEEPALIVE_S, (seconds - 2 * STEP_REQUESTS / LADDER[0]) / 2)
    gc.collect()
    gc.freeze()
    phases = {}
    for traced in (False, True):
        trace_out = work / "server-spans.json" if traced else None
        prep, server = setup(seed, work / ("traced" if traced else "plain"), trace_out)
        if not out.setup_s:
            out.setup_s.append(time.perf_counter() - t_start)
        try:
            m0 = server.metrics()
            rng = np.random.default_rng([seed, 100])
            step = step_summary(LADDER[0], open_loop(server.port, prep, LADDER[0], STEP_REQUESTS, rng))
            m1 = server.metrics()
            keep = closed_loop(server.port, prep, keep_s)
            alive = server.alive()
            m2 = server.metrics() if alive else m1
        finally:
            server.stop()
        out.attempted += STEP_REQUESTS
        out.failed += step["failed"]
        out.check("open-loop responses", step["failed"] == 0, "every 200 response equals offline decision_function")
        _count_keepalive(keep, alive, out)
        phases[traced] = dict(step=step, keep=keep, m=(m0, m1, m2))
    _serve_layers(phases, work / "server-spans.json", out)


def _delta(a: dict, b: dict, key: str) -> float:
    return b["counters"][key] - a["counters"][key]


def _serve_layers(phases: dict, spans_file: Path, out: Outcome) -> None:
    m = out.metric
    plain, traced = phases[False], phases[True]
    step, keep = traced["step"], traced["keep"]
    m0, m1, m2 = traced["m"]
    dump = json.loads(spans_file.read_text())
    spans = dump["spans"]

    def pct(values, p):
        v, _ = stats.percentile(values, p)
        return v

    for label, values in (("", step["overhead"]), ("keepalive_", keep["overhead"])):
        p50, n = stats.percentile(values, 50)
        p99, _ = stats.percentile(values, 99)
        m(f"server.{label}overhead_ms_p50", p50 or 0.0, "ms", n=n)
        m(f"server.{label}overhead_ms_p99", p99 or 0.0, "ms", n=n)
        if p99 is None:
            out.note(f"server.{label}overhead_ms_p99: {n} samples, fewer than the 1000 a p99 needs")

    window = (step["start"], step["end"])
    evals = [s for s in spans if s["name"] == "engine.evaluate" and window[0] <= s["start"] <= window[1]]
    submits = [s for s in spans if s["name"] == "batcher.submit" and window[0] <= s["start"] <= window[1]]
    waits = _batch_waits(submits, evals)
    m("batcher.wait_ms_p50", pct(waits, 50) or 0.0, "ms", n=len(waits))
    batches = _delta(m0, m1, "serve_batches")
    requests = _delta(m0, m1, "serve_requests")
    m("batcher.requests_per_batch", requests / batches if batches else 0.0, "count")
    m("batcher.deadline_flush_share", _delta(m0, m1, "serve_flush_max_wait") / batches if batches else 0.0, "ratio")
    m("batcher.rejected", _delta(m0, m2, "serve_rejected"), "count")
    m("engine.batch_ms_p50", (pct([s["end"] - s["start"] for s in evals], 50) or 0.0) * 1e3, "ms", n=len(evals))
    m("engine.rows_per_batch", float(np.mean([s["attrs"]["rows"] for s in evals])) if evals else 0.0, "rows")
    cross = [s for s in spans if s["name"] == "tile_pipeline.cross_sweep" and window[0] <= s["start"] <= window[1]]
    m("tile_pipeline.cross_sweep_s", stats.median([s["end"] - s["start"] for s in cross]) if cross else 0.0, "s", n=len(cross))
    m("tile_pipeline.cross_rows_per_sweep", float(np.mean([s["attrs"]["rows"] for s in cross])) if cross else 0.0, "rows")
    m("loadgen.late_ms_p99", step["late_p99_ms"] or 0.0, "ms", n=step["n"])
    m("loadgen.sent", float(step["n"]), "count")
    if plain["step"]["p50_ms"] and step["p50_ms"]:
        m("trace.overhead_p50", step["p50_ms"] / plain["step"]["p50_ms"] - 1.0, "ratio")
    if plain["keep"]["rps"] and keep["rps"]:
        m("trace.overhead_keepalive", plain["keep"]["rps"] / keep["rps"] - 1.0, "ratio")

    # Counters and histogram quantiles as the server itself reports them.
    for key in ("serve_batches", "serve_flush_count_trigger", "serve_flush_max_wait", "serve_flush_drain", "serve_rejected"):
        m(f"counters.{key}", _delta(m0, m2, key), "count")
    for name, qs in dump["quantiles"].items():
        for q in ("p50", "p99"):
            m(f"counters.{name}_{q}_ms", qs[q] * 1e3, "ms")
    out.note("counters.*_ms quantiles come from the server's own histogram reservoirs over its whole life, warm-up included")


def _batch_waits(submits: List[dict], evals: List[dict]) -> List[float]:
    """Per request: time in ``submit`` not spent evaluating its batch (ms).

    A request's batch is the latest ``engine.evaluate`` span that starts
    and ends inside its ``submit`` span.
    """
    ends = sorted(evals, key=lambda s: s["end"])
    out = []
    for s in submits:
        inside = [e for e in ends if s["start"] <= e["start"] and e["end"] <= s["end"]]
        if inside:
            out.append((s["end"] - s["start"] - (inside[-1]["end"] - inside[-1]["start"])) * 1e3)
    return out
