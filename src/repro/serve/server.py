"""The stdlib HTTP front-end: JSON over ``ThreadingHTTPServer``.

Pure-Python on purpose: the whole reproduction runs on numpy + scipy
alone, and a serving layer that dragged in a web framework would break
that. ``http.server.ThreadingHTTPServer`` gives one thread per connection
— which is precisely the concurrency shape the micro-batcher exists to
coalesce — and the endpoints speak JSON:

* ``POST /predict`` — ``{"model": name?, "rows": [[...], ...]}`` (or a
  single ``"row"``); responds with predictions, decision values, and the
  batch the request rode in. Admission-control rejections surface as
  ``503`` with ``Retry-After``.
* ``POST /models/<name>/reload`` — generation-tagged hot swap:
  re-resolve the model from its current source (or an optional new
  ``{"source": path}``) and answer with the new generation; predictions
  issued after the acknowledgement carry a generation at least that high.
  A source that cannot be loaded is refused with 400 before the swap, so
  the current generation keeps serving.
* ``GET /models`` — registry contents with warm/generation state.
* ``GET /healthz`` — liveness plus model count.
* ``GET /metrics`` — the :class:`~repro.serve.report.ServingReport`
  (schema-validated by :func:`~repro.serve.report.validate_serving_report`).

Every response leaves in one write, status line, headers and body
together, on a socket with Nagle's algorithm off. Sent as two writes, the
body of a kept-alive response would wait for the client's delayed ACK of
the headers, about 40 ms on Linux: a hundred times the evaluation itself.

A ``/predict`` body must carry finite numbers. A body is read only when
its ``Content-Length`` is a non-negative integer of at most
:data:`MAX_BODY_BYTES`; otherwise the answer is 400 or 413 and the
connection closes, since the request's framing is unknown.

Every request runs under a fresh per-request telemetry scope parented to
the server's aggregate context, so ``/metrics`` sees totals while each
response can report its own wait/batch numbers.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

import numpy as np

from ..exceptions import (
    DataError,
    ModelNotFoundError,
    PLSSVMError,
    ServerOverloadedError,
)
from ..telemetry.context import TelemetryContext, root_context, scope
from .batcher import BatchPolicy, MicroBatcher
from .registry import ModelRegistry
from .report import build_serving_report, ServingReport

__all__ = ["ServingApp", "PLSSVMServer", "serve_forever", "MAX_BODY_BYTES"]

#: Largest request body read (413 beyond it). A body is read whole and
#: parsed into Python floats before any row is admitted, so without a cap
#: one request could make its handler thread allocate without bound.
#: 64 MiB carries a request of 4096 rows (the default admission budget)
#: of over 700 features each, written at full float64 precision.
MAX_BODY_BYTES = 64 << 20


class ServingApp:
    """Protocol-independent serving state: registry + per-model batchers.

    Owns the server's aggregate :class:`TelemetryContext` and one
    :class:`MicroBatcher` per model name. Batchers resolve their engine
    through the registry *per flush*, so LRU eviction and hot-swap
    reloads take effect on the next batch without tearing anything down.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        policy: Optional[BatchPolicy] = None,
        name: str = "plssvm-serve",
        max_spans: int = 4000,
    ) -> None:
        self.registry = registry
        self.policy = policy or BatchPolicy()
        self.context = TelemetryContext(
            name, parent=root_context(), max_spans=max_spans
        )
        self._batchers: Dict[str, MicroBatcher] = {}
        self._lock = threading.Lock()
        self.started = time.time()

    def batcher(self, model: str) -> MicroBatcher:
        """The (lazily created) micro-batcher for one model name."""
        if model not in self.registry:
            raise ModelNotFoundError(model)
        with self._lock:
            batcher = self._batchers.get(model)
            if batcher is None:
                batcher = MicroBatcher(
                    lambda model=model: self.registry.get(model),
                    policy=self.policy,
                    context=self.context,
                )
                self._batchers[model] = batcher
            return batcher

    def default_model(self) -> str:
        models = self.registry.models()
        if len(models) != 1:
            raise DataError(
                "request must name a model (\"model\": ...) when the registry "
                f"holds {len(models)} models"
            )
        return models[0]["name"]

    def predict(self, model: Optional[str], rows: np.ndarray, timeout: Optional[float] = None):
        """Admit rows for ``model`` through its batcher; returns the demuxed
        ``(labels, values, batch_info)`` triple."""
        name = model if model else self.default_model()
        batcher = self.batcher(name)
        start = time.perf_counter()
        labels, values = batcher.submit(rows, timeout=timeout)
        # Per-model latency lands on the server aggregate (not the
        # per-request scope) so /metrics can quote p50/p95/p99 per model.
        self.context.metrics.histogram(f"serve_model_seconds::{name}").observe(
            time.perf_counter() - start
        )
        return name, labels, values

    @property
    def queued_rows(self) -> int:
        with self._lock:
            return sum(b.queued_rows for b in self._batchers.values())

    def report(self, *, server: str = "") -> ServingReport:
        return build_serving_report(
            self.context,
            server=server or self.context.name,
            policy=self.policy,
            registry=self.registry,
            queue_rows=self.queued_rows,
        )

    def close(self) -> None:
        with self._lock:
            batchers = list(self._batchers.values())
            self._batchers.clear()
        for batcher in batchers:
            batcher.close()


class _Handler(BaseHTTPRequestHandler):
    """One request; the app hangs off the server object."""

    server_version = "plssvm-serve/1.0"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: the stdlib's own send_error still writes its headers
    # and body apart, and must not wait out a delayed ACK either.
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------------

    @property
    def app(self) -> ServingApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # noqa: D102 - silence default stderr spam
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(fmt, *args)

    def _send_json(self, status: int, payload: dict, *, headers: Optional[dict] = None) -> None:
        body = json.dumps(payload, default=_jsonify).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        if self.request_version == "HTTP/0.9":  # a bare body, no head
            self.wfile.write(body)
            return
        # One write for the whole response: end_headers() would send the
        # head on its own, and the body would wait for its delayed ACK.
        self._headers_buffer += (b"\r\n", body)
        self.flush_headers()

    def _error(self, status: int, message: str, *, headers: Optional[dict] = None) -> None:
        self._send_json(status, {"error": message, "status": status}, headers=headers)

    def _read_json(self):
        """The request body parsed as JSON (``{}`` when empty).

        Raises :class:`_RequestError`. A ``Content-Length`` that is not a
        non-negative integer, or that exceeds :data:`MAX_BODY_BYTES`,
        leaves the body unread and closes the connection after the answer.
        """
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            self.close_connection = True
            if length < 0:
                raise _RequestError(400, "Content-Length must be a non-negative integer")
            raise _RequestError(
                413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES} bytes"
            )
        try:
            return json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, RecursionError) as exc:
            raise _RequestError(400, f"request body is not valid JSON: {exc}") from None

    # -- GET ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(
                200,
                {
                    "status": "ok",
                    "uptime_seconds": self.app.context.now(),
                    "models": len(self.app.registry),
                },
            )
        elif path == "/models":
            self._send_json(200, {"models": self.app.registry.models()})
        elif path == "/metrics":
            report = self.app.report(server=_server_label(self.server))
            self._send_json(200, report.as_dict())
        else:
            self._error(404, f"unknown path {self.path!r}")

    # -- POST -----------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/")
        if path.startswith("/models/") and path.endswith("/reload"):
            self._do_reload(path[len("/models/") : -len("/reload")].strip("/"))
            return
        if path != "/predict":
            self.close_connection = True  # its body is left unread
            self._error(404, f"unknown path {self.path!r}")
            return
        try:
            payload = self._read_json()
        except _RequestError as exc:
            self._error(exc.status, str(exc))
            return
        with scope("request", parent=self.app.context) as ctx:
            start = time.perf_counter()
            try:
                model, rows = _parse_predict(payload)
                name, labels, values = self.app.predict(model, rows)
            except ServerOverloadedError as exc:
                ctx.observe("serve_request_seconds", time.perf_counter() - start)
                self._error(
                    503,
                    str(exc),
                    headers={"Retry-After": "1"},
                )
                return
            except ModelNotFoundError as exc:
                ctx.inc("serve_errors")
                self._error(404, f"unknown model {exc.args[0]!r}")
                return
            except (DataError, PLSSVMError) as exc:
                ctx.inc("serve_errors")
                self._error(400, str(exc))
                return
            elapsed = time.perf_counter() - start
            ctx.observe("serve_request_seconds", elapsed)
            request_span = _find_child(ctx.root_span, "batch_wait")
            batch = dict(request_span.attrs) if request_span is not None else {}
            self._send_json(
                200,
                {
                    "model": name,
                    "generation": batch.get("generation", -1),
                    "rows": int(rows.shape[0]),
                    "predictions": labels.tolist(),
                    "decision_values": values.tolist(),
                    "seconds": elapsed,
                    "batch": batch,
                },
            )

    def _do_reload(self, name: str) -> None:
        """``POST /models/<name>/reload`` — generation-tagged hot swap."""
        if not name:
            self.close_connection = True  # its body is left unread
            self._error(404, "reload needs a model name: /models/<name>/reload")
            return
        try:
            payload = self._read_json()
        except _RequestError as exc:
            self._error(exc.status, str(exc))
            return
        if not isinstance(payload, dict):
            self._error(400, "request body must be a JSON object")
            return
        source = payload.get("source")
        if source is not None and not isinstance(source, str):
            self._error(400, '"source" must be a path string')
            return
        try:
            generation = self.app.registry.reload(name, source)
        except ModelNotFoundError:
            self._error(404, f"unknown model {name!r}")
            return
        except PLSSVMError as exc:
            self._error(400, str(exc))
            return
        self.app.context.inc("serve_reloads")
        self._send_json(200, {"model": name, "generation": generation})


class _RequestError(Exception):
    """A request refused before any model work, with its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _find_child(span, name: str):
    for child in span.children:
        if child.name == name:
            return child
    return None


def _parse_predict(payload: dict):
    if not isinstance(payload, dict):
        raise DataError("request body must be a JSON object")
    model = payload.get("model")
    if model is not None and not isinstance(model, str):
        raise DataError('"model" must be a string')
    if "rows" in payload:
        rows = payload["rows"]
    elif "row" in payload:
        rows = [payload["row"]]
    else:
        raise DataError('request must carry "rows" (list of rows) or "row"')
    try:
        X = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"rows are not numeric: {exc}") from None
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError('"rows" must be a non-empty list of equal-length rows')
    if not np.isfinite(X).all():
        # Python's json reads NaN and Infinity, but a row holding one has
        # no decision value, and NaN in the answer would not be JSON.
        raise DataError("rows must hold finite numbers (no NaN or Infinity)")
    return model, X


def _server_label(server) -> str:
    host, port = server.server_address[:2]
    return f"{host}:{port}"


def _jsonify(value):
    if hasattr(value, "item"):
        return value.item()
    return str(value)


class PLSSVMServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` bound to a :class:`ServingApp`."""

    daemon_threads = True
    # socketserver's default listen backlog is 5; a burst of concurrent
    # clients — the workload the batcher exists for — would see
    # connection resets before the batcher ever got a say.
    request_queue_size = 128

    def __init__(self, address, app: ServingApp, *, verbose: bool = False) -> None:
        super().__init__(address, _Handler)
        self.app = app
        self.verbose = verbose

    def shutdown(self) -> None:  # noqa: D102 - also drain the batchers
        super().shutdown()
        self.app.close()


def serve_forever(
    registry: ModelRegistry,
    *,
    host: str = "127.0.0.1",
    port: int = 8000,
    policy: Optional[BatchPolicy] = None,
    verbose: bool = False,
) -> None:
    """Blocking convenience entry point (the CLI's core)."""
    app = ServingApp(registry, policy=policy)
    server = PLSSVMServer((host, port), app, verbose=verbose)
    try:
        server.serve_forever()
    finally:
        server.shutdown()
        server.server_close()
