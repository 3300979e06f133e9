"""Micro-batching: coalesce concurrent small requests into one tile sweep.

Kernel-SVM inference cost is one kernel-row evaluation against the
support set per test row — work that is embarrassingly batchable: the
sweep cost for a block of rows is one tiled GEMM pass whether the rows
arrived together or one request at a time. A server receiving K
concurrent single-row requests therefore wants to *stack* them and pay
⌈K / max_batch_rows⌉ sweeps instead of K.

:class:`MicroBatcher` implements that with one flush worker and two
triggers:

* ``max_batch_rows`` — a batch flushes as soon as this many rows are
  queued (count trigger);
* ``max_wait_ms`` — the *oldest* queued request waits at most this long
  for peers before its batch flushes anyway (deadline trigger). The
  default is 0, which makes the batcher work-conserving: a batch is
  whatever queued while the previous batch was evaluated, so a lone
  request leaves at once and batches still grow with load. A positive
  deadline holds every lone request for peers that may never come.

Admission control is a bounded queue: a request that would push the
queued row count past ``max_queue_rows`` is rejected up front with
:class:`~repro.exceptions.ServerOverloadedError` — typed backpressure the
HTTP layer maps to 503 — instead of growing the queue without limit.

Demux is deterministic: requests enter the batch in admission order,
their rows are stacked in that order, and each submitter gets back
exactly its slice of the stacked result. Because every output row of a
sweep is an independent dot product, the batched decision values are
bit-identical to evaluating the same stacked rows in one offline
``model.predict`` call.

A timed-out ``submit`` *cancels* its request: if the request is still
queued it is removed and its rows stop counting against the
``max_queue_rows`` admission budget immediately; if the flush worker has
already collected it, the late result is discarded (the caller is gone
either way). ``serve_timeouts`` counts both flavours, so a dead client
can never wedge admission control.

Telemetry: ``submit`` runs on the caller's context (the server's
per-request scope), recording a ``batch_wait`` span — with a
``tile_sweep`` child carrying the batch's measured sweep seconds — plus
request counters; the flush worker runs under the batcher's owning
context (the server aggregate), where the pipeline's own sweep spans and
counters land.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from ..exceptions import DataError, ServerOverloadedError, ServingError
from ..telemetry.context import Span, TelemetryContext, activate, current_context
from .engine import PredictionEngine

__all__ = ["MicroBatcher", "BatchPolicy"]


class BatchPolicy:
    """The coalescing policy knobs, validated once.

    The defaults are the ones ``plssvm-serve`` ships. ``max_batch_rows=1``
    degenerates to no batching (every request is its own sweep);
    ``max_wait_ms=0`` (the default) flushes eagerly: whatever is queued
    when the worker is free forms the batch.
    """

    __slots__ = ("max_batch_rows", "max_wait_ms", "max_queue_rows")

    def __init__(
        self,
        max_batch_rows: int = 256,
        max_wait_ms: float = 0.0,
        max_queue_rows: int = 4096,
    ) -> None:
        if max_batch_rows < 1:
            raise DataError("max_batch_rows must be at least 1")
        if max_wait_ms < 0:
            raise DataError("max_wait_ms must be non-negative")
        if max_queue_rows < max_batch_rows:
            raise DataError("max_queue_rows must be at least max_batch_rows")
        self.max_batch_rows = int(max_batch_rows)
        self.max_wait_ms = float(max_wait_ms)
        self.max_queue_rows = int(max_queue_rows)

    def as_dict(self) -> dict:
        return {
            "max_batch_rows": self.max_batch_rows,
            "max_wait_ms": self.max_wait_ms,
            "max_queue_rows": self.max_queue_rows,
        }


class _Pending:
    """One admitted request waiting for its batch to flush."""

    __slots__ = (
        "rows",
        "event",
        "labels",
        "values",
        "error",
        "enqueued",
        "batch_id",
        "batch_rows",
        "batch_requests",
        "sweep_seconds",
        "wait_seconds",
        "generation",
    )

    def __init__(self, rows: np.ndarray, enqueued: float) -> None:
        self.rows = rows
        self.event = threading.Event()
        self.labels: Optional[np.ndarray] = None
        self.values: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.enqueued = enqueued
        self.batch_id = -1
        self.batch_rows = 0
        self.batch_requests = 0
        self.sweep_seconds = 0.0
        self.wait_seconds = 0.0
        self.generation = -1


class MicroBatcher:
    """Coalesces concurrent ``submit`` calls into shared engine sweeps.

    Parameters
    ----------
    engine:
        The engine to evaluate batches on — or a zero-argument callable
        returning one, resolved *per flush*. The registry front-end uses
        the callable form so hot-swap reloads and LRU eviction take
        effect on the next batch without rebuilding the batcher.
    policy:
        The :class:`BatchPolicy`; ``None`` uses the defaults.
    context:
        Telemetry context the flush worker reports into (sweep spans,
        batch counters). ``None`` captures the context active at
        construction time.
    """

    def __init__(
        self,
        engine,
        *,
        policy: Optional[BatchPolicy] = None,
        context: Optional[TelemetryContext] = None,
    ) -> None:
        if isinstance(engine, PredictionEngine):
            self._engine_supplier: Callable[[], PredictionEngine] = lambda: engine
        elif callable(engine):
            self._engine_supplier = engine
        else:
            raise DataError("engine must be a PredictionEngine or a supplier of one")
        self.policy = policy or BatchPolicy()
        self._ctx = context if context is not None else current_context()
        self._queue: Deque[_Pending] = deque()
        self._queued_rows = 0
        self._cond = threading.Condition()
        self._closed = False
        self.batches = 0
        #: Generation of the engine the most recent batch flushed on
        #: (-1 before the first flush) — replay harness diagnostics.
        self.last_generation = -1
        self._worker = threading.Thread(
            target=self._run, name="plssvm-serve-batcher", daemon=True
        )
        self._worker.start()

    # -- client side ----------------------------------------------------------

    @property
    def queued_rows(self) -> int:
        with self._cond:
            return self._queued_rows

    def submit(self, X: np.ndarray, timeout: Optional[float] = None):
        """Enqueue rows; block until the batch containing them flushes.

        Returns ``(labels, decision_values)`` for exactly the submitted
        rows (a 1-D input is treated as one row). Raises
        :class:`ServerOverloadedError` when admission would overflow the
        queue, and re-raises any evaluation error verbatim.
        """
        X = np.asarray(X)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2 or X.shape[0] == 0:
            raise DataError("submit expects one row or a non-empty block of rows")
        pending = _Pending(X, time.perf_counter())
        with self._cond:
            if self._closed:
                raise ServingError("batcher is closed")
            if self._queued_rows + X.shape[0] > self.policy.max_queue_rows:
                ctx = current_context()
                ctx.inc("serve_rejected")
                raise ServerOverloadedError(
                    f"queue full: {self._queued_rows} rows queued, request adds "
                    f"{X.shape[0]}, budget {self.policy.max_queue_rows}",
                    queued_rows=self._queued_rows,
                    max_queue_rows=self.policy.max_queue_rows,
                )
            self._queue.append(pending)
            self._queued_rows += X.shape[0]
            depth = self._queued_rows
            self._cond.notify_all()
        ctx = current_context()
        ctx.set_gauge("serve_queue_rows", depth)
        with ctx.span("batch_wait", rows=X.shape[0]) as wait_span:
            if not pending.event.wait(timeout):
                self._cancel(pending)
                ctx.inc("serve_timeouts")
                raise ServingError(
                    f"request timed out after {timeout}s waiting for its batch"
                )
        if wait_span is not None and pending.error is None:
            # Reconstruct the literal request > batch_wait > tile_sweep
            # chain: the sweep ran on the flush worker under the server
            # aggregate, so graft its measured seconds here as a child.
            wait_span.attrs.update(
                batch_id=pending.batch_id,
                batch_rows=pending.batch_rows,
                batch_requests=pending.batch_requests,
                generation=pending.generation,
            )
            wait_span.children.append(
                Span(
                    name="tile_sweep",
                    ts=wait_span.ts + max(0.0, wait_span.dur - pending.sweep_seconds),
                    dur=pending.sweep_seconds,
                    thread_id=wait_span.thread_id,
                )
            )
        ctx.inc("serve_requests")
        ctx.inc("serve_rows_submitted", X.shape[0])
        if pending.batch_requests > 1:
            ctx.inc("serve_batched_requests")
        ctx.observe("serve_wait_seconds", pending.wait_seconds)
        if pending.error is not None:
            raise pending.error
        return pending.labels, pending.values

    def predict(self, X: np.ndarray, timeout: Optional[float] = None) -> np.ndarray:
        """Labels only — the drop-in for ``model.predict`` under batching."""
        return self.submit(X, timeout)[0]

    def _cancel(self, pending: _Pending) -> bool:
        """Withdraw a timed-out request from the queue.

        Returns ``True`` when the request was still queued (its rows are
        released back to the admission budget); ``False`` when the flush
        worker had already collected it — the worker released the budget
        at collection time and the late result dies with the ``_Pending``.
        """
        with self._cond:
            try:
                self._queue.remove(pending)
            except ValueError:
                return False
            self._queued_rows -= pending.rows.shape[0]
            return True

    # -- worker side ----------------------------------------------------------

    def _collect(self) -> Tuple[List[_Pending], str]:
        """Block until a batch is due, then pop it (admission order).

        Called with ``self._cond`` held. Returns ``(batch, trigger)``
        where ``trigger`` names what released the batch — ``"count"``
        (row target reached), ``"wait"`` (oldest request's deadline
        expired), or ``"drain"`` (close). The batch is empty only when
        the batcher is closed and drained.
        """
        while True:
            while not self._queue and not self._closed:
                self._cond.wait()
            if not self._queue:
                return [], "drain"
            # Deadline of the oldest request; a full batch flushes now.
            deadline = self._queue[0].enqueued + self.policy.max_wait_ms / 1000.0
            while (
                self._queued_rows < self.policy.max_batch_rows
                and not self._closed
            ):
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
                if not self._queue:
                    break  # drained by close(); re-enter the outer wait
            if not self._queue:
                continue
            if self._queued_rows >= self.policy.max_batch_rows:
                trigger = "count"
            elif self._closed:
                trigger = "drain"
            else:
                trigger = "wait"
            batch: List[_Pending] = []
            rows = 0
            while self._queue and (
                rows < self.policy.max_batch_rows or not batch
            ):
                # Admit whole requests while under the row target; a
                # single oversized request still forms its own batch.
                if batch and rows + self._queue[0].rows.shape[0] > self.policy.max_batch_rows:
                    break
                pending = self._queue.popleft()
                rows += pending.rows.shape[0]
                batch.append(pending)
            self._queued_rows -= rows
            return batch, trigger

    def _run(self) -> None:
        with activate(self._ctx):
            while True:
                with self._cond:
                    batch, trigger = self._collect()
                if not batch:
                    return
                self._flush(batch, trigger)

    _TRIGGER_COUNTERS = {
        "count": "serve_flush_count_trigger",
        "wait": "serve_flush_max_wait",
        "drain": "serve_flush_drain",
    }

    def _flush(self, batch: List[_Pending], trigger: str = "wait") -> None:
        ctx = current_context()
        now = time.perf_counter()
        batch_id = self.batches
        self.batches += 1
        generation = -1
        served, rows, sweep_seconds = batch, 0, 0.0
        try:
            engine = self._engine_supplier()
            generation = engine.generation
            served = []
            for pending in batch:
                # A request of another width cannot be stacked with the
                # rest; it fails alone instead of failing its whole batch.
                try:
                    engine.check_features(pending.rows.shape[1])
                    served.append(pending)
                except DataError as exc:
                    pending.error = exc
                    ctx.inc("serve_batch_errors")
            rows = sum(p.rows.shape[0] for p in served)
            if served:
                with ctx.span(
                    "batch", requests=len(served), rows=rows, batch_id=batch_id
                ) as span:
                    stacked = (
                        served[0].rows
                        if len(served) == 1
                        else np.concatenate([p.rows for p in served], axis=0)
                    )
                    labels, values = engine.evaluate(stacked)
                sweep_seconds = span.dur if span is not None else 0.0
                self.last_generation = generation
                ctx.inc("serve_batches")
                ctx.inc(self._TRIGGER_COUNTERS.get(trigger, "serve_flush_max_wait"))
                ctx.observe("serve_batch_rows", rows)
                ctx.observe("serve_batch_requests", len(served))
                start = 0
                for pending in served:
                    stop = start + pending.rows.shape[0]
                    pending.labels = labels[start:stop]
                    pending.values = values[start:stop]
                    start = stop
        except BaseException as exc:  # noqa: BLE001 - handed to the submitters
            ctx.inc("serve_batch_errors")
            for pending in served:
                pending.error = exc
        for pending in batch:
            pending.batch_id = batch_id
            pending.batch_rows = rows
            pending.batch_requests = len(served)
            pending.sweep_seconds = sweep_seconds
            pending.wait_seconds = now - pending.enqueued
            pending.generation = generation
            pending.event.set()

    # -- lifecycle ------------------------------------------------------------

    def close(self, *, drain: bool = True) -> None:
        """Stop the flush worker.

        ``drain=True`` (default) lets queued requests flush first;
        ``drain=False`` fails them immediately with
        :class:`~repro.exceptions.ServingError`.
        """
        with self._cond:
            self._closed = True
            if not drain:
                orphans = list(self._queue)
                self._queue.clear()
                self._queued_rows = 0
            else:
                orphans = []
            self._cond.notify_all()
        for pending in orphans:
            pending.error = ServingError("batcher closed before the batch flushed")
            pending.event.set()
        self._worker.join(timeout=5.0)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
