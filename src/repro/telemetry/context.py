"""Context-scoped telemetry: spans, metrics, and event collectors per fit.

The paper's evaluation decomposes training runtime into components
(Fig. 2) and compares backends by per-phase numbers (Table 1). Before
this module the reproduction funneled all of that through one
process-global counter singleton, which concurrent fits — thread-pool
hyper-parameter sweeps, multi-GPU training — silently corrupted. A
:class:`TelemetryContext` fixes attribution at the root:

* it is **contextvars-backed**: :func:`current_context` resolves to the
  context activated on the *current thread/task*, so two fits running on
  a shared thread pool each report into their own context;
* it carries a **span tree** (``fit > cg_solve > iteration >
  tile_sweep``) recording where wall time went, with bounded retention
  (``max_spans``) so production fits cannot grow memory without limit;
* it carries a **metrics registry** (counters / gauges / histograms,
  pre-registered with the solver counters) plus
  collectors for the three previously disconnected streams: profiling
  counters, simulated-device traces, and the resilience audit log;
* metric increments **bubble to ancestors**, ending at the process-wide
  root context (:func:`root_context`), so aggregate numbers (benchmarks,
  the CLI resilience summary) stay correct.

Instrumented sites never hold a context; they call
:func:`current_context` at the reporting moment, which makes the
instrumentation free of plumbing and safe under any interleaving.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import threading
import time
from typing import Dict, Iterator, List, Optional, Union

from .metrics import MetricsRegistry

__all__ = [
    "Span",
    "TelemetryContext",
    "current_context",
    "root_context",
    "reset_root_context",
    "fit_scope",
    "scope",
    "activate",
]


@dataclasses.dataclass
class Span:
    """One node of the span tree: a named, timed scope.

    ``ts`` is seconds since the owning context's epoch; ``dur`` is wall
    seconds (plus any simulated seconds added via :meth:`add_time`).
    """

    name: str
    ts: float
    dur: float = 0.0
    attrs: Dict[str, object] = dataclasses.field(default_factory=dict)
    children: List["Span"] = dataclasses.field(default_factory=list)
    thread_id: int = 0

    def add_time(self, seconds: float) -> None:
        """Inject simulated seconds (device clocks) into this span."""
        self.dur += seconds

    def as_dict(self) -> dict:
        out = {"name": self.name, "ts": self.ts, "dur": self.dur}
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


#: The context activated on this thread/task (None -> the process root).
_ACTIVE: "contextvars.ContextVar[Optional[TelemetryContext]]" = contextvars.ContextVar(
    "plssvm_telemetry_context", default=None
)
#: The innermost open span on this thread/task.
_CURRENT_SPAN: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "plssvm_telemetry_span", default=None
)


class TelemetryContext:
    """A scoped sink for spans, metrics, and device/fault events.

    Parameters
    ----------
    name:
        Label of the root span (``"fit"`` for estimator contexts,
        ``"process"`` for the implicit root).
    parent:
        Ancestor to bubble metric updates into; ``None`` for the root.
    record_spans:
        Retain the span tree and event lists. The process root runs with
        ``False`` — it only aggregates metrics — so bare solver calls
        outside any fit cannot grow process memory without bound.
    max_spans:
        Retention cap on stored spans; further spans still time their
        body and bubble metrics but are dropped from the tree (counted in
        ``dropped_spans``).
    attrs:
        Free-form annotations stamped onto the root span (estimator
        class, backend name, problem shape, ...).
    """

    def __init__(
        self,
        name: str = "fit",
        parent: Optional["TelemetryContext"] = None,
        *,
        record_spans: bool = True,
        max_spans: int = 20000,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.parent = parent
        self.record_spans = bool(record_spans)
        self.max_spans = int(max_spans)
        self.metrics = MetricsRegistry()
        self.epoch = time.perf_counter()
        self.root_span = Span(
            name=name, ts=0.0, attrs=dict(attrs or {}), thread_id=threading.get_ident()
        )
        self.device_events: List[dict] = []
        self.fault_events: List[dict] = []
        self.device_summaries: List[dict] = []
        self.dropped_spans = 0
        self._span_count = 1
        self._lock = threading.Lock()

    # -- clock ----------------------------------------------------------------

    def now(self) -> float:
        """Seconds since this context's epoch."""
        return time.perf_counter() - self.epoch

    # -- metrics (bubble to ancestors) ----------------------------------------

    def _ancestry(self) -> Iterator["TelemetryContext"]:
        ctx: Optional[TelemetryContext] = self
        while ctx is not None:
            yield ctx
            ctx = ctx.parent

    def inc(self, name: str, amount: Union[int, float] = 1) -> None:
        """Increment counter ``name`` here and in every ancestor."""
        for ctx in self._ancestry():
            ctx.metrics.counter(name).inc(amount)

    def set_gauge(self, name: str, value: Union[int, float]) -> None:
        """Set gauge ``name`` here and in every ancestor."""
        for ctx in self._ancestry():
            ctx.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation here and in every ancestor."""
        for ctx in self._ancestry():
            ctx.metrics.histogram(name).observe(value)

    # -- spans ----------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Optional[Span]]:
        """Open a child span of the innermost open span on this thread.

        Yields the :class:`Span` (or ``None`` when this context does not
        record spans); the span's duration is closed on exit, exceptions
        included.
        """
        if not self.record_spans:
            yield None
            return
        parent = _CURRENT_SPAN.get() or self.root_span
        node = Span(
            name=name, ts=self.now(), attrs=attrs, thread_id=threading.get_ident()
        )
        with self._lock:
            if self._span_count < self.max_spans:
                self._span_count += 1
                retained = True
            else:
                self.dropped_spans += 1
                retained = False
        token = _CURRENT_SPAN.set(node)
        start = time.perf_counter()
        try:
            yield node
        finally:
            node.dur += time.perf_counter() - start
            _CURRENT_SPAN.reset(token)
            if retained:
                # Parent lists are appended from the owning thread only in
                # ordinary use, but a shared context is legal — guard it.
                with self._lock:
                    parent.children.append(node)

    # -- collectors -----------------------------------------------------------

    def record_device_event(
        self,
        *,
        device_id: int,
        device_name: str,
        kind: str,
        name: str,
        ts: float,
        dur: float,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Collect one simulated-device event (kernel launch / transfer).

        ``ts`` / ``dur`` are *modeled* device seconds (the device clock),
        not host wall time — the merged chrome trace puts them on their
        own process row.
        """
        if not self.record_spans:
            return
        event = {
            "device_id": device_id,
            "device_name": device_name,
            "kind": kind,
            "name": name,
            "ts": ts,
            "dur": dur,
        }
        if args:
            event["args"] = dict(args)
        with self._lock:
            self.device_events.append(event)

    def record_fault_event(self, kind: str, **info) -> None:
        """Append one entry to the resilience audit stream.

        Stamped with host seconds since the context epoch; the root
        context drops the entry (metrics still bubble separately).
        """
        if not self.record_spans:
            return
        event = {"kind": kind, "ts": self.now()}
        event.update(info)
        with self._lock:
            self.fault_events.append(event)

    def add_device_summary(self, summary: Dict[str, object]) -> None:
        """Attach one device's end-of-fit summary (modeled time, counters)."""
        if not self.record_spans:
            return
        with self._lock:
            self.device_summaries.append(dict(summary))

    # -- reporting ------------------------------------------------------------

    def solver_counters_dict(self) -> Dict[str, Union[int, float]]:
        """This context's solver-counter metric view."""
        return self.metrics.solver_counters_dict()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TelemetryContext({self.name!r}, spans={self._span_count}, "
            f"parent={self.parent.name if self.parent else None!r})"
        )


#: Process-wide fallback context: aggregates metrics from every fit (and
#: from bare solver calls outside any fit) but retains no spans/events.
_ROOT = TelemetryContext("process", parent=None, record_spans=False)
_ROOT_LOCK = threading.Lock()


def root_context() -> TelemetryContext:
    """The process-wide aggregate context every other context bubbles into."""
    return _ROOT


def reset_root_context() -> None:
    """Zero the root context's metrics (benchmark-harness hook)."""
    with _ROOT_LOCK:
        _ROOT.metrics.reset()


def current_context() -> TelemetryContext:
    """The context active on this thread/task, or the process root."""
    return _ACTIVE.get() or _ROOT


@contextlib.contextmanager
def scope(
    name: str = "scope",
    *,
    parent: Optional[TelemetryContext] = None,
    max_spans: int = 20000,
    **attrs,
) -> Iterator[TelemetryContext]:
    """Activate a fresh context for the duration of the block.

    ``parent`` defaults to whatever context is active here (another scope
    for nested estimators, else the process root); passing one explicitly
    lets long-lived aggregates — the serving subsystem's per-server
    context — adopt short-lived children (one per request) created on
    arbitrary handler threads, so metrics keep bubbling into the right
    aggregate while spans and events stay private to the child.
    """
    if parent is None:
        parent = _ACTIVE.get() or _ROOT
    ctx = TelemetryContext(name, parent=parent, max_spans=max_spans, attrs=attrs)
    token = _ACTIVE.set(ctx)
    span_token = _CURRENT_SPAN.set(ctx.root_span)
    start = time.perf_counter()
    try:
        yield ctx
    finally:
        ctx.root_span.dur += time.perf_counter() - start
        _CURRENT_SPAN.reset(span_token)
        _ACTIVE.reset(token)


@contextlib.contextmanager
def activate(ctx: TelemetryContext) -> Iterator[TelemetryContext]:
    """Make an *existing* context current for the duration of the block.

    :func:`scope` creates a context per block; worker threads that serve
    one long-lived context (the micro-batcher's flush thread reporting
    into the server's aggregate) instead re-enter it here. The context's
    root span is *not* re-timed — only ownership of
    :func:`current_context` changes on this thread.
    """
    token = _ACTIVE.set(ctx)
    span_token = _CURRENT_SPAN.set(ctx.root_span)
    try:
        yield ctx
    finally:
        _CURRENT_SPAN.reset(span_token)
        _ACTIVE.reset(token)


def fit_scope(
    name: str = "fit",
    *,
    max_spans: int = 20000,
    **attrs,
):
    """Activate a fresh fit-scoped context for the duration of the block.

    The new context's parent is whatever context is active here (another
    fit's context for nested estimators, else the process root), so
    metrics keep bubbling into the global aggregate while spans and
    events stay private to this fit. Alias of :func:`scope` kept for the
    training-side call sites and their name in reports.
    """
    return scope(name, max_spans=max_spans, **attrs)
