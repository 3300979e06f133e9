"""Per-fit telemetry: scoped spans, typed metrics, unified training reports.

Public surface
--------------
:class:`TelemetryContext` / :func:`current_context` / :func:`fit_scope`
    Context-scoped collection; instrumented sites resolve the active
    context per thread via :func:`current_context`.
:class:`TrainingReport` / :func:`validate_report` / :data:`REPORT_SCHEMA`
    The structured per-fit record exposed as ``model.report_``, its JSON
    schema, and the validator the CI smoke step runs.
:class:`MetricsRegistry` and friends
    The counter/gauge/histogram primitives backing each context.

Process-wide aggregates live on :func:`root_context`; per-fit numbers on
each estimator's ``report_``.
"""

from .context import (
    Span,
    TelemetryContext,
    activate,
    current_context,
    fit_scope,
    reset_root_context,
    root_context,
    scope,
)
from .metrics import (
    SOLVER_COUNTER_NAMES,
    SOLVER_GAUGE_NAMES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .report import (
    REPORT_SCHEMA,
    REPORT_SCHEMA_VERSION,
    TrainingReport,
    build_report,
    validate_report,
)

__all__ = [
    "Span",
    "TelemetryContext",
    "activate",
    "current_context",
    "fit_scope",
    "scope",
    "root_context",
    "reset_root_context",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SOLVER_COUNTER_NAMES",
    "SOLVER_GAUGE_NAMES",
    "TrainingReport",
    "REPORT_SCHEMA",
    "REPORT_SCHEMA_VERSION",
    "build_report",
    "validate_report",
]
