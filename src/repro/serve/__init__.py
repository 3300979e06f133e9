"""``repro.serve`` — the micro-batching inference serving subsystem.

Training got four PRs of optimization (tile pipeline, block CG,
preconditioning, mixed precision, telemetry); this package puts the same
machinery under *inference*, where kernel-row evaluation against the
support set amortizes across requests once they are batched:

* :class:`PredictionEngine` — a loaded model kept warm (precomputed RBF
  norms, compute-dtype casts, shared worker pool) whose thread-safe
  ``predict`` routes through the tile pipeline's cross-kernel sweep;
* :class:`MicroBatcher` / :class:`BatchPolicy` — coalesces concurrent
  small requests into one sweep: by default a batch is whatever queued
  while the previous one was evaluated (``max_wait_ms=0``), capped at
  ``max_batch_rows``, with a bounded queue and typed
  :class:`~repro.exceptions.ServerOverloadedError` backpressure;
* :class:`ModelRegistry` — named models with a byte-budgeted LRU of warm
  engines and generation-tagged hot-swap reload;
* :class:`ServingApp` / :class:`PLSSVMServer` — the stdlib-only JSON
  HTTP front-end (``/predict``, ``/models``, ``/healthz``, ``/metrics``)
  behind the ``plssvm-serve`` CLI;
* :class:`ServingReport` — the schema-validated ``/metrics`` payload.
"""

from .batcher import BatchPolicy, MicroBatcher
from .engine import PredictionEngine
from .registry import DEFAULT_REGISTRY_MB, ModelRegistry
from .report import (
    SERVING_REPORT_SCHEMA,
    SERVING_REPORT_SCHEMA_VERSION,
    ServingReport,
    build_serving_report,
    validate_serving_report,
)
from .server import PLSSVMServer, ServingApp, serve_forever

__all__ = [
    "PredictionEngine",
    "MicroBatcher",
    "BatchPolicy",
    "ModelRegistry",
    "DEFAULT_REGISTRY_MB",
    "ServingApp",
    "PLSSVMServer",
    "serve_forever",
    "ServingReport",
    "SERVING_REPORT_SCHEMA",
    "SERVING_REPORT_SCHEMA_VERSION",
    "build_serving_report",
    "validate_serving_report",
]
