"""``plssvm-serve``: serve trained models over a JSON HTTP endpoint.

Loads one or more LIBSVM model files into a
:class:`~repro.serve.ModelRegistry`, wraps them in the micro-batching
:class:`~repro.serve.ServingApp`, and blocks on a
``ThreadingHTTPServer``. Pure stdlib + numpy — no web framework.

Usage::

    plssvm-serve planes.model                      # one model, name "planes"
    plssvm-serve a=first.model b=second.model      # multi-model registry
    curl -s localhost:8000/predict -d '{"rows": [[0.1, 0.2, 0.3]]}'
    curl -s -X POST localhost:8000/models/planes/reload   # hot swap

Each positional argument is either ``NAME=PATH`` or a bare ``PATH``
(named after the file stem). ``/predict`` requests may omit ``"model"``
only when exactly one model is registered. ``POST /models/<name>/reload``
re-reads a model file rewritten in place (``plssvm-train --follow``
publishes one per refit generation) and answers with the new generation;
predictions served after the acknowledgement are never from an older
generation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from ..exceptions import PLSSVMError
from ..serve.batcher import BatchPolicy
from ..serve.registry import DEFAULT_REGISTRY_MB, ModelRegistry
from ..serve.server import PLSSVMServer, ServingApp

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    defaults = BatchPolicy()
    parser = argparse.ArgumentParser(
        prog="plssvm-serve",
        description="Serve trained LS-SVM models over a micro-batching JSON "
        "HTTP endpoint (/predict, /models, /models/<name>/reload, /healthz, "
        "/metrics).",
    )
    parser.add_argument(
        "models",
        nargs="+",
        metavar="[NAME=]MODEL_FILE",
        help="model file(s) written by plssvm-train; NAME defaults to the "
        "file stem",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8000, help="bind port (0 = ephemeral)")
    parser.add_argument(
        "--max-batch-rows",
        type=int,
        default=defaults.max_batch_rows,
        help="flush a micro-batch as soon as this many rows are queued",
    )
    parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=defaults.max_wait_ms,
        help="longest time the oldest queued request waits for peers before "
        "its batch flushes; the default 0 flushes whatever queued while the "
        "previous batch was evaluated, so a lone request never waits",
    )
    parser.add_argument(
        "--max-queue-rows",
        type=int,
        default=defaults.max_queue_rows,
        help="bounded-queue admission limit; requests past it are rejected "
        "with HTTP 503",
    )
    parser.add_argument(
        "--registry-mb",
        type=float,
        default=DEFAULT_REGISTRY_MB,
        help="byte budget (MiB) for warm prediction engines (LRU beyond it)",
    )
    parser.add_argument(
        "--solver-threads",
        type=int,
        default=None,
        help="worker threads for the prediction tile sweeps "
        "(default: PLSSVM_NUM_THREADS / CPU count)",
    )
    parser.add_argument(
        "--compute-dtype",
        choices=["float32", "float64"],
        default=None,
        help="mixed precision: evaluate kernel tiles in this dtype while "
        "decision values accumulate in the model precision",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def _parse_model_arg(arg: str) -> Tuple[str, str]:
    name, sep, path = arg.partition("=")
    if sep and name:
        return name, path
    return Path(arg).stem, arg


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    registry = ModelRegistry(
        budget_mb=args.registry_mb,
        solver_threads=args.solver_threads,
        compute_dtype=args.compute_dtype,
    )
    try:
        for arg in args.models:
            name, path = _parse_model_arg(arg)
            if not Path(path).exists():
                print(f"error: model file not found: {path}", file=sys.stderr)
                return 2
            registry.register(name, path)
            if args.verbose:
                engine = registry.get(name)  # warm it now, fail fast
                print(
                    f"registered {name!r}: {engine.num_support_vectors} SVs x "
                    f"{engine.num_features} features, "
                    f"{engine.model.param.kernel.name.lower()} kernel, "
                    f"{engine.nbytes / 1e6:.1f} MB warm"
                )
        policy = BatchPolicy(
            max_batch_rows=args.max_batch_rows,
            max_wait_ms=args.max_wait_ms,
            max_queue_rows=args.max_queue_rows,
        )
    except PLSSVMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    app = ServingApp(registry, policy=policy)
    server = PLSSVMServer((args.host, args.port), app, verbose=args.verbose)
    host, port = server.server_address[:2]
    print(
        f"plssvm-serve listening on http://{host}:{port} "
        f"({len(registry)} model(s); batch <= {policy.max_batch_rows} rows, "
        f"wait <= {policy.max_wait_ms:g} ms, queue <= {policy.max_queue_rows} rows)"
    )
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
