"""Start ``plssvm-serve`` in this process, optionally with span wrappers.

Usage::

    python3 perfbench/serve_launcher.py [--trace-out SPANS.json] -- MODEL --port 0

Everything after ``--`` goes to ``repro.cli.serve.main`` unchanged, so the
server runs with its own defaults. With ``--trace-out`` the serving entry
points are wrapped (see ``tracing.install_serving``) and, when the server
stops on SIGINT, the spans and the server's latency-histogram quantiles
are written to that file. The server also stops when the process that
started it is gone, so a killed benchmark leaves no server behind.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _stop_when_orphaned() -> None:
    parent = os.getppid()
    while os.getppid() == parent:
        time.sleep(1.0)
    os.kill(os.getpid(), signal.SIGINT)


def main(argv) -> int:
    threading.Thread(target=_stop_when_orphaned, daemon=True).start()
    sep = argv.index("--")
    own, serve_args = argv[:sep], argv[sep + 1 :]
    trace_out = own[own.index("--trace-out") + 1] if "--trace-out" in own else None

    from repro.cli import serve

    if trace_out is None:
        return serve.main(serve_args)

    import tracing

    from repro.serve import server

    tracer = tracing.Tracer()
    apps = []
    tracing.install_serving(tracer)
    # Keep a handle on the app so its histograms can be read at exit.
    tracer.patch(server.ServingApp, "__init__", "server.start", lambda a, k, r, sp: apps.append(a[0]))
    try:
        rc = serve.main(serve_args)
    finally:
        tracer.unpatch()
    hist = {}
    if apps:
        metrics = apps[0].context.metrics
        for name in ("serve_wait_seconds", "sweep_seconds", "serve_request_seconds"):
            hist[name] = metrics.histogram(name).quantiles()
    tracer.dump(Path(trace_out), quantiles=hist)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
