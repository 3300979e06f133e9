"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload fit_rbf_recompute --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the program from its
``src`` directory. Prints every metric with its unit and sample count,
every check verdict and the operation counts, then, as the last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the
per-layer ones with ``--trace 1``). Every workload measures every
end-to-end metric; a run that could not (too many failed operations)
exits 1 without a result line. See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fit_rbf_recompute", "file_rbf_cached", "serve_http")
#: Set-up repeats in child processes, on top of the run's own set-up.
SETUP_REPEATS = 4

_SERVE_TRACE_ONLY = "the traced serve_http run measures the serving layers only; its train_s fits run untraced"
# Per-layer metrics that a workload does not exercise, and why.
NOT_APPLICABLE = {
    ("fit_rbf_recompute", "io."): "fit_rbf_recompute trains and predicts in memory",
    ("fit_rbf_recompute", "tile_pipeline.cache_hit_ratio"): "the working set exceeds the cache budget, so the cache is off",
    ("fit_rbf_recompute", "tile_pipeline.cross_"): "LSSVC.predict evaluates kernel rows in LSSVMModel.decision_function, not TilePipeline.cross_sweep",
    ("file_rbf_cached", "tile_pipeline.speedup_vs_1t"): "measured on fit_rbf_recompute",
    ("serve_http", "io."): _SERVE_TRACE_ONLY,
    ("serve_http", "qmatrix."): _SERVE_TRACE_ONLY,
    ("serve_http", "cg."): _SERVE_TRACE_ONLY,
    ("serve_http", "lssvm."): _SERVE_TRACE_ONLY,
    ("serve_http", "model."): "serve_http predicts through the server's PredictionEngine",
    ("serve_http", "tile_pipeline."): "serve_http runs no training sweeps (its served model is small enough for an explicit reduced system)",
    ("serve_http", "trace.attributed"): _SERVE_TRACE_ONLY,
    ("serve_http", "trace.unattributed"): _SERVE_TRACE_ONLY,
    ("serve_http", "trace.overhead_train"): _SERVE_TRACE_ONLY,
    ("serve_http", "trace.overhead_predict"): "serve_http has no predict phase",
    ("serve_http", "counters."): "this counter is reported by training fits",
    ("*", "server."): "the serving layers do not run in a training workload",
    ("*", "batcher."): "the serving layers do not run in a training workload",
    ("*", "engine."): "the serving layers do not run in a training workload",
    ("*", "loadgen."): "the load generator runs only in serve_http",
    ("*", "trace.overhead_p50"): "measured on serve_http",
    ("*", "trace.overhead_keepalive"): "measured on serve_http",
    ("*", "counters."): "this counter is reported by the server",
}


def _reason(workload: str, name: str) -> str:
    for (wl, prefix), why in NOT_APPLICABLE.items():
        if wl in (workload, "*") and name.startswith(prefix):
            return why
    return f"not measured on {workload}"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    p.add_argument("--single-thread-fit", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload is None and not args.single_thread_fit:
        p.error("--workload is required")
    return args


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and check it is used."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {src}/repro")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, not from {src}")


def _manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _setup_repeats(args, work: Path) -> list:
    """Time the set-up again in fresh interpreters; returns their seconds."""
    samples = []
    for k in range(SETUP_REPEATS):
        cmd = [
            sys.executable, str(Path(__file__)), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only", str(work / f"setup-{k}"),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode == 0:
            samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def main(argv=None) -> int:
    # On SIGTERM unwind normally, so the serving workload stops its server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = _parse(argv)
    _import_program()
    import serving
    import stats
    import training
    from outcome import Outcome

    if args.single_thread_fit:
        print(json.dumps({"fit_s": training.single_thread_fit(args.seed)}))
        return 0
    if args.setup_only:
        work = Path(args.setup_only)
        if args.workload == "serve_http":
            _, server = serving.setup(args.seed, work)
            elapsed = time.perf_counter() - T_START
            server.stop()
        else:
            training.prepare(args.workload, args.seed, work)
            elapsed = time.perf_counter() - T_START
        print(json.dumps({"setup_s": elapsed}))
        return 0

    manifest = _manifest()
    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = Outcome()
    if args.workload == "serve_http":
        serving.run(args.seed, args.seconds, bool(args.trace), work, out, T_START)
    else:
        training.run(args.workload, args.seed, args.seconds, bool(args.trace), work, out, T_START)
    out.setup_s += _setup_repeats(args, work)
    out.metric("setup_s", stats.median(out.setup_s), "s", n=len(out.setup_s))
    if out.attempted:
        out.metric("success_ratio", (out.attempted - out.failed) / out.attempted, "ratio", n=out.attempted)

    key = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in manifest[key]]
    unmeasured = [] if args.trace else out.unmeasured(names)
    if args.trace:
        missing = {}
        for m in manifest[key]:
            if m["name"] not in out.metrics:
                out.metric(m["name"], 0.0, m["unit"])
                missing.setdefault(_reason(args.workload, m["name"]), []).append(m["name"])
        for why, which in missing.items():
            out.note(f"reads 0, does not apply ({why}): {', '.join(which)}")
    for d in work.glob("**/*.libsvm*"):
        d.unlink()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in out.lines():
        print(line)
    if unmeasured:
        # Too many failures to measure these: no result line.
        print(f"error: not measured: {', '.join(unmeasured)}", file=sys.stderr)
        return 1
    print(json.dumps(out.result(names), allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
