"""Thin CLI wrapper over the ``serve`` benchmark campaign.

The three serving scenarios (cold model vs warm engine, batching off vs
on across a concurrency sweep, exact RBF vs compact RFF serving) now
live in :mod:`repro.campaign.serve_scenarios`; the campaign definition —
sizes, ``--quick`` clamps, gate rules — is
:func:`repro.campaign.presets.serve_campaign`. This script keeps the
historical flags and ``BENCH_serve{,.quick}.json`` output so existing
invocations and the committed artifacts stay valid; prefer
``plssvm-bench run serve`` (resumable, gated via ``plssvm-bench check``)
for new workflows.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_serve.py [--points 4000 ...]

``--quick`` shrinks every scenario to CI-smoke size (a few seconds
total); the numbers are then only a plumbing check, not a measurement.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

from repro.campaign import CampaignRunner, ResultsStore, serve_campaign
from repro.serve import BatchPolicy

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=4000,
                        help="training points (= support vectors served against)")
    parser.add_argument("--features", type=int, default=16)
    parser.add_argument("--requests", type=int, default=200,
                        help="single-row requests for the warm-engine scenario")
    parser.add_argument("--requests-per-client", type=int, default=50)
    parser.add_argument("--concurrency", type=int, nargs="+", default=[1, 8, 32])
    parser.add_argument("--max-batch-rows", type=int, default=64)
    parser.add_argument("--max-wait-ms", type=float, default=BatchPolicy().max_wait_ms)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: tiny sizes, write to "
                        "BENCH_serve.quick.json unless --output is given")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = (
            DEFAULT_OUTPUT.with_suffix(".quick.json") if args.quick else DEFAULT_OUTPUT
        )

    spec = serve_campaign(
        points=args.points,
        features=args.features,
        requests=args.requests,
        requests_per_client=args.requests_per_client,
        concurrency=args.concurrency,
        max_batch_rows=args.max_batch_rows,
        max_wait_ms=args.max_wait_ms,
        seed=args.seed,
        quick=args.quick,
    )

    def progress(cell, done, total, status):
        if status == "start":
            print(f"[{done + 1}/{total}] {cell} ...", flush=True)

    # One-shot measurement, exactly like the pre-campaign script: the
    # store is throwaway. plssvm-bench run is the resumable path.
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultsStore(Path(tmp) / f"{spec.name}.jsonl")
        run = CampaignRunner(spec, store, progress=progress).run(resume=False)
    if run.failed:
        cell, error = next(iter(run.failed.items()))
        raise RuntimeError(f"benchmark cell {cell} failed: {error}")
    report = run.report(harness="benchmarks/bench_serve.py", config=spec.config)
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    we = report["scenarios"]["warm_engine"]
    print(f"\nwarm engine : {we['cold_seconds']:.2f}s -> {we['warm_seconds']:.2f}s "
          f"({we['speedup']:.2f}x over {we['requests']} single-row requests)")
    for clients, cell in report["scenarios"]["batching"]["grid"].items():
        off, on = cell["unbatched"], cell["batched"]
        print(f"batching c={clients:>3}: {off['throughput_rps']:8.0f} -> "
              f"{on['throughput_rps']:8.0f} req/s "
              f"({cell['throughput_gain']:.2f}x), p99 "
              f"{off['latency_p99_ms']:.2f} -> {on['latency_p99_ms']:.2f} ms, "
              f"{on['requests_per_batch']:.1f} req/batch")
    cs = report["scenarios"]["compact_serving"]
    print(f"compact     : p50 {cs['exact_p50_ms']:.3f} -> "
          f"{cs['compact_p50_ms']:.3f} ms ({cs['p50_speedup']:.2f}x), "
          f"{cs['exact_model_bytes'] / 1e3:.0f} -> "
          f"{cs['compact_model_bytes'] / 1e3:.0f} kB model, "
          f"bit-identical={cs['bit_identical_serve']}")
    print(f"[saved to {args.output}]")
    return report


if __name__ == "__main__":
    main()
