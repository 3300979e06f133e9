"""``plssvm-workload``: the workload-diversity engine's front door.

Four subcommands cover the whole generate -> replay -> grade loop::

    plssvm-workload list                      # registered profiles
    plssvm-workload generate --traffic bursty --seed 7 -o trace.json
    plssvm-workload replay trace.json -o result.json            # sim
    plssvm-workload replay trace.json --url http://host:8000 \\
        --data-profile sparse_text -o result.json               # live
    plssvm-workload grade result.json --p99-ms 250 -o grade.json

``replay`` defaults to the deterministic pipeline simulation (byte-
identical outcome sequences per seed — what CI gates on); ``--url``
switches to open-loop HTTP replay against a live ``plssvm-serve``, and
``--model NAME=PATH`` to in-process replay (no sockets, same engine).
``grade`` exits non-zero on SLO violation and prints the diagnosable
failure report naming the worst trace window.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..exceptions import PLSSVMError
from ..serve.batcher import BatchPolicy

__all__ = ["main", "build_parser"]


def _parse_param(raw: str):
    if "=" not in raw:
        raise ValueError(f"--param needs KEY=VALUE, got {raw!r}")
    key, value = raw.split("=", 1)
    try:
        parsed: object = int(value)
    except ValueError:
        try:
            parsed = float(value)
        except ValueError:
            parsed = value
    return key.strip(), parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plssvm-workload",
        description="Profile-driven workload generation, SLO-graded load "
        "replay, and diagnosable failure reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered data and traffic profiles")

    gen = sub.add_parser(
        "generate", help="compile a deterministic traffic trace to JSON"
    )
    gen.add_argument("--traffic", required=True, help="traffic profile name")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--duration", type=float, default=10.0, help="trace seconds")
    gen.add_argument(
        "--models",
        default="default",
        help="comma-separated model names the trace addresses",
    )
    gen.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="profile parameter override (repeatable)",
    )
    gen.add_argument("-o", "--out", default=None, help="trace JSON path (default: stdout)")

    rep = sub.add_parser(
        "replay",
        help="replay a trace (deterministic sim by default; --url / --model "
        "for live targets) and write the replay result JSON",
    )
    rep.add_argument("trace", help="trace JSON from 'generate'")
    rep.add_argument("-o", "--out", default=None, help="result JSON path (default: stdout)")
    rep.add_argument(
        "--url",
        default=None,
        help="replay over HTTP against a live plssvm-serve at this base URL",
    )
    rep.add_argument(
        "--model",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="replay in-process against these model file(s) (repeatable)",
    )
    rep.add_argument(
        "--data-profile",
        default="planes",
        help="data profile shaping the request payloads (live modes) and "
        "the simulated per-row cost (sim mode)",
    )
    rep.add_argument("--data-seed", type=int, default=0, help="payload pool seed")
    rep.add_argument(
        "--pool-rows", type=int, default=512, help="payload pool size (live modes)"
    )
    rep.add_argument(
        "--num-features",
        type=int,
        default=None,
        help="payload feature count (live modes: must match the served model)",
    )
    rep.add_argument("--speed", type=float, default=1.0, help="time compression (live)")
    rep.add_argument(
        "--spot-check-every",
        type=int,
        default=0,
        help="in-process mode: compare every Nth response to the offline "
        "decision_function (0 disables)",
    )
    defaults = BatchPolicy()
    rep.add_argument("--max-batch-rows", type=int, default=defaults.max_batch_rows)
    rep.add_argument("--max-wait-ms", type=float, default=defaults.max_wait_ms)
    rep.add_argument("--max-queue-rows", type=int, default=defaults.max_queue_rows)
    rep.add_argument(
        "--base-ms", type=float, default=0.5, help="sim service model: fixed cost"
    )
    rep.add_argument(
        "--per-row-ms", type=float, default=0.05, help="sim service model: per-row cost"
    )

    grd = sub.add_parser(
        "grade",
        help="grade a replay result against an SLO; non-zero exit and a "
        "failure report on violation",
    )
    grd.add_argument("result", help="replay result JSON from 'replay'")
    grd.add_argument("--name", default="default", help="SLO name for the report")
    grd.add_argument("--p50-ms", type=float, default=50.0)
    grd.add_argument("--p99-ms", type=float, default=250.0)
    grd.add_argument("--max-reject-rate", type=float, default=0.01)
    grd.add_argument("--max-error-rate", type=float, default=0.0)
    grd.add_argument("--max-value-diff", type=float, default=1e-6)
    grd.add_argument("-o", "--out", default=None, help="grade JSON path")
    grd.add_argument(
        "--failure-report",
        default=None,
        metavar="PATH",
        help="also write the failure report JSON here when the SLO fails",
    )
    return parser


def _emit(payload: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(payload + ("" if payload.endswith("\n") else "\n"))
    else:
        print(payload)


def _cmd_list() -> int:
    from ..workloads.profiles_data import available_data_profiles, get_data_profile
    from ..workloads.profiles_traffic import (
        available_traffic_profiles,
        get_traffic_profile,
    )

    print("data profiles:")
    for name in available_data_profiles():
        profile = get_data_profile(name)
        tag = " [chunked]" if profile.chunked else ""
        print(f"  {name}{tag}: {profile.description}")
    print("traffic profiles:")
    for name in available_traffic_profiles():
        print(f"  {name}: {get_traffic_profile(name).description}")
    return 0


def _cmd_generate(args) -> int:
    from ..workloads.profiles_traffic import compile_trace

    params = dict(_parse_param(raw) for raw in args.param)
    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    trace = compile_trace(
        args.traffic,
        seed=args.seed,
        duration=args.duration,
        models=models or ("default",),
        **params,
    )
    if args.out:
        trace.write_json(args.out)
        print(
            f"compiled {trace.num_events} events over {trace.duration:g}s "
            f"({args.traffic}, seed {args.seed}) -> {args.out}\n"
            f"digest {trace.digest()}"
        )
    else:
        print(trace.to_json(indent=2))
    return 0


def _cmd_replay(args) -> int:
    import numpy as np

    from ..workloads.arrivals import WorkloadTrace
    from ..workloads.harness import HTTPTarget, InProcessTarget, replay
    from ..workloads.profiles_data import get_data_profile

    trace = WorkloadTrace.read_json(args.trace)
    policy = BatchPolicy(
        max_batch_rows=args.max_batch_rows,
        max_wait_ms=args.max_wait_ms,
        max_queue_rows=args.max_queue_rows,
    )
    profile = get_data_profile(args.data_profile)

    if args.url and args.model:
        print("error: --url and --model are mutually exclusive", file=sys.stderr)
        return 2

    if not args.url and not args.model:
        from ..workloads.simulate import ServiceModel, simulate_replay

        traits = profile.traits(
            {"num_features": args.num_features} if args.num_features else {}
        )
        service = ServiceModel(
            base_ms=args.base_ms,
            per_row_ms=args.per_row_ms,
            cost_scale=traits["cost_scale"],
        )
        result = simulate_replay(trace, policy=policy, service=service)
        result.config["data_profile"] = args.data_profile
    else:
        if profile.chunked:
            print(
                f"error: chunked profile {args.data_profile!r} cannot "
                "shape live payloads; pick a tabular one",
                file=sys.stderr,
            )
            return 2
        params = {"num_points": args.pool_rows}
        if args.num_features:
            params["num_features"] = args.num_features
        X, _ = profile.generate(seed=args.data_seed, **params)
        pool = np.asarray(X, dtype=np.float64)
        if args.url:
            target = HTTPTarget(args.url)
            oracles = None
        else:
            from ..serve.registry import ModelRegistry
            from ..serve.server import ServingApp

            registry = ModelRegistry()
            oracles = {}
            for spec in args.model:
                name, sep, path = spec.partition("=")
                if not sep:
                    name, path = Path(spec).stem, spec
                registry.register(name, path)
            app = ServingApp(registry, policy=policy)
            if args.spot_check_every > 0:
                for model in trace.models:
                    engine_name = (
                        model if model in registry else registry.models()[0]["name"]
                    )
                    engine = registry.get(engine_name)
                    oracles[model] = engine.model.decision_function
            target = InProcessTarget(app)
        try:
            result = replay(
                trace,
                target,
                row_pools={"*": pool},
                speed=args.speed,
                spot_check_every=args.spot_check_every,
                oracles=oracles,
            )
        finally:
            if not args.url:
                app.close()
        result.config["data_profile"] = args.data_profile
        result.config["policy"] = policy.as_dict()
    _emit(result.to_json(), args.out)
    if args.out:
        counts = result.counts()
        pct = result.percentiles_ms()
        print(
            f"replayed {counts['total']} requests ({result.mode}): "
            f"{counts['ok']} ok, {counts['rejected']} rejected, "
            f"{counts['error']} error; p50 {pct['p50']:.2f} ms, "
            f"p99 {pct['p99']:.2f} ms -> {args.out}"
        )
    return 0


def _cmd_grade(args) -> int:
    from ..workloads.harness import ReplayResult
    from ..workloads.slo import SLO, grade_replay

    result = ReplayResult.read_json(args.result)
    slo = SLO(
        name=args.name,
        p50_ms=args.p50_ms,
        p99_ms=args.p99_ms,
        max_reject_rate=args.max_reject_rate,
        max_error_rate=args.max_error_rate,
        max_value_diff=args.max_value_diff,
    )
    grade = grade_replay(result, slo)
    if args.out:
        Path(args.out).write_text(json.dumps(grade.as_dict(), indent=2) + "\n")
    print(grade.describe())
    if grade.failure_report is not None and args.failure_report:
        grade.failure_report.write_json(args.failure_report)
        print(f"failure report -> {args.failure_report}")
    return 0 if grade.passed else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "replay":
            return _cmd_replay(args)
        return _cmd_grade(args)
    except (PLSSVMError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
