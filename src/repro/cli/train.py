"""``plssvm-train``: train an LS-SVM model from a LIBSVM data file.

Accepts the LIBSVM ``svm-train`` options PLSSVM supports (``-t``, ``-c``,
``-g``, ``-d``, ``-r``, ``-e``) plus the PLSSVM-specific backend switches
(``--backend``, ``--target_platform``, ``--num_devices``). Prints the
component timing breakdown with ``-v/--verbose``, mirroring the C++
binary's output. ``--telemetry-json`` / ``--telemetry-trace`` export the
fit's :class:`repro.telemetry.TrainingReport` as JSON and as a
chrome-trace file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from ..core.lssvm import LSSVC
from ..io.binary_format import is_binary_file, read_binary_file
from ..io.libsvm_format import read_libsvm_file
from ..parameter import ResourceConfig, SolverConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plssvm-train",
        description="Train a least-squares SVM (LIBSVM-compatible drop-in).",
    )
    parser.add_argument("training_file", help="LIBSVM-format training data")
    parser.add_argument(
        "model_file",
        nargs="?",
        default=None,
        help="output model file (default: <training_file>.model)",
    )
    parser.add_argument(
        "-t",
        "--kernel_type",
        default="linear",
        help="kernel: 0/linear, 1/polynomial, 2/rbf (default: linear)",
    )
    parser.add_argument("-c", "--cost", type=float, default=1.0, help="C parameter")
    parser.add_argument(
        "-g", "--gamma", type=float, default=None, help="gamma (default 1/num_features)"
    )
    parser.add_argument("-d", "--degree", type=int, default=3, help="polynomial degree")
    parser.add_argument("-r", "--coef0", type=float, default=0.0, help="kernel coef0")
    parser.add_argument(
        "-e",
        "--epsilon",
        type=float,
        default=1e-3,
        help="CG relative residual termination criterion",
    )
    parser.add_argument(
        "-i", "--max_iter", type=int, default=None, help="CG iteration cap"
    )
    parser.add_argument(
        "-b",
        "--backend",
        default="openmp",
        help="backend: openmp, cuda, opencl, sycl, automatic",
    )
    parser.add_argument(
        "-p",
        "--target_platform",
        default="automatic",
        help="target platform: automatic, cpu, gpu_nvidia, gpu_amd, gpu_intel",
    )
    parser.add_argument(
        "--num_devices", type=int, default=1, help="simulated devices (linear kernel)"
    )
    parser.add_argument(
        "--solver-threads",
        type=int,
        default=None,
        help="worker threads for the kernel-tile sweeps of the implicit "
        "matvec (default: OMP_NUM_THREADS / CPU count)",
    )
    parser.add_argument(
        "--tile-cache-mb",
        type=float,
        default=None,
        help="byte budget (MiB) of the cross-iteration kernel-tile cache "
        "(0 disables; default 256)",
    )
    parser.add_argument(
        "--float32", action="store_true", help="train in single precision"
    )
    parser.add_argument(
        "--precondition",
        choices=["none", "jacobi", "nystrom"],
        default="none",
        help="CG preconditioner: none (plain CG), jacobi (diagonal "
        "scaling), nystrom (randomized low-rank; cuts iterations on "
        "ill-conditioned RBF systems)",
    )
    parser.add_argument(
        "--precond-rank",
        type=int,
        default=None,
        help="rank of the nystrom approximation (default ~2*sqrt(m))",
    )
    parser.add_argument(
        "--solver",
        choices=["cg", "nystrom", "rff"],
        default="cg",
        help="solver strategy: cg (exact iterative solve), nystrom (direct "
        "rank-r randomized solve, O(m*r) train time), rff (random Fourier "
        "feature primal, RBF only; writes a compact O(r) model)",
    )
    parser.add_argument(
        "--solver-rank",
        type=int,
        default=None,
        metavar="R",
        help="rank r of the randomized solver strategies "
        "(default ~4*sqrt(m), capped at 1024)",
    )
    parser.add_argument(
        "--solver-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for RPCholesky pivoting / Fourier feature sampling; "
        "fixed seed makes randomized fits bit-reproducible (default 0)",
    )
    parser.add_argument(
        "--polish-iters",
        type=int,
        default=0,
        metavar="N",
        help="warm-started exact-CG refinement iterations after the "
        "nystrom direct solve (default 0)",
    )
    parser.add_argument(
        "--compute-dtype",
        choices=["float32", "float64"],
        default=None,
        help="mixed precision: evaluate/cache kernel tiles in this dtype "
        "while the CG recursion stays in the working precision",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help="inject simulated device faults (device backends only). SPEC is "
        "comma-separated: seed=N plus rates lost=P / transient=P / latency=P "
        "(per-operation probabilities, latency_s=X sets the spike length), "
        "and/or scripted events KIND@DEV:OP:N[:SECONDS], e.g. "
        "'seed=7,transient=0.001' or 'lost@2:launch:25'",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        metavar="N",
        help="snapshot the CG solver state every N iterations so a solve "
        "interrupted by a device fault resumes instead of restarting "
        "(default 10 when --fault-plan is given)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=3,
        metavar="N",
        help="transient-fault retries without progress before the device "
        "is treated as lost (default 3)",
    )
    parser.add_argument(
        "--memory-budget-mb",
        type=float,
        default=None,
        metavar="MB",
        help="hard training-memory budget in MiB: the data is streamed in "
        "row blocks from disk (text formats are spilled once to a PLSB "
        "binary cache), the kernel-tile cache gets at most a quarter of "
        "the budget, and the report's peak_rss_bytes records the realized "
        "high-water mark",
    )
    parser.add_argument(
        "--telemetry-json",
        default=None,
        metavar="PATH",
        help="write the fit's TrainingReport (spans, per-phase seconds, "
        "solver counters, device summaries) as JSON to PATH",
    )
    parser.add_argument(
        "--telemetry-trace",
        default=None,
        metavar="PATH",
        help="write the fit's merged chrome-trace (host CG spans on pid 0, "
        "simulated device events on pid 1) to PATH; load via "
        "chrome://tracing or Perfetto",
    )
    parser.add_argument(
        "-x",
        "--cross_validation",
        type=int,
        default=None,
        metavar="K",
        help="report K-fold cross-validation accuracy instead of writing a model "
        "(LIBSVM's -v; renamed because -v is verbose here)",
    )
    parser.add_argument(
        "--follow",
        action="store_true",
        help="streaming mode: treat the training file as a growing PLSB "
        "file (or a directory receiving *.plsb chunks), refit "
        "incrementally via partial_fit on every append, and publish a "
        "generation-stamped model artifact after each refit",
    )
    parser.add_argument(
        "--poll-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="--follow: seconds between polls of the watched source "
        "(default 1.0)",
    )
    parser.add_argument(
        "--max-generations",
        type=int,
        default=None,
        metavar="N",
        help="--follow: exit after N incremental refits (default: run "
        "until interrupted)",
    )
    parser.add_argument(
        "--serve-url",
        default=None,
        metavar="URL",
        help="--follow: base URL of a running plssvm-serve; each refit "
        "POSTs /models/<model-name>/reload for zero-downtime rollout",
    )
    parser.add_argument(
        "--model-name",
        default="model",
        metavar="NAME",
        help="--follow: serving name used for the reload push (default "
        "'model')",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    model_path = args.model_file or f"{args.training_file}.model"

    import numpy as np

    precondition = None if args.precondition == "none" else args.precondition
    fault_plan = None
    if args.fault_plan is not None:
        from ..simgpu.faults import parse_fault_plan

        fault_plan = parse_fault_plan(args.fault_plan)
    # The randomized strategies are host-side direct solves: no CG loop to
    # offload, so the backend machinery (and the CG-only knobs) stays off.
    randomized = args.solver != "cg"
    if randomized:
        conflicts = []
        if precondition is not None:
            conflicts.append("--precondition")
        if fault_plan is not None:
            conflicts.append("--fault-plan")
        if args.checkpoint_interval is not None:
            conflicts.append("--checkpoint-interval")
        if conflicts:
            print(
                f"error: {', '.join(conflicts)} only applies to --solver cg",
                file=sys.stderr,
            )
            return 2
    # The follow daemon drives partial_fit, which runs the host-side
    # incremental engine: exact CG only, no backend.
    if args.follow:
        conflicts = []
        if randomized:
            conflicts.append("--solver " + args.solver)
        if fault_plan is not None:
            conflicts.append("--fault-plan")
        if args.checkpoint_interval is not None:
            conflicts.append("--checkpoint-interval")
        if args.cross_validation is not None:
            conflicts.append("--cross_validation")
        if conflicts:
            print(
                f"error: {', '.join(conflicts)} does not combine with --follow",
                file=sys.stderr,
            )
            return 2
    # Budgeted training streams row blocks through the NumPy dense-free
    # operator: no backend, no dense X.
    out_of_core = args.memory_budget_mb is not None
    if out_of_core:
        if args.cross_validation is not None:
            print(
                "error: --cross_validation resamples the data in memory; "
                "it does not combine with --memory-budget-mb",
                file=sys.stderr,
            )
            return 2
        if fault_plan is not None:
            print(
                "error: --fault-plan drives device backends; the out-of-core "
                "path is host-side (drop --memory-budget-mb)",
                file=sys.stderr,
            )
            return 2
    if args.follow:
        return _run_follow(args, model_path, precondition)
    solver_config = SolverConfig(
        solver=args.solver,
        solver_rank=args.solver_rank,
        solver_seed=args.solver_seed,
        polish_iters=args.polish_iters,
        precondition=None if randomized else precondition,
        precond_rank=args.precond_rank,
    )
    resource_config = ResourceConfig(
        solver_threads=args.solver_threads,
        tile_cache_mb=args.tile_cache_mb,
        compute_dtype=args.compute_dtype,
        fault_plan=None if randomized else fault_plan,
        checkpoint_interval=None if randomized else args.checkpoint_interval,
        max_retries=args.max_retries,
        memory_budget_mb=args.memory_budget_mb,
    )
    clf = LSSVC(
        kernel=_parse_kernel(args.kernel_type),
        C=args.cost,
        gamma=args.gamma,
        degree=args.degree,
        coef0=args.coef0,
        epsilon=args.epsilon,
        max_iter=args.max_iter,
        backend=None if randomized or out_of_core else args.backend,
        target=args.target_platform,
        n_devices=args.num_devices,
        dtype=np.float32 if args.float32 else np.float64,
        config=solver_config,
        resources=resource_config,
    )
    dataset = None
    with clf.timings_.section("read"):
        if out_of_core:
            from ..io.chunked import open_chunked

            dataset = open_chunked(
                args.training_file, memory_budget_mb=args.memory_budget_mb
            )
            X, y = dataset, dataset.y
        elif is_binary_file(args.training_file):
            X, y = read_binary_file(args.training_file)
        else:
            X, y = read_libsvm_file(args.training_file, dtype=clf.param.dtype)
    read_timer = clf.timings_["read"]

    if args.cross_validation is not None:
        if args.cross_validation < 2:
            print("error: cross-validation needs K >= 2", file=sys.stderr)
            return 2
        import dataclasses

        from ..core.estimator import clone
        from ..model_selection import cross_val_score

        # Clone the fully-configured estimator per fold; fault injection
        # and checkpointing stay off during CV (fold scores should measure
        # the model, not the recovery machinery). The resources config is
        # authoritative over flat kwargs, so the override goes through it.
        prototype = clone(clf).set_params(
            resources=dataclasses.replace(
                resource_config, fault_plan=None, checkpoint_interval=None
            )
        )
        scores = cross_val_score(
            prototype,
            X,
            y,
            k=args.cross_validation,
            rng=0,
        )
        print(f"Cross Validation Accuracy = {scores.mean() * 100:.4f}%")
        if args.verbose:
            folds = " ".join(f"{s * 100:.2f}%" for s in scores)
            print(f"per-fold: {folds}")
        return 0

    clf.fit(X, y)
    clf.timings_["read"].add(read_timer.elapsed)  # fit() resets timers
    clf.save(model_path)

    report = clf.report_
    counters = report.counters
    if args.telemetry_json is not None:
        report.write_json(args.telemetry_json)
        if args.verbose:
            print(f"telemetry report -> {args.telemetry_json}")
    if args.telemetry_trace is not None:
        events = report.write_chrome_trace(args.telemetry_trace)
        if args.verbose:
            print(f"chrome trace ({events} events) -> {args.telemetry_trace}")

    if fault_plan is not None or counters["devices_lost"] or counters["transient_retries"]:
        # Always surface recovery activity when faults are in play — the
        # solve finishing silently would hide that devices died under it.
        print(
            f"resilience: {counters['devices_lost']} device(s) lost, "
            f"{counters['redistributions']} redistribution(s), "
            f"{counters['checkpoint_restores']} checkpoint restore(s), "
            f"{counters['transient_retries']} transient retry(ies), "
            f"backoff {counters['backoff_seconds']:.3f}s"
        )
        if args.verbose and fault_plan is not None:
            for rec in fault_plan.records:
                print(
                    f"  fault: {rec.kind} on device {rec.device_id} "
                    f"({rec.device_name}) during {rec.op} #{rec.op_index}"
                )

    if out_of_core:
        from ..membudget import format_bytes

        print(
            f"out-of-core: peak RSS {format_bytes(report.peak_rss_bytes)} "
            f"(budget {args.memory_budget_mb:g} MiB, "
            f"dense data would be {format_bytes(X.nbytes_dense)})"
        )
    if args.verbose:
        print(f"backend: {clf._resolve_backend().describe() if clf.backend else 'numpy reference'}")
        print(f"parameters: {clf.param.describe()}")
        if report.peak_rss_bytes:
            print(f"peak RSS: {report.peak_rss_bytes} bytes")
        solver_info = report.as_dict()["solver"]
        if solver_info["strategy"] != "cg":
            print(
                f"solver: {solver_info['strategy']} (rank "
                f"{solver_info['rank']}, setup "
                f"{solver_info['setup_seconds']:.3f}s, "
                f"{clf.iterations_} polish iterations)"
            )
        print(f"CG iterations: {clf.iterations_}")
        print(f"final relative residual: {clf.result_.residual:.3e}")
        if counters["precond_setups"]:
            print(
                f"preconditioner: {args.precondition} (rank "
                f"{counters['precond_rank']}, setup "
                f"{counters['precond_setup_seconds']:.3f}s)"
            )
        if counters["tile_sweeps"]:
            print(
                f"tile sweeps: {counters['tile_sweeps']}, tiles computed: "
                f"{counters['tiles_computed']}, cache hit rate: "
                f"{counters['cache_hit_rate']:.1%} "
                f"({counters['cache_hits']} hits / {counters['cache_misses']} misses / "
                f"{counters['cache_evictions']} evictions)"
            )
        print(clf.timings_.report())
    if randomized:
        print(
            f"trained on {X.shape[0]} points x {X.shape[1]} features "
            f"-> {Path(model_path).name} ({args.solver} direct solve, "
            f"rank {report.as_dict()['solver']['rank']})"
        )
    else:
        print(
            f"trained on {X.shape[0]} points x {X.shape[1]} features "
            f"-> {Path(model_path).name} ({clf.iterations_} CG iterations)"
        )
    if dataset is not None:
        dataset.close()
    return 0


def _run_follow(args, model_path: str, precondition) -> int:
    """``--follow``: watch the source, refit incrementally, publish."""
    from ..train import FollowTrainer

    import numpy as np

    clf = LSSVC(
        kernel=_parse_kernel(args.kernel_type),
        C=args.cost,
        gamma=args.gamma,
        degree=args.degree,
        coef0=args.coef0,
        epsilon=args.epsilon,
        max_iter=args.max_iter,
        backend=None,
        dtype=np.float32 if args.float32 else np.float64,
        config=SolverConfig(
            precondition=precondition, precond_rank=args.precond_rank
        ),
        resources=ResourceConfig(
            solver_threads=args.solver_threads,
            tile_cache_mb=args.tile_cache_mb,
            compute_dtype=args.compute_dtype,
            memory_budget_mb=args.memory_budget_mb,
        ),
    )
    on_event = print if args.verbose else None
    try:
        trainer = FollowTrainer(
            clf,
            args.training_file,
            model_path=model_path,
            model_name=args.model_name,
            serve_url=args.serve_url,
            poll_interval=args.poll_interval,
            max_generations=args.max_generations,
            on_event=on_event,
        )
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with trainer:
        rows = trainer.run()
    print(
        f"followed {args.training_file}: {trainer.chunks_consumed} chunk(s), "
        f"{rows} rows, {trainer.generation + 1} generation(s) "
        f"-> {Path(model_path).name}"
    )
    return 0


def _parse_kernel(value: str):
    try:
        return int(value)
    except ValueError:
        return value


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
