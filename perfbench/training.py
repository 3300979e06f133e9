"""The two training workloads: ``fit_rbf_recompute`` and ``file_rbf_cached``.

Both run fit-plus-predict rounds through the program's public entry
points until the run's time is used up, check every round, and report
medians over the rounds.

``fit_rbf_recompute``: an in-memory RBF fit whose reduced system
(``(m-1)² · 8`` bytes, 512 MiB at m=8192) is twice the 256 MiB tile-cache
budget, so the pipeline keeps its cache off and every CG iteration
recomputes every kernel tile, the paper's matrix-free regime (§III-B).
No file is read or written.

``file_rbf_cached``: the plssvm-train / plssvm-predict round trip through
the functions those commands call, on a problem whose reduced system
(239 MiB at m=5600) fits the cache: each tile is computed once and then
replayed. The text files are kept narrow (d=8) so that parsing and
formatting, which are pure Python, stay a minority of each phase: pure
Python speed on a shared 2-vCPU VM swings by about 1.5x between minutes,
and at d=64, where parsing dominated, the workload's timings spread 0.31
between runs.

C is chosen so that CG takes the same number of iterations on every
seed (8 on fit_rbf_recompute, one seed in fourteen takes 7; 10 on
file_rbf_cached): with larger C the count flips between seeds (11 or 13
at C=0.1), and train_s would spread by seed rather than by the program.

Each round ends with ``ROW_PREDICTS`` one-row predictions through the
same entry point as the round's batch prediction, the latency an
application embedding the fitted model sees per request.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from repro.core import model as model_mod
from repro.core.lssvm import LSSVC
from repro.io import libsvm_format
from repro.serve.engine import PredictionEngine

import inputs
import stats
from outcome import Outcome

# Problem sizes, chosen for the regime each workload exercises (see the
# module docstring); ε is the program default of 1e-3.
CONFIG = {
    "fit_rbf_recompute": dict(m=8192, m_test=8192, d=16, C=0.02),
    "file_rbf_cached": dict(m=5600, m_test=8000, d=8, C=0.05),
}
EPSILON = 1e-3
#: Held-out accuracy floor; a correct fit reaches about 0.96 on these inputs.
ACCURACY_FLOOR = 0.93
#: Relative residual bound of the optimality check: the solver stops at
#: ε on a right-hand side at most √2 times the norm of y (see
#: ``stats.lssvm_residual``), so 2ε leaves room only for rounding.
RESIDUAL_TOL = 2 * EPSILON
#: One-row predictions per round; each takes about 0.1-0.2 ms here.
ROW_PREDICTS = 500


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Generate the inputs (and, for the file workload, write the files)."""
    cfg = CONFIG[workload]
    X, y, Xt, yt = inputs.train_test(seed, cfg["m"], cfg["m_test"], cfg["d"])
    data = dict(cfg, X=X, y=y, Xt=Xt, yt=yt)
    if workload == "file_rbf_cached":
        work.mkdir(parents=True, exist_ok=True)
        data["train_file"] = work / "train.libsvm"
        data["test_file"] = work / "test.libsvm"
        data["model_file"] = work / "train.libsvm.model"
        inputs.write_libsvm(data["train_file"], X, y)
        inputs.write_libsvm(data["test_file"], Xt, yt)
    return data


class _Round:
    """One fit-plus-predict round and the values its checks need."""

    def __init__(self) -> None:
        self.train_s = 0.0
        self.predict_s = 0.0
        self.rows = 0
        self.clf = None
        self.X: Optional[np.ndarray] = None
        self.y: Optional[np.ndarray] = None
        self.labels: Optional[np.ndarray] = None
        self.values: Optional[np.ndarray] = None
        self.accuracy = 0.0
        self.peak_mb = 0.0
        self.row_ms: List[float] = []
        self.row_labels: Optional[np.ndarray] = None


def _round_in_memory(data: dict, tracer) -> _Round:
    r = _Round()
    with _span(tracer, "round"):
        t0 = time.perf_counter()
        with _span(tracer, "train"):
            clf = LSSVC(kernel="rbf", C=data["C"])
            clf.fit(data["X"], data["y"])
        t1 = time.perf_counter()
        with _span(tracer, "predict"):
            labels = clf.predict(data["Xt"])
        t2 = time.perf_counter()
        with _span(tracer, "predict_row"):
            r.row_ms, r.row_labels = _one_row(clf.predict, data["Xt"])
    r.peak_mb = _peak_mb()
    r.train_s, r.predict_s, r.rows = t1 - t0, t2 - t1, len(labels)
    r.clf, r.X, r.y, r.labels = clf, data["X"], data["y"], labels
    return r


def _round_files(data: dict, tracer) -> _Round:
    # The io functions are looked up through their modules on every call
    # so that the traced run's wrappers are the ones called.
    r = _Round()
    with _span(tracer, "round"):
        t0 = time.perf_counter()
        with _span(tracer, "train"):
            X, y = libsvm_format.read_libsvm_file(data["train_file"])
            clf = LSSVC(kernel="rbf", C=data["C"])
            clf.fit(X, y)
            model_mod.save_model(clf.model_, data["model_file"])
        t1 = time.perf_counter()
        with _span(tracer, "predict"):
            model = model_mod.load_model(data["model_file"])
            Xt, _ = libsvm_format.read_libsvm_file(
                data["test_file"], num_features=model.num_features
            )
            engine = PredictionEngine(model)
            labels, values = engine.evaluate(Xt)
        t2 = time.perf_counter()
        with _span(tracer, "predict_row"):
            r.row_ms, r.row_labels = _one_row(lambda row: engine.evaluate(row)[0], Xt)
    r.peak_mb = _peak_mb()
    r.train_s, r.predict_s, r.rows = t1 - t0, t2 - t1, len(labels)
    r.clf, r.X, r.y, r.labels, r.values = clf, X, y, labels, values
    return r


def _one_row(predict: Callable, Xt: np.ndarray) -> Tuple[List[float], np.ndarray]:
    """Latency (ms) and label of ``predict`` on each of the first rows of ``Xt``."""
    ms, labels = [], []
    for i in range(ROW_PREDICTS):
        t = time.perf_counter()
        label = predict(Xt[i : i + 1])
        ms.append((time.perf_counter() - t) * 1e3)
        labels.append(label[0])
    return ms, np.asarray(labels)


def _peak_mb() -> float:
    """Peak RSS since the round's fit began.

    ``LSSVC.fit`` resets the kernel's high-water mark when it starts (see
    ``repro.membudget.reset_peak_rss``), so this is the round's own peak:
    fit, save and predict.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _span(tracer, name: str):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, tracer.new_rid() if name == "round" else None)


def check_fit(clf, X, y, C: float, labels, y_true, out: Outcome) -> Tuple[bool, float]:
    """Optimality residual and held-out accuracy of one fit.

    Returns whether both passed and the accuracy of ``labels`` against
    ``y_true``.
    """
    model = clf.model_
    # The model's multipliers solve for labels mapped to ±1 with its
    # first label as +1.
    y_internal = np.where(y == model.labels[0], 1.0, -1.0)
    res = stats.lssvm_residual(X, y_internal, model.alpha, model.bias, model.param.gamma, C, block=256)
    acc = float(np.mean(labels == y_true))
    ok = out.check("optimality residual", res <= RESIDUAL_TOL, f"{res:.3e} <= {RESIDUAL_TOL:.1e}")
    ok &= out.check("held-out accuracy", acc >= ACCURACY_FLOOR, f"{acc:.4f} >= {ACCURACY_FLOOR}")
    return ok, acc


def _check(workload: str, data: dict, r: _Round, out: Outcome) -> bool:
    """Every check of one round; returns whether all passed."""
    ok, acc = check_fit(r.clf, r.X, r.y, data["C"], r.labels, data["yt"], out)
    ok &= out.check(
        "one-row predictions",
        np.array_equal(r.row_labels, r.labels[:ROW_PREDICTS]),
        "each one-row label equals the batch prediction's label of that row",
    )
    if workload == "file_rbf_cached":
        labels, values = PredictionEngine(r.clf.model_).evaluate(data["Xt"])
        same = bool(np.array_equal(values, r.values) and np.array_equal(labels, r.labels))
        ok &= out.check(
            "save/load round trip", same, "loaded model predicts identically to the fitted one"
        )
    r.accuracy = acc
    return ok


def _rounds(workload: str, data: dict, seconds: float, out: Outcome, tracer=None) -> List[_Round]:
    """Run checked rounds until ``seconds`` would be exceeded (at least one)."""
    run_round = _round_in_memory if workload == "fit_rbf_recompute" else _round_files
    done: List[_Round] = []
    start = time.perf_counter()
    durations: List[float] = []
    while True:
        # Start every round from a collected heap, as a fresh plssvm-train
        # process would: garbage of the previous round must not decide
        # this round's collections or its peak memory.
        gc.collect()
        t = time.perf_counter()
        out.attempted += 1
        try:
            r = run_round(data, tracer)
            passed = _check(workload, data, r, out)
        except Exception as exc:  # a failed round counts; the run goes on
            out.check("round completed", False, repr(exc))
            passed = False
            r = None
        if not passed:
            out.failed += 1
        elif r is not None:
            done.append(r)
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if elapsed + stats.median(durations) > seconds:
            break
    return done


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path, out: Outcome, t_start: float) -> None:
    data = prepare(workload, seed, work)
    out.setup_s.append(time.perf_counter() - t_start)
    if not trace:
        rounds = _rounds(workload, data, seconds, out)
        _end_to_end(rounds, out)
        return
    # Traced run: an untraced half for the overhead baseline, then the
    # traced half with the wrappers installed.
    import tracing as tr

    base = _rounds(workload, data, seconds / 2, out)
    tracer = tr.Tracer()
    tr.install_training(tracer)
    try:
        traced = _rounds(workload, data, seconds / 2, out, tracer)
    finally:
        tracer.unpatch()
    tracer.dump(work / "spans.json")
    _per_layer(workload, base, traced, tracer, out, seed)


def _end_to_end(rounds: List[_Round], out: Outcome) -> None:
    if not rounds:
        return
    train = [r.train_s for r in rounds]
    rate = [r.rows / r.predict_s for r in rounds]
    out.metric("train_s", stats.median(train), "s", n=len(train))
    out.metric("predict_rows_per_s", stats.median(rate), "rows/s", n=len(rate))
    p50, n = stats.percentile([ms for r in rounds for ms in r.row_ms], 50)
    if p50 is not None:
        out.metric("predict_p50_ms", p50, "ms", n=n)
    out.metric("test_accuracy", stats.median([r.accuracy for r in rounds]), "ratio", n=len(rounds))
    out.metric("peak_rss_mb", stats.median([r.peak_mb for r in rounds]), "MB", n=len(rounds))
    out.note("train_s samples: " + " ".join(f"{v:.3f}" for v in train))
    out.note("predict_rows_per_s samples: " + " ".join(f"{v:.0f}" for v in rate))


def _per_layer(workload: str, base: List[_Round], traced: List[_Round], tracer, out: Outcome, seed: int) -> None:
    spans = tracer.spans
    by_rid: Dict[int, List] = {}
    train_spans = [i for i, sp in enumerate(spans) if sp.name == "train"]
    for sp in spans:
        by_rid.setdefault(sp.rid, []).append(sp)
    rounds = [by_rid[spans[i].rid] for i in train_spans]

    def per_round(name, field="dur"):
        return [sum(getattr(s, field) for s in rs if s.name == name) for rs in rounds]

    def med(values):
        return stats.median(values) if values else 0.0

    # Metrics of layers a workload bypasses are left out here; run.py
    # reports them as 0 with the reason.
    m = out.metric
    reads = [s for s in spans if s.name == "io.read"]
    if reads:
        m("io.read_s", med(per_round("io.read")), "s")
        m("io.read_mb_per_s", sum(s.attrs["bytes"] for s in reads) / 1e6 / sum(s.dur for s in reads), "MB/s")
        m("io.save_s", med(per_round("io.save")), "s")
        m("io.load_s", med(per_round("io.load")), "s")
    m("qmatrix.build_s", med(per_round("qmatrix.build")), "s")

    sweeps = [[s for s in rs if s.name == "tile_pipeline.sweep"] for rs in rounds]
    m("tile_pipeline.sweeps", med([len(s) for s in sweeps]), "count")
    m("tile_pipeline.sweep_s", med([sum(x.dur for x in s) for s in sweeps]), "s")
    m("tile_pipeline.tiles_computed", med([sum(x.attrs["computed"] for x in s) for s in sweeps]), "count")
    work_per_fit = [_sweep_work(s) for s in sweeps]
    m("tile_pipeline.kernel_entries", med([w[0] for w in work_per_fit]), "count")
    m("tile_pipeline.flops_computed", med([w[1] for w in work_per_fit]), "flop")
    m("tile_pipeline.bytes_computed", med([w[2] for w in work_per_fit]), "B")
    out.note("tile_pipeline.{kernel_entries,flops_computed,bytes_computed} are computed from tile shapes, not counted by hardware")

    counters = [r.clf.report_.counters for r in traced]
    hits = sum(c["cache_hits"] for c in counters)
    lookups = hits + sum(c["cache_misses"] for c in counters)
    if lookups:
        m("tile_pipeline.cache_hit_ratio", hits / lookups, "ratio")

    # Only the timed predict phase: each round's untimed round-trip check
    # evaluates the test set again.
    cross = [s for s in spans if s.name == "tile_pipeline.cross_sweep" and _under(spans, s, "predict")]
    if cross:
        m("tile_pipeline.cross_sweep_s", med([s.dur for s in cross]), "s", n=len(cross))
        m("tile_pipeline.cross_rows_per_sweep", float(np.mean([s.attrs["rows"] for s in cross])), "rows")

    cg = [[s for s in rs if s.name == "cg.solve"] for rs in rounds]
    m("cg.iterations", med([sum(x.attrs["iterations"] for x in c) for c in cg]), "count")
    m("cg.solve_s", med(per_round("cg.solve")), "s")
    m("cg.self_s", med(per_round("cg.solve", "self_s")), "s")
    m("cg.rel_residual", med([c[-1].attrs["residual"] for c in cg if c]), "ratio")
    m("lssvm.fit_s", med(per_round("lssvm.fit")), "s")
    m("lssvm.self_s", med(per_round("lssvm.fit", "self_s")), "s")
    predict_names = ("model.decision_function", "engine.evaluate")
    m("model.predict_s", med([
        sum(s.dur for s in rs if s.name in predict_names and s.parent >= 0 and spans[s.parent].name == "predict")
        for rs in rounds
    ]), "s")

    # Coverage of train_s by the program's spans; the benchmark's own
    # "train" span keeps whatever no entry point accounts for.
    train = [spans[i] for i in train_spans]
    total = sum(s.dur for s in train)
    m("trace.attributed_share", (total - sum(s.self_s for s in train)) / total if total else 0.0, "ratio")
    m("trace.unattributed_s", med([s.self_s for s in train]), "s")
    if base and traced:
        tb, tt = stats.median([r.train_s for r in base]), stats.median([r.train_s for r in traced])
        pb, pt = stats.median([r.predict_s for r in base]), stats.median([r.predict_s for r in traced])
        m("trace.overhead_train", (tt - tb) / tb, "ratio")
        m("trace.overhead_predict", (pt - pb) / pb, "ratio")
    if workload == "fit_rbf_recompute" and base:
        try:
            one = _single_thread_fit(seed)
        except (subprocess.SubprocessError, ValueError, IndexError, KeyError) as exc:
            out.check("single-threaded baseline", False, repr(exc))
        else:
            m("tile_pipeline.speedup_vs_1t", one / stats.median([r.train_s for r in base]), "x")

    # Counters from the program's own report, per fit.
    for key in ("cg_iterations", "tile_sweeps", "tiles_computed", "cache_hits", "cache_misses"):
        m(f"counters.{key}", med([float(c[key]) for c in counters]), "count", n=len(counters))
    sweep_mean = [r.clf.report_.as_dict()["metrics"]["sweep_seconds"]["mean"] for r in traced]
    m("counters.sweep_seconds_mean", med(sweep_mean), "s", n=len(sweep_mean))


def _under(spans, span, name: str) -> bool:
    """Whether ``span`` has an ancestor span called ``name``."""
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def _sweep_work(sweeps) -> tuple:
    """Kernel entries, flops and bytes of one fit's sweeps, from tile shapes.

    Per computed tile of ``r`` rows: ``r·n`` entries, ``2·r·n·d`` flops
    for the distance product plus 4 per entry (norm sums, scale, exp).
    Every tile, cached or not, adds ``2·r·n·k`` flops for ``tile @ V`` and
    reads its ``r·n`` entries; computed tiles also write them.
    """
    entries = flops = nbytes = 0.0
    for s in sweeps:
        a = s.attrs
        n, d, k, size = a["n"], a["d"], a["k"], a["itemsize"]
        computed_entries = a["computed"] * n * n / a["tiles"]
        entries += computed_entries
        flops += computed_entries * (2 * d + 4) + 2.0 * n * n * k
        nbytes += (n * n + computed_entries) * size + 2.0 * n * k * 8
    return entries, flops, nbytes


def _single_thread_fit(seed: int) -> float:
    """Seconds of one fit of the same problem in a child pinned to one thread."""
    env = dict(os.environ, PLSSVM_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--single-thread-fit", "--seed", str(seed)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["fit_s"])


def single_thread_fit(seed: int) -> float:
    """One timed fit of the fit_rbf_recompute problem (the child's side)."""
    data = prepare("fit_rbf_recompute", seed, Path("."))
    clf = LSSVC(kernel="rbf", C=data["C"])
    t0 = time.perf_counter()
    clf.fit(data["X"], data["y"])
    return time.perf_counter() - t0
