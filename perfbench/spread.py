"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve_http --seeds 1-10

Each run measures for ``run_seconds`` of ``BENCHMARK.json``. For every
end-to-end metric prints the median over the runs and the
inter-quartile range as a share of that median (Python's
``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``. A spread at or above a third of the bound is flagged.
The raw result lines are appended to ``.perfbench/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import stats  # noqa: E402


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = manifest["run_seconds"]
    log = ROOT / ".perfbench" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}", flush=True)
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        with log.open("a") as f:
            f.write(json.dumps(dict(seed=seed, **result)) + "\n")
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {values}", flush=True)
    for m in manifest["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
        if len(values) < 2:
            continue
        q2, spread = stats.quartile_spread(values)
        flag = "  <-- at or above a third of the bound" if spread >= m["bound"] / 3 else ""
        print(f"{m['name']:>22}: median {q2:.5g} {m['unit']}, spread {spread:.4f} (bound {m['bound']}){flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
