"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload approx-i62 --seeds 1-10 --seconds 20

Runs are sequential, one process at a time.  For every end-to-end metric
it prints the median, the quartiles and the quartile spread (Q3 - Q1) /
median with ``statistics.quantiles(values, n=4)``, next to the metric's
bound from BENCHMARK.json; a steady benchmark keeps each spread below a
third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from benchlib.stats import quartile_spread  # noqa: E402


def seed_range(text: str) -> list:
    """Seeds ``lo`` to ``hi`` inclusive, from ``"lo-hi"``."""
    lo, hi = (int(v) for v in text.split("-"))
    return list(range(lo, hi + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range 'lo-hi'")
    p.add_argument("--seconds", type=int)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in seed_range(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        t = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {k: m["value"] for k, m in result["metrics"].items()}
        print(f"seed {seed} ({wall:.1f} s): "
              + ", ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for k, vs in values.items():
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = quartile_spread(vs)
        bound = bounds.get(k)
        note = "" if bound is None else f"  bound {bound}  spread/bound {spread / bound:.2f}"
        print(f"{k}: median {med:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  spread {spread:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
