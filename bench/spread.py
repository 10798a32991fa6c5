#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads compare-wide,annotate-cold --seeds 1-10

For every workload and metric it prints the median over the seeds, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread: (q3 - q1) / median. End-to-end metrics also show their bound from
BENCHMARK.json and whether the spread is under a third of it. Runs are
sequential and untraced, one process at a time, each in this tree. Results, with each
run's wall time, go to ``bench/out/spread-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--label", default="latest")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        walls = []
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: wall {walls[-1]:.1f} s", file=sys.stderr)

        print(f"\n{workload}: {len(walls)} runs, wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        rows = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            spread = (q3 - q1) / abs(median) if median else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                steady = spread < bound / 3
                verdict = f"bound {bound:<5} {'steady' if steady else 'NOT STEADY'}"
                ok &= steady
            print(f"  {name:34s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  {verdict}")
            rows[name] = {"values": vals, "median": median, "q1": q1, "q3": q3,
                          "spread": spread}
        report[workload] = {"wall_s": walls, "metrics": rows}

    out = ROOT / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"spread-{args.label}.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
