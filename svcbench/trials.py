#!/usr/bin/env python3
"""Trial runner: warm-up, then repeated seeded runs, with median and quartiles.

    python3 svcbench/trials.py --runs 10 --out runs.json
    python3 svcbench/trials.py --runs 10 --change ../other-checkout --out pairs.json

Each workload gets one discarded warm-up run (it also builds), then --runs
runs with seeds --seed0, --seed0+1, ... With --change, every seed is run on
this checkout ("parent") and on the other one ("change") as a pair, and
the side that goes first alternates from pair to pair. The output file
feeds compare.py; the table printed at the end gives each metric's median,
quartiles and interquartile spread as a share of the median.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def one_run(checkout, workload, seed, seconds):
    cmd = [sys.executable, "svcbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"trials: {' '.join(cmd)} failed in {checkout}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["host"] = next((line.strip() for line in lines if line.strip().startswith("host:")), "")
    return result


def table(side, runs_by_workload):
    print(f"== {side}")
    for workload, runs in runs_by_workload.items():
        print(f"  {workload} ({len(runs)} runs; {runs[0]['host'] if runs else ''})")
        names = runs[0]["metrics"].keys() if runs else []
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = stats.quartiles(values)
            unit = runs[0]["metrics"][name]["unit"]
            print(f"    {name:<40} median {q2:12.4f} {unit:<6} q1 {q1:12.4f} q3 {q3:12.4f}"
                  f"  spread {100 * stats.relative_spread(values):6.2f}%")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"    correct in every run: {correct}; failed {failed} of {attempted} attempted")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--change", help="a second checkout to pair against this one")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sides = {"parent": str(ROOT)}
    if args.change:
        sides["change"] = os.path.abspath(args.change)
    results = {side: {w: [] for w in args.workloads} for side in sides}
    for workload in args.workloads:
        for checkout in sides.values():
            one_run(checkout, workload, args.seed0 - 1, args.seconds)  # warm-up
        for i in range(args.runs):
            seed = args.seed0 + i
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                result = one_run(sides[side], workload, seed, args.seconds)
                results[side][workload].append(result)
                print(f"{side} {workload} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
    Path(args.out).write_text(json.dumps({"checkouts": sides, "seconds": args.seconds,
                                          "runs": results}, indent=1))
    for side, by_workload in results.items():
        table(side, by_workload)


if __name__ == "__main__":
    main()
