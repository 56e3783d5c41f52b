#!/usr/bin/env python3
"""Compares two sets of runs (parent and change) by the benchmark's rules.

    python3 svcbench/compare.py pairs.json                 # trials.py --change output
    python3 svcbench/compare.py parent.json change.json    # two separate trials.py outputs

Per workload and end-to-end metric of BENCHMARK.json:
  * gain: the change wins at least 9 of 10 pairs (ties count for neither
    side) and the medians differ by more than the parent's interquartile
    range;
  * unresolved: either side's interquartile spread, as a share of its
    median, exceeds the metric's bound, unless every change run reads
    better than every parent run;
  * regression: the change's median is worse than the parent's by more
    than the bound;
  * otherwise no regression.
A change that fails more operations than the parent (failed / attempted,
over all runs of the workload) or has an incorrect run is rejected.
Prints one row per workload; exits 1 when any workload is rejected.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GAIN_SHARE = 0.9


def is_better(a, b, better):
    return a > b if better == "higher" else a < b


def compare_metric(parent, change, better, bound):
    """Verdict for one metric on one workload; `parent` and `change` are the
    per-run values, paired by position."""
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if is_better(c, p, better))
    losses = sum(1 for p, c in pairs if is_better(p, c, better))
    p1, pm, p3 = stats.quartiles(parent)
    cm = stats.median(change)
    worse_share = (cm - pm) / abs(pm) if pm else 0.0
    if better == "higher":
        worse_share = -worse_share
    spread = max(stats.relative_spread(parent), stats.relative_spread(change))
    all_better = all(is_better(c, p, better) for c in change for p in parent)
    if (pairs and wins >= GAIN_SHARE * len(pairs) and abs(cm - pm) > p3 - p1
            and is_better(cm, pm, better)):
        verdict = "gain"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse_share > bound:
        verdict = "regression"
    else:
        verdict = "no regression"
    return {"verdict": verdict, "wins": wins, "losses": losses, "pairs": len(pairs),
            "parent_median": pm, "change_median": cm, "worse_share": worse_share,
            "spread": spread}


def compare_workload(parent_runs, change_runs, end_to_end):
    """Row for one workload: every metric's verdict plus the failure rule."""
    metrics = {}
    for m in end_to_end:
        parent = [r["metrics"][m["name"]]["value"] for r in parent_runs]
        change = [r["metrics"][m["name"]]["value"] for r in change_runs]
        metrics[m["name"]] = compare_metric(parent, change, m["better"], m["bound"])

    def fail_ratio(runs):
        attempted = sum(r["attempted"] for r in runs)
        return sum(r["failed"] for r in runs) / attempted if attempted else 0.0

    verdicts = {v["verdict"] for v in metrics.values()}
    if fail_ratio(change_runs) > fail_ratio(parent_runs) or not all(
            r["correct"] for r in change_runs):
        row = "reject (more failed operations or an incorrect run)"
    elif "regression" in verdicts:
        row = "reject (regression)"
    elif "unresolved" in verdicts:
        row = "unresolved"
    elif "gain" in verdicts:
        row = "gain: " + ", ".join(n for n, v in metrics.items() if v["verdict"] == "gain")
    else:
        row = "no change beyond noise"
    return {"row": row, "metrics": metrics,
            "fail_ratio": (fail_ratio(parent_runs), fail_ratio(change_runs))}


def load_sides(paths):
    docs = [json.loads(Path(p).read_text())["runs"] for p in paths]
    if len(docs) == 1:
        return docs[0]["parent"], docs[0]["change"]
    return next(iter(docs[0].values())), next(iter(docs[1].values()))


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_sides(sys.argv[1:])
    rejected = False
    for workload in parent:
        if workload not in change:
            continue
        result = compare_workload(parent[workload], change[workload], bench["end_to_end"])
        rejected |= result["row"].startswith("reject")
        print(f"{workload:<14} {result['row']}  (fail ratio {result['fail_ratio'][0]:.4g} -> "
              f"{result['fail_ratio'][1]:.4g})")
        for name, v in result["metrics"].items():
            print(f"    {name:<24} {v['verdict']:<14} parent {v['parent_median']:.4g} "
                  f"change {v['change_median']:.4g} ({100 * v['worse_share']:+.1f}% worse), "
                  f"wins {v['wins']}/{v['pairs']}, spread {100 * v['spread']:.1f}%")
    sys.exit(1 if rejected else 0)


if __name__ == "__main__":
    main()
