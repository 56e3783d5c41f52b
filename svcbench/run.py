#!/usr/bin/env python3
"""Service benchmark: one workload, one seed, one run.

    python3 svcbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

Builds `jinjing` and the load generator from this checkout (Release, into
.bench_build/), runs it, and prints a human summary followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they
are the per-layer metrics, and the self-time table and a Chrome trace
(.bench_build/traces/) come with them. See README.md in this directory.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
WORKLOADS = ("churn", "repair")
# The tail percentile gated per run; each workload leaves well over ten
# samples beyond it at the benchmark's run length.
TAIL = 90.0
LOADGEN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"svcbench: {message}", file=sys.stderr)
    sys.exit(code)


def host_info():
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "commit": commit, "src_sha1": digest.hexdigest()[:12]}


def build():
    """Configures once and builds the two targets; a no-op when current."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no jinjing sources under {ROOT}; run from a checkout of the repository", 2)
    build_dir = BUILD_ROOT / "cmake"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    with open(BUILD_ROOT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log, "w") as out:
            steps = []
            if not (build_dir / "CMakeCache.txt").exists():
                steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                              "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
                          "--target", "jinjing", "svcbench_loadgen"])
            for step in steps:
                if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                    tail = log.read_text().splitlines()[-30:]
                    fail("build failed:\n" + "\n".join(tail))
    return build_dir / "jinjing" / "jinjing", build_dir / "svcbench_loadgen"


def run_loadgen(jinjing, loadgen, args):
    work = BUILD_ROOT / "run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(loadgen), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--jinjing", str(jinjing)]
    try:
        proc = subprocess.run(cmd, cwd=work, capture_output=True, text=True,
                              timeout=LOADGEN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"load generator exceeded {LOADGEN_TIMEOUT_S}s")
    if proc.returncode != 0:
        server_log = work / "server.log"
        extra = server_log.read_text()[-2000:] if server_log.exists() else ""
        fail(f"load generator exited {proc.returncode}:\n{proc.stderr[-3000:]}\n{extra}")
    shutil.rmtree(work, ignore_errors=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ratio(num, den):
    return num / den if den else 0.0


def summarize(raw):
    """Turns the load generator's raw samples into every metric this run measured."""
    jobs = raw["jobs"]
    ok = [j for j in jobs if j["ok"]]
    counters = raw["counters"]

    def counter(name):
        return counters.get(f"jinjing_{name}_total", 0.0)

    mismatches = sum(1 for j in ok if j["oracle_ran"] and not j["oracle_match"])
    applies = [j for j in jobs if j["kind"] == "apply"]
    attempted = len(jobs) + len(applies)
    failed = sum(1 for j in jobs if not j["ok"]) + mismatches
    failed += sum(1 for j in applies if j["ok"] and j["apply_s"] < 0)

    lat = [j["latency_s"] * 1e3 for j in ok]
    span = max((j["done"] for j in ok), default=0.0)
    checks = [j for j in ok if j["kind"] in ("check", "recheck", "apply")]
    window = raw["window_s"]

    e2e = {
        "setup_s": stats.median(raw["setup_s"]),
        "jobs_per_s": ratio(len(ok), span),
        "latency_p50_ms": stats.median(lat),
        "latency_p90_ms": stats.percentile(lat, TAIL),
        "server_cpu_ms_per_job": ratio(raw["server_cpu_s"] * 1e3, len(ok)),
        "peak_rss_mb": raw["peak_rss_mb"],
    }

    # Per-operation names, per workload where they apply (printed, not gated).
    named = {}
    if checks:
        check_lat = [j["latency_s"] * 1e3 for j in checks]
        named["check_p50_ms"] = (stats.median(check_lat), "ms", len(check_lat))
        p, v, n = stats.tail(check_lat, 99.0)
        named[f"check_p{p:g}_ms" if p else "check_p99_ms"] = (v, "ms", n)
    if applies:
        apply_ms = [j["apply_s"] * 1e3 for j in applies if j["apply_s"] >= 0]
        named["apply_p50_ms"] = (stats.median(apply_ms), "ms", len(apply_ms))
    for kind in ("fix", "generate"):
        kl = [j["latency_s"] * 1e3 for j in ok if j["kind"] == kind]
        if kl:
            named[f"{kind}_p50_ms"] = (stats.median(kl), "ms", len(kl))
            if kind == "fix":
                p, v, n = stats.tail(kl, 90.0)
                named[f"fix_p{p:g}_ms" if p else "fix_p90_ms"] = (v, "ms", n)
    named["fail_ratio"] = (ratio(failed, attempted), "ratio", attempted)

    submit = [j["submit_s"] * 1e3 for j in ok]
    queue = [j["queue_s"] * 1e3 for j in ok]
    run = [j["run_s"] * 1e3 for j in ok]
    wire = [(j["done"] - j["sent"] - j["submit_s"] - j["queue_s"] - j["run_s"]) * 1e3 for j in ok]
    proc = raw["proc"]
    post_warm = [(t, rss) for t, rss, *_ in proc if 0 <= t <= window]
    versions = 1 + counter("svc_applies")
    fec_lookups = counter("fec_cache_hits") + counter("fec_cache_misses")
    delta_lookups = counter("delta_cache_hits") + counter("delta_cache_misses")
    # Generate jobs carry no check verdict; the share is over checked updates.
    oracle_checked = [j for j in ok if j["oracle_ran"] and j["kind"] != "generate"]
    consistent = [j for j in oracle_checked if j["consistent"]]
    layers = {
        "svc.submit_ms": stats.median(submit),
        "svc.queue_wait_p50_ms": stats.median(queue),
        "svc.queue_wait_p90_ms": stats.percentile(queue, TAIL),
        "svc.run_ms": stats.median(run),
        "svc.wire_ms": stats.median(wire),
        "svc.batch.coalesced_share": ratio(counter("svc_batch_jobs_coalesced"), len(jobs)),
        "svc.batch.mean_size": ratio(counter("svc_batch_jobs_coalesced"),
                                     counter("svc_batch_dispatches")),
        "svc.batch.algebra_builds_per_version": ratio(counter("svc_batch_algebra_builds"),
                                                      versions),
        "svc.overlap_dispatches": counter("svc_overlap_dispatches"),
        "core.incremental.hit_ratio": ratio(counter("delta_cache_hits"), delta_lookups),
        "core.incremental.rebases": counter("delta_cache_rebases"),
        "core.incremental.invalidations": counter("delta_cache_invalidations"),
        "topo.fec_cache.hit_ratio": ratio(counter("fec_cache_hits"), fec_lookups),
        "topo.fec_delta.reused_share": ratio(
            counter("fec_delta_reused_atoms"),
            counter("fec_delta_reused_atoms") + counter("fec_delta_splits")),
        "smt.queries_per_job": ratio(counter("smt_queries"), len(jobs)),
        "core.obligations_executed_per_job": ratio(counter("obligations_executed"), len(jobs)),
        "proc.rss_mb_slope": stats.slope(post_warm),
        "proc.threads": max((row[3] for row in proc), default=0),
        "proc.fds": max((row[4] for row in proc), default=0),
        "fail_ratio": ratio(failed, attempted),
        "input.consistent_share": ratio(len(consistent), len(oracle_checked)),
        "input.repeated_share": ratio(sum(1 for j in jobs if j["kind"] == "recheck"), len(jobs)),
        "input.generate_share": ratio(sum(1 for j in jobs if j["kind"] == "generate"), len(jobs)),
    }
    lateness = [x * 1e3 for x in raw["lateness_s"]]
    return {
        "e2e": e2e, "named": named, "layers": layers, "lateness": lateness,
        "attempted": attempted, "failed": failed, "mismatches": mismatches,
        "correct": mismatches == 0 and not raw["oracle_failures"] and raw["server_exit"] == 0
                   and bool(ok),
    }


# Per-layer metrics the traced run reads off the replay's spans and the
# oracle's stage fields (median self time per call, ms; 0 on a workload that
# never calls the layer).
REPLAY_LAYERS = {
    "svc.json_ms": "svc.json",
    "config.parse_acl_ms": "config.parse_acl",
    "lai.resolve_ms": "lai.resolve",
    "topo.fec_ms": "topo.fec",
    "core.plan_ms": "core.plan",
    "core.batch.algebra_ms": "core.batch.algebra",
    "core.batch.scan_consistent_ms": "core.batch.scan_consistent",
    "core.batch.scan_inconsistent_ms": "core.batch.scan_inconsistent",
    "core.incremental.check_ms": "core.incremental.check",
    "core.format_plan_ms": "core.format_plan",
    "svc.store.apply_ms": "svc.store.apply",
    "topo.fec_delta_ms": "topo.fec_delta",
}
STAGE_LAYERS = (
    "core.checker.compile_ms", "smt.solve_ms",
    "core.fixer.search_ms", "core.fixer.enlarge_ms", "core.fixer.place_ms",
    "core.fixer.assemble_ms",
    "core.generator.derive_ms", "core.generator.solve_ms", "core.generator.synth_ms",
)


def traced_layers(raw, summary):
    """Self time per layer from the traced run, the tracing overhead, and
    the Chrome trace document. The overhead is informational only: live
    tracing adds client-side spans after each job has answered, so the
    traced and untraced slices differ by little more than noise."""
    spans = [
        {"name": n, "id": i, "parent": p, "job": j, "start": s / 1e3, "end": e / 1e3, "tid": t}
        for n, i, p, j, s, e, t in raw["spans"]
    ]
    self_ms = stats.self_times(spans)
    stages = {}
    for job in raw["jobs"]:
        for name, ms in job["stages"].items():
            stages.setdefault(name, []).append(ms)
    table = {**self_ms, **stages}

    traced = [j["latency_s"] for j in raw["jobs"] if j["ok"] and j["traced"]]
    plain = [j["latency_s"] for j in raw["jobs"] if j["ok"] and not j["traced"]]
    overhead = 100.0 * (stats.median(traced) / stats.median(plain) - 1) if traced and plain else 0.0

    layers = dict(summary["layers"])
    for metric, span in REPLAY_LAYERS.items():
        layers[metric] = stats.median(self_ms.get(span, []))
    for metric in STAGE_LAYERS:
        layers[metric] = stats.median(stages.get(metric, []))

    chrome = {"traceEvents": [
        {"name": s["name"], "ph": "X", "pid": 1, "tid": s["tid"], "ts": s["start"] * 1e3,
         "dur": (s["end"] - s["start"]) * 1e3,
         "args": {"job": s["job"], "id": s["id"], "parent": s["parent"]}}
        for s in spans
    ]}
    return layers, table, overhead, chrome


def print_summary(args, raw, summary, host):
    w = print
    w(f"svcbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    w(f"  host: nproc={host['nproc']} commit={host['commit']} src={host['src_sha1']} "
      f"build={raw['build_type']} workers={raw['workers']} connections={raw['connections']}")
    jobs = raw["jobs"]
    kinds = {}
    for j in jobs:
        kinds[j["kind"]] = kinds.get(j["kind"], 0) + 1
    w(f"  jobs: {len(jobs)} measured ({', '.join(f'{k} {v}' for k, v in sorted(kinds.items()))}),"
      f" {raw['warmup_jobs']} warm-up; attempted {summary['attempted']}, failed {summary['failed']}")
    w(f"  oracle: {sum(1 for j in jobs if j['oracle_ran'])} re-run on a fresh engine, "
      f"{summary['mismatches']} mismatches")
    for line in raw["oracle_failures"][:10]:
        w(f"    {line}")
    layers = summary["layers"]
    w(f"  inputs: consistent {layers['input.consistent_share']:.3f} (oracle verdicts), "
      f"repeated {layers['input.repeated_share']:.3f}, "
      f"generate {layers['input.generate_share']:.3f}, "
      f"fix {sum(1 for j in jobs if j['kind'] == 'fix') / max(1, len(jobs)):.3f}")
    if summary["lateness"]:
        # Behind schedule: the tail exceeds a tenth of the gap between
        # events, or one event slipped past the next one's due time.
        lat = summary["lateness"]
        gap_ms = 1e3 / raw["offered_rate"]
        p, v, n = stats.tail(lat, 99.0)
        if p is None:
            p, v = 100.0, max(lat)
        behind = v > 0.1 * gap_ms or max(lat) > gap_ms
        w(f"  generator lateness: p{p:g} {v:.3f} ms, max {max(lat):.3f} ms over {n} events, "
          f"offered {raw['offered_rate']:g}/s"
          + ("  ** GENERATOR FELL BEHIND **" if behind else ""))
    w("  end-to-end:")
    for name, value in summary["e2e"].items():
        w(f"    {name:<28} {value:12.4f} {E2E_UNITS[name]}")
    for name, (value, unit, n) in summary["named"].items():
        w(f"    {name:<28} {value:12.4f} {unit}  (n={n})")
    w(f"    {'VmHWM (reference)':<28} {raw['vm_hwm_mb']:12.4f} MB")


LIVE_SPANS = ("client.job", "svc.submit", "svc.result", "svc.apply")


def print_layers(table, overhead):
    """Two self-time tables: the live client spans around every RPC, and the
    replay's calls into each layer (plus the oracle's stage fields)."""
    print(f"  tracing overhead (informational, not a metric): {overhead:+.2f}% on p50 latency"
          " (traced vs untraced slices)")
    for title, names in (
            ("live RPCs (client spans)", [n for n in table if n in LIVE_SPANS]),
            ("layers (replay spans and oracle stage fields)",
             [n for n in table if n not in LIVE_SPANS])):
        total = sum(sum(table[n]) for n in names) or 1.0
        print(f"  self time per layer, {title}:")
        print(f"    {'layer':<32} {'calls':>6} {'p50 ms':>10} {'total ms':>11} {'share':>7}")
        for name in sorted(names, key=lambda k: -sum(table[k])):
            values = table[name]
            print(f"    {name:<32} {len(values):>6} {stats.median(values):10.3f} "
                  f"{sum(values):11.1f} {100 * sum(values) / total:6.1f}%")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    host = host_info() if (ROOT / "src").is_dir() else None
    jinjing, loadgen = build()
    raw = run_loadgen(jinjing, loadgen, args)
    summary = summarize(raw)
    print_summary(args, raw, summary, host)
    metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
               for name, value in summary["e2e"].items()}
    if args.trace:
        layers, table, overhead, chrome = traced_layers(raw, summary)
        print_layers(table, overhead)
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_path = traces / f"{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(chrome))
        print(f"  chrome trace: {trace_path.relative_to(ROOT)}")
        print("  per-layer:")
        for name, value in layers.items():
            print(f"    {name:<40} {value:14.6f}")
        metrics = {name: {"value": value, "unit": LAYER_UNITS.get(name, "ms")}
                   for name, value in layers.items()}
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))


E2E_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "server_cpu_ms_per_job": "ms", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "svc.batch.coalesced_share": "ratio",
    "svc.batch.mean_size": "count",
    "svc.batch.algebra_builds_per_version": "count",
    "svc.overlap_dispatches": "count",
    "core.incremental.hit_ratio": "ratio",
    "core.incremental.rebases": "count",
    "core.incremental.invalidations": "count",
    "topo.fec_cache.hit_ratio": "ratio",
    "topo.fec_delta.reused_share": "ratio",
    "smt.queries_per_job": "count",
    "core.obligations_executed_per_job": "count",
    "proc.rss_mb_slope": "MB/s",
    "proc.threads": "count",
    "proc.fds": "count",
    "fail_ratio": "ratio",
    "input.consistent_share": "ratio",
    "input.repeated_share": "ratio",
    "input.generate_share": "ratio",
}


if __name__ == "__main__":
    main()
