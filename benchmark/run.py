#!/usr/bin/env python3
"""Build and run the repository benchmark (see benchmark/README.md).

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmark/run.py [--seed N]          # all four workloads, traced
    python3 benchmark/run.py --smoke             # 1 pass each, output contract

Builds a Release retcon_core and retcon_bench in benchmark/.build/, runs
retcon_bench once per workload (plus a traced pass in its own process when
--trace 1), checks every run, prints a table, and prints as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = BENCH_DIR / ".build"
OUT_DIR = BENCH_DIR / "out"
BENCH_BIN = BUILD_DIR / "retcon_bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and build; on failure exit non-zero without a result."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)],
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs],
    ]
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail(f"build step {' '.join(cmd)} exited {p.returncode}")


def drive(workload, seed, extra, timeout):
    """Run retcon_bench once; return its JSON document."""
    cmd = [str(BENCH_BIN), "--workload", workload, "--seed", str(seed),
           "--out-dir", str(OUT_DIR)] + extra
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: retcon_bench did not finish within {timeout} s")
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: retcon_bench exited {p.returncode} with no output")
    doc = json.loads(lines[-1])
    if p.returncode not in (0, 1) or (p.returncode == 1) != bool(
            doc["failures"]):
        fail(f"{workload}: retcon_bench exited {p.returncode}")
    return doc


def quartiles(values):
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def run_workload(workload, seed, seconds, traced, passes=None):
    """Run one workload; return (metrics, samples, failures, attempted,
    failed, runs)."""
    t0 = time.monotonic()
    extra = ["--passes", str(passes)] if passes else ["--seconds",
                                                       str(seconds)]
    e2e = drive(workload, seed, extra, timeout=seconds + 150)
    passes_ = e2e["passes"]
    samples = {
        "wall_s": [p["wall_s"] for p in passes_],
        "events_per_s": [p["events"] / p["run_s"] for p in passes_],
        "setup_s": [p["setup_s"] for p in passes_],
    }
    # The host slows down by up to 1.8x in episodes of a minute or more
    # (README, "Host noise"), so pass times are taken from the best pass
    # of the run; set-up time is the median of its passes.
    metrics = {
        "wall_s": min(samples["wall_s"]),
        "events_per_s": max(samples["events_per_s"]),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": e2e["peak_rss_mb"],
    }
    metrics["commits_per_kcycle"] = e2e["sim"]["commits_per_kcycle"]
    failures = list(e2e["failures"])
    attempted, failed = e2e["attempted"], e2e["failed"]

    if traced:
        tr = drive(workload, seed, ["--traced"], timeout=300)
        failures += tr["failures"]
        attempted += tr["attempted"]
        failed += tr["failed"]
        # The composed runs must reproduce runOnce exactly.
        for a, b in zip(tr["runs"], e2e["runs"]):
            if a != b:
                failures.append(f"{a['label']} (traced): composed run "
                                f"{a} differs from runOnce {b}")
                failed += 1
        if len(tr["runs"]) != len(e2e["runs"]):
            failures.append("traced pass ran a different job list")
            failed += 1
        metrics.update(tr["layers"])
        metrics["bench.span_overhead"] = (
            tr["traced_wall_s"] / statistics.median(samples["wall_s"]) - 1.0)
        if tr["layers"]["bench.unattributed_pct"] > 5.0:
            failures.append("traced pass: layer self times cover less "
                            "than 95% of its wall")
            failed += 1
        metrics.update(e2e["sim"])
        # Both runs of a pass are adjacent in time, so the per-pass ratio
        # cancels most of the host's slow episodes.
        metrics["trace_wall_ratio"] = metrics["replay_records_per_s"] = 0.0
        if passes_[0]["replay_s"] > 0:
            samples["trace_wall_ratio"] = [
                p["stream_s"] / p["audit_s"] for p in passes_]
            samples["replay_records_per_s"] = [
                p["replay_records"] / p["replay_s"] for p in passes_]
            for name in ("trace_wall_ratio", "replay_records_per_s"):
                metrics[name] = statistics.median(samples[name])
    note = " including the traced pass" if traced else ""
    print(f"== {workload} seed {seed}: {len(passes_)} passes, "
          f"{time.monotonic() - t0:.1f} s{note}")
    return metrics, samples, failures, attempted, failed, e2e["runs"]


def print_runs(runs):
    """Per-run simulated rows; Figure 9 runs as speedups over serial."""
    cycles = {r["label"]: r["cycles"] for r in runs}
    programs = [r["label"][:-len("/serial")] for r in runs
                if r["label"].endswith("/serial")]
    if programs:
        print(f"  {'program':<18}{'eager':>9}{'lazy-vb':>9}{'retcon':>9}")
        for p in programs:
            s = cycles[p + "/serial"]
            print(f"  {p:<18}" + "".join(
                f"{s / cycles[f'{p}/{m}']:>8.2f}x"
                for m in ("eager", "lazy-vb", "retcon")))
        return
    print(f"  {'run':<44}{'cycles':>10}{'commits':>9}{'aborts':>8}"
          f"{'events':>9}")
    for r in runs:
        print(f"  {r['label']:<44}{r['cycles']:>10}{r['commits']:>9}"
              f"{r['aborts']:>8}{r['events']:>9}")


def print_metrics(title, names, metrics, samples):
    """One row per metric; host timings add their passes' quartiles."""
    print(f"  {title:<34}{'value':>14} {'unit':<10}{'n':>4}"
          f"{'p25':>12}{'median':>12}{'p75':>12}")
    for name in names:
        row = f"  {name:<34}{metrics[name]:>14.6g} {UNITS[name]:<10}"
        if samples.get(name):
            row += f"{len(samples[name]):>4}" + "".join(
                f"{q:>12.6g}" for q in quartiles(samples[name]))
        print(row)


def listed(trace):
    return [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]


def contract_errors(metrics, trace):
    """Names BENCHMARK.json lists for this mode but the run did not
    produce, and names produced but not listed."""
    want = set(listed(0)) | (set(listed(1)) if trace else set())
    have = set(metrics)
    return ([f"missing metric {n}" for n in sorted(want - have)] +
            [f"unlisted metric {n}" for n in sorted(have - want)])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="1 pass per workload plus its traced pass; "
                         "asserts the output contract")
    ap.add_argument("--record", type=Path,
                    help="append each workload's result as a JSON line "
                         "(input of compare.py)")
    args = ap.parse_args()
    # subprocess.run kills and reaps its child when an exception unwinds
    # through it, so turning SIGTERM into SystemExit stops retcon_bench too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 1:
        ap.error("--seed must be >= 1")
    trace = args.trace if args.trace is not None else int(
        args.workload is None)
    workloads = [args.workload] if args.workload else WORKLOADS

    build()
    OUT_DIR.mkdir(exist_ok=True)
    correct, attempted, failed = True, 0, 0
    results = {}
    for w in workloads:
        metrics, samples, failures, att, fl, runs = run_workload(
            w, args.seed, args.seconds, trace,
            passes=1 if args.smoke else None)
        errors = contract_errors(metrics, trace)
        if errors:
            fail(f"{w}: output contract broken: {', '.join(errors)}")
        print_runs(runs)
        print_metrics("end-to-end", listed(0), metrics, samples)
        if trace:
            print_metrics("per-layer", listed(1), metrics, samples)
        for f in failures:
            print(f"  FAILED {f}")
        ok = not failures
        correct = correct and ok
        attempted += att
        failed += fl
        results[w] = {n: {"value": metrics[n], "unit": UNITS[n]}
                      for n in listed(trace)}
        if args.record:
            with args.record.open("a") as f:
                f.write(json.dumps({
                    "workload": w, "seed": args.seed, "trace": trace,
                    "correct": ok,
                    "metrics": {n: metrics[n] for n in listed(trace)},
                }) + "\n")
    out = {"correct": correct, "attempted": attempted, "failed": failed,
           "metrics": results[workloads[0]] if args.workload else results}
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
