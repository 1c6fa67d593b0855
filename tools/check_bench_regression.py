#!/usr/bin/env python3
"""Compare fresh bench output against the committed baselines.

Reads the two bench JSON documents the CI bench job produces:

  BENCH_service_scalability.json  service_scalability --quick --json
  BENCH_micro_structures.json     micro_structures --benchmark_out=...
  BENCH_trace_stream.json         trace_stream --quick --json

and compares them against the copies committed under bench/baselines/.
Two very different tolerance regimes apply:

  * Simulated metrics (every "sim" value of a service point, and the
    throughput gain) are produced by a deterministic simulator:
    identical code must produce identical numbers on any host. A small
    band (--sim-tolerance, default 2%) only absorbs legitimate rounding
    in derived ratios; a real change beyond it — in EITHER direction —
    means the PR changed simulated behaviour and must either fix the
    regression or consciously update the baseline
    (docs/repro-guide.md describes how). Unacknowledged improvements
    fail too: a stale baseline would let a later regression back down
    to it pass unnoticed. A baseline value of 0 requires 0, and the
    arrival ledger (scenario.injected/completed/dropped) requires
    equality.

  * Host-time metrics (micro_structures items_per_second, and every
    "host" value a service point's baseline carries) vary with the
    runner, so only large regressions fail (--host-tolerance, default
    60% slower — the linear scans this guards against regress lookups
    by 10-50x, not 10%). Improvements never fail.

The service bench's points carry the api metrics table's names and
classes (src/api/metrics.hpp), so this script walks every point array
the same way instead of naming fields.

Exit status: 0 when everything is within tolerance, 1 on any
regression or missing/malformed file. --report writes the comparison
table to a file (the nightly uploads it as an artifact).
"""

import argparse
import json
import sys
from pathlib import Path

SERVICE = "BENCH_service_scalability.json"
MICRO = "BENCH_micro_structures.json"
TRACE = "BENCH_trace_stream.json"


class Reporter:
    def __init__(self, path):
        self.lines = []
        self.path = path
        self.failures = 0

    def line(self, text=""):
        print(text)
        self.lines.append(text)

    def fail(self, text):
        self.failures += 1
        self.line(f"FAIL: {text}")

    def close(self):
        if self.path:
            Path(self.path).write_text("\n".join(self.lines) + "\n")


def load(path, rep):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        rep.fail(f"missing {path}")
    except json.JSONDecodeError as e:
        rep.fail(f"malformed {path}: {e}")
    return None


# Arrival-ledger counters are exact: any drift at all means
# traffic-shape behaviour changed, so the band does not apply.
LEDGER = {"scenario.injected", "scenario.completed", "scenario.dropped"}


def bench_points(doc):
    """Every point of a bench document, by label. Each list-valued key
    holds points; a point is its axis keys plus the "sim" and "host"
    objects of the api metrics table (src/api/metrics.hpp)."""
    points = {}
    for key, arr in doc.items():
        for p in arr if isinstance(arr, list) else []:
            axes = ",".join(f"{k}={v}" for k, v in p.items()
                            if k not in ("sim", "host"))
            points[f"{key}[{axes}]"] = p
    return points


def check_value(label, name, cls, b, f, tol, host_tol, rep):
    """Gate one metric by its class; return the relative change.

    sim: two-sided band, because the simulator is deterministic and a
    change in EITHER direction means simulated behaviour changed (an
    unacknowledged improvement would let a later regression back to
    the stale baseline pass). A baseline of 0 requires 0, and the
    arrival ledger requires equality. host: one-sided, lower is
    better; a baseline of 0 has nothing to compare against."""
    delta = (f - b) / b if b else (0.0 if f == b else float("inf"))
    what = f"{label} {name}"
    if cls == "host":
        if b and f > b * (1 + host_tol):
            rep.fail(f"{what} host time regressed {b:.1f} -> {f:.1f} "
                     f"({delta:+.1%}, tolerance +{host_tol:.0%})")
    elif name in LEDGER and f != b:
        rep.fail(f"{what} changed {b} -> {f} "
                 f"(deterministic arrival ledger)")
    elif b == 0 and f != 0:
        rep.fail(f"{what} changed {b} -> {f} (a baseline of 0 "
                 f"requires 0; update the baseline)")
    elif abs(delta) > tol:
        rep.fail(f"{what} changed {b} -> {f} ({delta:+.1%}, tolerance "
                 f"+/-{tol:.0%}; update the baseline if deliberate)")
    return delta


def check_service(base, fresh, tol, host_tol, rep):
    rep.line(f"== service_scalability (sim +/-{tol:.0%}, host "
             f"+{host_tol:.0%})")
    if base.get("scale") != fresh.get("scale") or \
            base.get("nthreads") != fresh.get("nthreads"):
        rep.line(
            f"  note: sizing changed "
            f"(baseline scale={base.get('scale')} nthreads="
            f"{base.get('nthreads')}, fresh scale={fresh.get('scale')} "
            f"nthreads={fresh.get('nthreads')}); update the baseline")
    base_pts, fresh_pts = bench_points(base), bench_points(fresh)
    ungated = set()
    for label, bp in base_pts.items():
        fp = fresh_pts.get(label)
        if fp is None:
            rep.fail(f"service point {label} missing from fresh run")
            continue
        worst, hosts = (0.0, None), ""
        for cls in ("sim", "host"):
            bv, fv = bp.get(cls, {}), fp.get(cls, {})
            ungated |= {f"{cls}.{n}" for n in fv.keys() - bv.keys()}
            for name, b in bv.items():
                f = fv.get(name)
                if f is None:
                    rep.fail(f"{label} {name} missing from fresh run")
                    continue
                d = check_value(label, name, cls, b, f, tol, host_tol,
                                rep)
                if cls == "host":
                    hosts += f"; {name} {b:.1f} -> {f:.1f} ({d:+.1%})"
                elif abs(d) > abs(worst[0]):
                    worst = (d, name)
        sim = (f"sim {worst[0]:+.1%} at {worst[1]}" if worst[1] else
               f"sim +0.0% on all {len(bp.get('sim', {}))} values")
        rep.line(f"  {label}: {sim}{hosts}")
    for label in sorted(set(fresh_pts) - set(base_pts)):
        rep.line(f"  note: new point {label} has no baseline")
    if ungated:
        rep.line(f"  note: no baseline (not gated): "
                 f"{', '.join(sorted(ungated))}")
    bg, fg = base.get("throughput_gain"), fresh.get("throughput_gain")
    if bg is not None and fg is not None:
        d = check_value("scale-out", "throughput_gain", "sim", bg, fg,
                        tol, host_tol, rep)
        rep.line(f"  scale-out gain: {bg:.4f}x -> {fg:.4f}x ({d:+.1%})")


def check_micro(base, fresh, tol, rep):
    rep.line(f"== micro_structures (host time, tolerance {tol:.0%})")

    def rates(doc):
        out = {}
        for b in doc.get("benchmarks", []):
            rate = b.get("items_per_second")
            if rate:
                out[b["name"]] = rate
        return out

    base_rates, fresh_rates = rates(base), rates(fresh)
    if not base_rates:
        rep.fail("baseline micro_structures has no items_per_second")
        return
    for name, b in sorted(base_rates.items()):
        f = fresh_rates.get(name)
        if f is None:
            rep.fail(f"micro benchmark {name} missing from fresh run")
            continue
        delta = (f - b) / b
        verdict = "ok" if f >= b * (1 - tol) else "REGRESSED"
        rep.line(f"  {name}: {b / 1e6:.1f} -> {f / 1e6:.1f} Mitems/s "
                 f"({delta:+.1%}) {verdict}")
        if verdict != "ok":
            rep.fail(f"micro benchmark {name} regressed {delta:+.1%} "
                     f"(tolerance -{tol:.0%})")
    for name in sorted(set(fresh_rates) - set(base_rates)):
        rep.line(f"  note: new benchmark {name} has no baseline")


def check_trace(base, fresh, tol, host_tol, rep):
    """Gate the streaming trace format bench (docs/trace-format.md).

    The format itself is deterministic — bytes_per_record and the
    service run's record count cannot move without a format or
    instrumentation change, so they sit in the two-sided simulated
    band. The codec rates are host time (wide one-sided band), and
    cycles_identical is an absolute invariant: a stream writer that
    perturbs the simulation is a correctness bug, not a slowdown.
    """
    rep.line(f"== trace_stream (simulated, tolerance {tol:.0%})")
    if fresh.get("cycles_identical") is not True:
        rep.fail("trace_stream: streaming perturbed simulated cycles")
    for label, getter in [
        ("bytes/record", lambda d: d.get("bytes_per_record")),
        ("service records",
         lambda d: (d.get("service") or {}).get("records")),
        ("service bytes",
         lambda d: (d.get("service") or {}).get("bytes_written")),
    ]:
        b, f = getter(base), getter(fresh)
        if b is None or f is None:
            rep.line(f"  note: {label} missing from baseline or fresh")
            continue
        d = check_value("trace_stream", label, "sim", b, f, tol,
                        host_tol, rep)
        rep.line(f"  {label}: {b:.1f} -> {f:.1f} ({d:+.1%})")
    rep.line(f"== trace_stream (host time, tolerance {host_tol:.0%})")
    for label in ("write_recs_per_sec", "read_recs_per_sec"):
        b, f = base.get(label), fresh.get(label)
        if not b or f is None:
            rep.line(f"  note: {label} missing from baseline or fresh")
            continue
        delta = (f - b) / b
        verdict = "ok" if f >= b * (1 - host_tol) else "REGRESSED"
        rep.line(f"  {label}: {b / 1e6:.2f} -> {f / 1e6:.2f} Mrecs/s "
                 f"({delta:+.1%}) {verdict}")
        if verdict != "ok":
            rep.fail(f"trace_stream {label} regressed {delta:+.1%} "
                     f"(tolerance -{host_tol:.0%})")
    # Flush stalls are informational (host-side, sub-ms in CI sizing);
    # report the trend without gating it.
    bs = (base.get("service") or {}).get("flush_wall_ms")
    fs = (fresh.get("service") or {}).get("flush_wall_ms")
    if bs is not None and fs is not None:
        rep.line(f"  note: flush stalls {bs:.2f} -> {fs:.2f} ms "
                 f"(informational)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", default="bench/baselines",
                    help="directory with committed BENCH_*.json")
    ap.add_argument("--fresh-dir", default="build",
                    help="directory with freshly produced BENCH_*.json")
    ap.add_argument("--sim-tolerance", type=float, default=0.02,
                    help="relative band for simulated metrics")
    ap.add_argument("--host-tolerance", type=float, default=0.60,
                    help="relative band for host-time metrics (wide: "
                         "CI runners differ; the scans this guards "
                         "against regress by 10x, not 10%%)")
    ap.add_argument("--skip-micro", action="store_true",
                    help="skip the host-time comparison (no benchmark "
                         "library on this host)")
    ap.add_argument("--report", default=None,
                    help="also write the comparison table to this file")
    args = ap.parse_args()

    rep = Reporter(args.report)
    base_dir, fresh_dir = Path(args.baseline_dir), Path(args.fresh_dir)

    svc_base = load(base_dir / SERVICE, rep)
    svc_fresh = load(fresh_dir / SERVICE, rep)
    if svc_base and svc_fresh:
        check_service(svc_base, svc_fresh, args.sim_tolerance,
                      args.host_tolerance, rep)

    trace_base = load(base_dir / TRACE, rep)
    trace_fresh = load(fresh_dir / TRACE, rep)
    if trace_base and trace_fresh:
        check_trace(trace_base, trace_fresh, args.sim_tolerance,
                    args.host_tolerance, rep)

    if args.skip_micro:
        rep.line("== micro_structures skipped (--skip-micro)")
    else:
        micro_base = load(base_dir / MICRO, rep)
        micro_fresh = load(fresh_dir / MICRO, rep)
        if micro_base and micro_fresh:
            check_micro(micro_base, micro_fresh, args.host_tolerance,
                        rep)

    if rep.failures:
        rep.line(f"\n{rep.failures} regression(s); to accept a "
                 "deliberate change, regenerate bench/baselines "
                 "(docs/repro-guide.md)")
    else:
        rep.line("\nall benches within tolerance")
    rep.close()
    return 1 if rep.failures else 0


if __name__ == "__main__":
    sys.exit(main())
