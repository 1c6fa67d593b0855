#!/usr/bin/env python3
"""Negative control for tools/check_bench_regression.py.

Runs the gate with the committed baselines as the fresh results, after
two edits to the service bench copy: the top scale-up point's
commits_per_kcycle moves 5%, and the monolith's htm.backoff_cycles
goes from 0 to 1. The gate must exit 1 with exactly those two rows
named. A gate that passed a drift from a zero baseline would miss
the second row.

Usage: python3 tests/bench_gate_negative.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BASELINES = REPO / "bench" / "baselines"


def main():
    with tempfile.TemporaryDirectory() as fresh:
        for f in BASELINES.glob("BENCH_*.json"):
            shutil.copy(f, fresh)
        path = Path(fresh) / "BENCH_service_scalability.json"
        doc = json.loads(path.read_text())
        mono, top = doc["points"][0]["sim"], doc["points"][-1]["sim"]
        if mono["htm.backoff_cycles"] != 0:
            print("baseline monolith backoff_cycles is not 0: "
                  "the zero-rule control would be vacuous")
            return 1
        top["commits_per_kcycle"] *= 1.05
        mono["htm.backoff_cycles"] = 1
        path.write_text(json.dumps(doc))
        run = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_bench_regression.py"),
             "--baseline-dir", str(BASELINES), "--fresh-dir", fresh],
            capture_output=True, text=True)
    print(run.stdout, run.stderr)
    fails = [line for line in run.stdout.splitlines()
             if line.startswith("FAIL:")]
    want = [("points[shards=4,", "commits_per_kcycle"),
            ("points[shards=1,", "htm.backoff_cycles")]
    named = all(any(p in line and row in line for line in fails)
                for p, row in want)
    if run.returncode != 1 or len(fails) != 2 or not named:
        print(f"negative control FAILED: exit {run.returncode}, "
              f"{len(fails)} FAIL lines; want exit 1 naming "
              f"{[row for _, row in want]}")
        return 1
    print("negative control ok: the gate named both edited rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
