#!/usr/bin/env python3
"""Count determinism self-check: two traced runs with the same seed must
report identical values for every count metric, on every workload and on
both seeds whose baselines benchmarks/design.json records.

    python3 benchmarks/check_counts.py

Exits with status 1 and names the differing counts when they do not repeat.
A claim may rest on a count only if this check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
SEEDS = (1, 999)        # the default seed and the held-out one


def traced_counts(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True, cwd=HERE.parent)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run not correct:\n{done.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


def main() -> int:
    status = 0
    for workload in WORKLOADS:
        for seed in SEEDS:
            first = traced_counts(workload, seed)
            second = traced_counts(workload, seed)
            differing = sorted(n for n in first.keys() | second.keys()
                               if first.get(n) != second.get(n))
            print(f"{workload} seed {seed}: {len(first)} counts, "
                  + ("identical" if not differing else f"differ: {', '.join(differing)}"))
            status |= bool(differing)
    return status


if __name__ == "__main__":
    sys.exit(main())
