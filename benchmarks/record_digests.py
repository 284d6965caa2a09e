#!/usr/bin/env python3
"""Record the expected output digest of every pool item into digests.json.

    python3 benchmarks/record_digests.py

Run it only at a commit whose outputs are trusted: the benchmark counts
every later op whose output differs from these digests as failed.  Items
with an independent check (widest path, det/nondet agreement) must pass it
before their digest is written.
"""

from __future__ import annotations

import json
import sys

import workloads as W
from run import DIGESTS, load_library


def record(ops) -> dict:
    out = {}
    for op in ops:
        lines, iterations, problems = op.output(op.run())
        if problems:
            raise SystemExit(f"{op.key}: {'; '.join(problems)}")
        out[op.key] = W.digest(lines, iterations)
    return out


def main() -> int:
    lib = load_library()
    digests = {
        "closure": record(W.closure_pool(lib)),
        "proximity": record(W.proximity_pool(lib)),
        "query": {k: v for variant in range(W.VARIANTS)
                  for k, v in record(W.query_pool(lib, variant)).items()},
    }
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(len(d) for d in digests.values())} digests to {DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
