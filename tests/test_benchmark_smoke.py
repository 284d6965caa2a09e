"""Smoke test of the benchmark harness: one traced pass of each workload,
whose self-checks need every span they expect (`engine.dt_step` and
`engine.nt_step` on closure, `kb.mod_step` and `kb.proximity_set` on
proximity and query, and on query the `query.*` spans) to fire, the same
counts in the phase and counter passes, and every output to match its
recorded digest.  No timing is asserted.

The pass also pins the seed-1 counts of work and results that an
evaluation change must not move: instances grounded, step calls and the
instances they scan, productive steps, atoms derived, modified steps, and
the query's answers and search-tree nodes."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

SEED_1_COUNTS = {
    "closure": {"lang.ground.instances": 3374, "engine.step.calls": 2464,
                "engine.scan.instances": 5312, "engine.step.productive": 1545,
                "engine.atoms": 2852},
    "proximity": {"lang.ground.instances": 4104, "kb.mod_step.calls": 72,
                  "kb.atoms": 9696},
    "query": {"lang.ground.instances": 184, "kb.mod_step.calls": 24, "kb.atoms": 224,
              "query.answers": 276, "query.tree.nodes": 921},
}


@pytest.mark.parametrize("workload", ["closure", "proximity", "query"])
def test_traced_pass_is_correct(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    counts = {name: result["metrics"][name]["value"] for name in SEED_1_COUNTS[workload]}
    assert counts == SEED_1_COUNTS[workload]
