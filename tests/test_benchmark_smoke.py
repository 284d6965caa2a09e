"""Smoke test of the benchmark harness: one traced pass of each workload,
whose self-checks need every span they expect (`engine.dt_step` and
`engine.nt_step` on closure, `kb.mod_step` and `kb.proximity_set` on
proximity and query, and on query the `query.*` spans) to fire, the same
counts in the phase and counter passes, and every output to match its
recorded digest.  No timing is asserted."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["closure", "proximity", "query"])
def test_traced_pass_is_correct(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
