"""Smoke test of the benchmark harness: one traced pass of the proximity
workload, whose self-checks need every span it expects (`kb.mod_step` and
`kb.proximity_set` among them) to fire and every output to match its
recorded digest.  No timing is asserted."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_proximity_pass_is_correct():
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", "proximity",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
