"""Smoke test of the benchmark harness: one traced pass of each workload,
whose self-checks need every span they expect (`engine.dt_step` and
`engine.nt_step` on closure, `kb.mod_step` and `kb.proximity_set` on
proximity and query, and on query the `query.*` spans) to fire, the same
counts in the phase and counter passes, and every output to match its
recorded digest; and one short run of `tools/ab_pools.py`.  No timing is
asserted.

The pass also pins the seed-1 counts of work and results that an
evaluation change must not move: instances grounded, step calls and the
instances they scan, productive steps, atoms derived, modified steps, and
the query's answers, search-tree nodes and starting facts.  The tracer's
hook targets are pinned too, since a traced run only logs one it cannot
find."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

import mvdatalog

ROOT = pathlib.Path(__file__).resolve().parent.parent

# hook targets that are gone: `kb` evaluates through `engine._evaluate`
# and imports no `stratify`, and `query` reads its proximity sets through
# `kb._Options`
MISSING_HOOKS = {"mvdatalog.kb.stratify", "mvdatalog.query.proximity_set"}

SEED_1_COUNTS = {
    "closure": {"lang.ground.instances": 3374, "engine.step.calls": 2464,
                "engine.scan.instances": 5312, "engine.step.productive": 1545,
                "engine.atoms": 2852},
    "proximity": {"lang.ground.instances": 4104, "kb.mod_step.calls": 72,
                  "kb.atoms": 9696},
    "query": {"lang.ground.instances": 184, "kb.mod_step.calls": 24, "kb.atoms": 224,
              "query.answers": 276, "query.tree.nodes": 921, "query.start.facts": 144},
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


def test_every_hook_target_but_the_known_missing_resolves(monkeypatch):
    """Each (module, attribute) that benchmarks/layers.py hooks names a
    callable of the package, except the targets known to be gone: losing
    one more would leave its layer out of traced runs unnoticed."""
    spec = importlib.util.spec_from_file_location("_bench_layers",
                                                  ROOT / "benchmarks" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)   # dataclasses look their module up here
    spec.loader.exec_module(layers)
    missing = set()
    for _, module, attr in layers.PHASE_HOOKS + layers.COUNTER_HOOKS:
        target = importlib.import_module(f"mvdatalog.{module}" if module else "mvdatalog")
        if not callable(getattr(target, attr, None)):
            missing.add(f"{target.__name__}.{attr}")
    assert missing == MISSING_HOOKS


def test_ab_pools_runs_a_tree_against_itself():
    """`tools/ab_pools.py` loads one source tree under two names, checks
    both sides' warm-up pass against the digests and times alternating
    passes."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_pools.py"), str(ROOT / "src"),
         str(ROOT / "src"), "--workload", "query", "--rounds", "2"],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "query: 48 ops a pass, 2 rounds, first side alternating"
    assert sum(int(line.split()[4]) for line in lines[2:4]) == 2
