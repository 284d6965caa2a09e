"""Interleaved in-process A/B timing of two mvdatalog source trees on one
benchmark pool.

    python3 tools/ab_pools.py PARENT/src CHANGE/src --workload proximity --rounds 40

Each side is a directory holding an `mvdatalog` package, such as the
`src/` of a second checkout of the parent commit.  Both packages load into
this one process, each under a name of its own, and each builds the
workload's pool of ops from `benchmarks/workloads.py`, which is read and
never written.  A warm-up pass per side runs every op once and checks its
result against `benchmarks/digests.json`; for the query workload it also
fills the loaded knowledge base's stored consequences, as the benchmark's
own first cycle does.  Then each round times one whole-pool pass per side,
the side that runs first alternating from round to round, so both sides
see the same host noise, which separate processes run minutes apart do
not.  It prints each side's min, first quartile and median pass time and
the rounds it won, then the median over rounds of B's time over A's.
Which tree is A can move that ratio by a couple of percent, so compare
runs with the two trees in both places.  Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
WORKLOADS = ("closure", "proximity", "query")


def load_module(name: str, path: Path, package_dir=None):
    """The module at path, imported as name; a package when package_dir is
    given, so that its relative imports resolve under name."""
    locations = None if package_dir is None else [str(package_dir)]
    spec = importlib.util.spec_from_file_location(name, path,
                                                  submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_side(src: Path, name: str):
    """The mvdatalog package under src, imported as name."""
    package = src / "mvdatalog"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no mvdatalog package in {src}")
    return load_module(name, package / "__init__.py", package)


def pool(workloads, lib, workload: str, seed: int) -> list:
    if workload == "closure":
        return workloads.closure_pool(lib)
    if workload == "proximity":
        return workloads.proximity_pool(lib)
    return workloads.query_pool(lib, workloads.query_variant(seed))


def warm_up(workloads, ops, digests) -> list:
    """Run each op once; the problems found by `workloads.check`."""
    problems = []
    for op in ops:
        problems += [f"{op.key}: {p}" for p in workloads.check(op, op.run(), digests)]
    return problems


def timed_pass(ops) -> float:
    gc.collect()
    start = time.perf_counter()
    for op in ops:
        op.run()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="the src/ directory of side A (the parent)")
    parser.add_argument("b", type=Path, help="the src/ directory of side B (the change)")
    parser.add_argument("--workload", choices=WORKLOADS, default="proximity")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1, help="picks the query workload's KB")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    workloads = load_module("_ab_workloads", BENCHMARKS / "workloads.py")
    digests = json.loads((BENCHMARKS / "digests.json").read_text()).get(args.workload, {})
    sides = {}
    for label, src in (("A", args.a), ("B", args.b)):
        ops = pool(workloads, load_side(src.resolve(), f"mvdatalog_{label.lower()}"),
                   args.workload, args.seed)
        problems = warm_up(workloads, ops, digests)
        if problems:
            print(f"side {label} ({src}): {len(problems)} ops fail their checks, "
                  f"first {problems[0]}", file=sys.stderr)
            return 1
        sides[label] = ops
    times = {label: [] for label in sides}
    wins = dict.fromkeys(sides, 0)
    for r in range(args.rounds):
        order = ("A", "B") if r % 2 == 0 else ("B", "A")
        took = {label: timed_pass(sides[label]) for label in order}
        for label in sides:
            times[label].append(took[label])
        wins[min(took, key=took.get)] += 1
    print(f"{args.workload}: {len(sides['A'])} ops a pass, {args.rounds} rounds, "
          f"first side alternating")
    print(f"{'side':<6}{'min ms':>10}{'q1 ms':>10}{'median ms':>11}{'wins':>6}")
    for label, src in (("A", args.a), ("B", args.b)):
        ts = sorted(times[label])
        q1 = statistics.quantiles(ts, n=4, method="inclusive")[0]
        print(f"{label:<6}{ts[0] * 1e3:>10.2f}{q1 * 1e3:>10.2f}"
              f"{statistics.median(ts) * 1e3:>11.2f}{wins[label]:>6}  {src}")
    ratios = [b / a for a, b in zip(times["A"], times["B"])]
    print(f"B/A per round: median {statistics.median(ratios):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
