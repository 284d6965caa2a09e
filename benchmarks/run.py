#!/usr/bin/env python3
"""Benchmark for mvdatalog: seeded workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload closure|proximity|query \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory and nowhere else.  Each workload is a closed loop with one
client in this one process: the next op starts when the previous one has
returned.  An op is timed from its first library call to its return; its
output check runs outside that interval, and an op that raises or fails its
check counts as failed.

`--trace 0` (the untraced run, no wrappers installed) measures for
`--seconds` and reports the end-to-end metrics.  Op latency and throughput
are reported relative to a reference probe timed after every op (see
reference_probe), because the speed of a shared host drifts by more than
any useful bound between runs.  setup_s is likewise scaled by probes timed
in each set-up interpreter, to seconds of a host on which the probe takes
REF_PROBE_S (see measure_setup).  The wall-clock figures are printed too.

`--trace 1` runs the first TRACED_OPS ops of the seeded cycles four times:
twice without wrappers (a warm-up, then the base for trace.overhead), in
the phase pass and in the counter pass (see layers.py), and reports the
per-layer metrics; it ignores `--seconds`, so its counts repeat exactly.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Without the library sources the run exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SPANS = ROOT / ".bench_spans"       # traced runs write their spans here

WORKLOADS = ("closure", "proximity", "query")
MIN_OPS = 100           # timed ops per run: at least ten beyond p90
WARM_UP_OPS = 2
PROBE_WINDOW = 15       # reference probes (one after every op) per host-speed estimate
SETUP_REPEATS = 5       # fresh interpreters before and again after the timed loop
SETUP_PROBES = 15       # reference probes per set-up interpreter, after its set-up
REF_PROBE_S = 0.002     # probe seconds on the host that setup_s is scaled to
IMPORT_REPEATS = 5      # fresh interpreters for the -X importtime breakdown
TRACED_OPS = 24         # ops in the traced list: the first ones of the seeded cycles

# spans each workload's traced run must see fire, and layer prefixes that
# must stay silent there
EXPECTED_SPANS = {
    "closure": ("lang.parse", "engine.fixpoint", "lang.ground", "engine.stratify",
                "engine.dt_step", "engine.nt_step"),
    "proximity": ("lang.parse", "kb.load", "kb.consequence", "lang.ground",
                  "engine.stratify", "kb.mod_step", "kb.proximity_set"),
    "query": ("lang.parse", "kb.load", "query.answer", "query.tree", "query.start",
              "query.consequence", "lang.ground", "engine.stratify", "kb.mod_step",
              "kb.proximity_set"),
}
SILENT_LAYERS = {"closure": ("kb.", "query."), "proximity": ("query.",), "query": ()}

SETUP_CODE = r"""
import json, sys, time
data = json.loads(sys.stdin.read())
sys.path.insert(0, data["src"])
sys.path.insert(1, data["bench"])
import workloads
start = time.perf_counter()
import mvdatalog
if data["kb"] is not None:
    workloads.load_kb(mvdatalog, *data["kb"])
took = time.perf_counter() - start
from run import reference_probe
print(took, *(reference_probe() for _ in range(data["probes"])))
"""


def load_library():
    init = SRC / "mvdatalog" / "__init__.py"
    if not init.is_file():
        print(f"error: no mvdatalog sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import mvdatalog
    if Path(mvdatalog.__file__).resolve() != init.resolve():
        print(f"error: imported mvdatalog from {mvdatalog.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return mvdatalog


class Bench:
    """One workload's inputs: the shared state loaded at set-up and the
    seeded op cycles."""

    def __init__(self, name: str, lib, seed: int, digests):
        self.name = name
        self.lib = lib
        self.seed = seed
        self.digests = digests.get(name, {})
        self.agreement = {}
        shapes = {"closure": W.CLOSURE_SHAPES, "proximity": W.PROXIMITY_SHAPES}
        self.plan = W.variant_plan(seed, shapes.get(name, ()))
        self.kb = None
        self.kb_texts = None
        if name == "query":
            self.variant = W.query_variant(seed)
            pi = W.query_input(self.variant)
            self.kb_texts = (pi.program, pi.prox, pi.phi)

    def load(self) -> None:
        """The workload's shared inputs, loaded once per run."""
        if self.kb_texts is not None:
            self.kb = W.load_kb(self.lib, *self.kb_texts)

    def cycle(self, rng: random.Random, index: int) -> list:
        """The ops of cycle `index`, in an order drawn from rng."""
        variants = W.cycle_variants(self.plan, index)
        if self.name == "closure":
            return W.closure_ops(rng, self.lib, variants, self.agreement)
        if self.name == "proximity":
            return W.proximity_ops(rng, self.lib, variants)
        return W.query_ops(rng, self.lib, self.kb, self.variant)

    def run_op(self, op, log) -> tuple:
        """(seconds, ok); seconds is None when the op raised."""
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failing op is data, the loop goes on
            log(f"op {op.key} raised {type(exc).__name__}: {exc}")
            return None, False
        seconds = time.perf_counter() - start
        problems = W.check(op, result, self.digests)
        for problem in problems:
            log(f"op {op.key}: {problem}")
        return seconds, not problems


def reference_probe() -> float:
    """Seconds taken by a fixed pure-Python computation that shares no code
    with mvdatalog.  Timed next to every op, it measures how fast the host
    runs Python at that moment."""
    start = time.perf_counter()
    table = {}
    for i in range(3500):
        table[(i, i % 7)] = (i * 0.5, -i)
    sorted(table.items(), key=lambda kv: kv[1][1])
    return time.perf_counter() - start


def measure_setup(bench: Bench) -> list:
    """One (wall seconds, median probe seconds) pair per fresh interpreter,
    for `import mvdatalog` plus loading the workload's shared inputs, in
    each of SETUP_REPEATS interpreters.  The probes run in the same
    interpreter right after its set-up, so they see the host at the speed
    the set-up saw."""
    payload = json.dumps({"src": str(SRC), "bench": str(HERE), "kb": bench.kb_texts,
                          "probes": SETUP_PROBES})
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], input=payload,
                              capture_output=True, text=True, timeout=120, check=True)
        took, *probes = map(float, done.stdout.split())
        samples.append((took, statistics.median(probes)))
    return samples


def run_untraced(bench: Bench, seconds: float, log) -> dict:
    setup = measure_setup(bench)
    bench.load()
    attempted = failed = 0
    for op in bench.cycle(random.Random(f"warm-up/{bench.seed}"), 0)[:WARM_UP_OPS]:
        attempted += 1
        failed += not bench.run_op(op, log)[1]
    rng = random.Random(bench.seed)
    latencies, probes, probe_after = [], [reference_probe()], []
    verified = 0
    deadline = time.perf_counter() + seconds
    cycle = 0
    while time.perf_counter() < deadline or len(latencies) < MIN_OPS:
        ops = bench.cycle(rng, cycle)
        cycle += 1
        for op in ops:
            attempted += 1
            took, ok = bench.run_op(op, log)
            probes.append(reference_probe())
            if took is not None:
                latencies.append(took)
                probe_after.append(len(probes) - 1)
            verified += ok
            failed += not ok
            if time.perf_counter() >= deadline and len(latencies) >= MIN_OPS:
                break
    setup += measure_setup(bench)
    # each op relative to the host speed around it: the median of the probes
    # in a window centred on the probe taken after the op, which follows slow
    # phases of the host (seconds long) but not one probe's jitter
    half = PROBE_WINDOW // 2
    relative = [took / statistics.median(probes[max(0, i - half):i + half + 1])
                for took, i in zip(latencies, probe_after)]
    log(f"{len(latencies)} timed ops, {failed} failed of {attempted} attempted")
    # plain wall-clock figures, printed for users but not gated: slow phases
    # of a shared host move them by more than any bound could allow
    wall = {
        "ops_per_s": (verified / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (statistics.quantiles(latencies, n=10)[8], "s"),
        "reference_probe_s": (statistics.median(probes), "s"),
        "setup_wall_s": (statistics.median(took for took, _ in setup), "s"),
    }
    metrics = {
        "setup_s": (REF_PROBE_S * statistics.median(took / probe for took, probe in setup),
                    "s"),
        "ops_per_kref": (1000 * verified / sum(relative), "1/kref"),
        "latency_p50_ref": (statistics.median(relative), "ref"),
        "latency_p90_ref": (statistics.quantiles(relative, n=10)[8], "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {"attempted": attempted, "failed": failed, "problems": [], "metrics": metrics,
            "wall": wall}


def import_times() -> tuple:
    """Median cumulative import time of mvdatalog and of numpy, in seconds,
    from `-X importtime` in fresh interpreters (numpy 0.0 when not imported)."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import mvdatalog"
    totals, numpy = [], []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, timeout=120, check=True)
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        totals.append(cumulative["mvdatalog"])
        numpy.append(cumulative.get("numpy", 0.0))
    return statistics.median(totals), statistics.median(numpy)


def _traced_ops(bench: Bench) -> list:
    rng = random.Random(bench.seed)
    ops, cycle = [], 0
    while len(ops) < TRACED_OPS:
        ops.extend(bench.cycle(rng, cycle))
        cycle += 1
    return ops[:TRACED_OPS]


def _run_pass(bench: Bench, log, tracer=None, memory=False) -> dict:
    """Load the shared inputs and run the traced op list once."""
    bench.load()
    ops = _traced_ops(bench)
    elapsed, failed, peak = 0.0, 0, 0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = str(index)
        if memory:
            tracemalloc.reset_peak()
        took, ok = bench.run_op(op, log)
        if memory:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        if tracer is not None:
            tracer.stats.walk_trees()
        elapsed += took or 0.0
        failed += not ok
    return {"ops": len(ops), "failed": failed, "seconds": elapsed, "peak": peak}


def run_traced(bench: Bench, log) -> dict:
    from layers import Tracer

    warm_up = _run_pass(bench, log)      # first-run costs stay out of the overhead
    plain = _run_pass(bench, log)
    phase = Tracer(bench.lib, counters=False)
    try:
        phased = _run_pass(bench, log, phase)
    finally:
        phase.uninstall()
    counter = Tracer(bench.lib, counters=True)
    tracemalloc.start()
    try:
        counted = _run_pass(bench, log, counter, memory=True)
    finally:
        tracemalloc.stop()
        counter.uninstall()
    import_s, numpy_s = import_times()

    problems = []
    for name in EXPECTED_SPANS[bench.name]:
        if name in phase.installed and not phase.calls[name]:
            problems.append(f"hook coverage: {name} never fired on {bench.name}")
    for name, calls in phase.calls.items():
        if calls and name.startswith(SILENT_LAYERS[bench.name]):
            problems.append(f"hook coverage: {name} fired {calls} times on {bench.name}")
    shared = set(phase.calls) | {n for n in counter.calls if n in phase.installed}
    for name in sorted(shared):
        if phase.calls[name] != counter.calls[name]:
            problems.append(f"count determinism: {name} called {phase.calls[name]} "
                            f"then {counter.calls[name]} times")
    if phase.stats != counter.stats:
        problems.append("count determinism: observed counts differ between passes")
    for name in sorted(phase.missing | counter.missing):
        log(f"hook target missing, metrics needing only it are left out: {name}")
    spans_file = SPANS / f"{bench.name}-seed{bench.seed}.jsonl"
    phase.write_spans(spans_file)
    log(f"wrote {len(phase.spans)} spans to {spans_file.relative_to(ROOT)}")
    for problem in problems:
        log(problem)

    metrics = layer_metrics(phase, counter, counted["peak"])
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.import.numpy_s"] = (numpy_s, "s")
    metrics["trace.overhead"] = (plain["seconds"] / phased["seconds"], "ratio")
    log(f"traced {phased['ops']} ops per pass; phase pass {phased['seconds']:.2f} s, "
        f"untraced {plain['seconds']:.2f} s, counter pass {counted['seconds']:.2f} s")
    passes = (warm_up, plain, phased, counted)
    return {"attempted": sum(p["ops"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "problems": problems, "metrics": metrics}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(phase, counter, op_peak_bytes) -> dict:
    """Per-layer metrics over the traced op list: times are totals in
    seconds, counts are totals.  Every metric is reported on every workload,
    as measured: one of a layer the workload never calls reads 0 (the
    hook-coverage check holds those layers silent).  A metric whose hook is
    missing is left out, never reported as 0."""
    total, own = phase.span_times()
    calls, stats = phase.calls, phase.stats
    step_calls = calls["engine.dt_step"] + calls["engine.nt_step"]
    candidates = {
        "lang.parse_s": (("lang.parse",), total["lang.parse"], "s"),
        "lang.ground_s": (("lang.ground",), total["lang.ground"], "s"),
        "lang.ground.instances": (("lang.ground",), stats["lang.ground.instances"], "count"),
        "engine.stratify_s": (("engine.stratify",), total["engine.stratify"], "s"),
        "engine.dt_step_s": (("engine.dt_step",), own["engine.dt_step"], "s"),
        "engine.nt_step_s": (("engine.nt_step",), own["engine.nt_step"], "s"),
        "engine.step.calls": (("engine.dt_step", "engine.nt_step"), step_calls, "count"),
        "engine.step.productive": (("engine.fixpoint",), stats["engine.step.productive"],
                                   "count"),
        "engine.step.yield": (("engine.dt_step", "engine.nt_step", "engine.fixpoint"),
                              _ratio(stats["engine.step.productive"], step_calls), "ratio"),
        "engine.scan.instances": (("engine.dt_step", "engine.nt_step"),
                                  stats["engine.scan.instances"], "count"),
        "engine.scan_per_atom": (("engine.dt_step", "engine.nt_step", "engine.fixpoint"),
                                 _ratio(stats["engine.scan.instances"],
                                        stats["engine.atoms"]), "ratio"),
        "engine.atoms": (("engine.fixpoint",), stats["engine.atoms"], "count"),
        "implications.level_fn.calls": (("implications.level_fn",),
                                        counter.calls["implications.level_fn"], "count"),
        "values.calls": (("values",), counter.calls["values"], "count"),
        "kb.load_s": (("kb.load",), total["kb.load"], "s"),
        "kb.mod_step_s": (("kb.mod_step",), own["kb.mod_step"], "s"),
        "kb.mod_step.calls": (("kb.mod_step",), calls["kb.mod_step"], "count"),
        "kb.proximity_set_s": (("kb.proximity_set",), total["kb.proximity_set"], "s"),
        "kb.proximity_set.calls": (("kb.proximity_set",), calls["kb.proximity_set"], "count"),
        "kb.atoms": (("kb.consequence", "query.consequence"), stats["kb.atoms"], "count"),
        "query.tree_s": (("query.tree",), total["query.tree"], "s"),
        "query.tree.nodes": (("query.tree",), stats["query.tree.nodes"], "count"),
        "query.tree.repeated_ratio": (("query.tree",),
                                      _ratio(stats["query.tree.repeated"],
                                             stats["query.tree.subgoals"]), "ratio"),
        "query.start.facts": (("query.start",), stats["query.start.facts"], "count"),
        "query.start_ratio": (("query.start",),
                              _ratio(stats["query.start.facts"],
                                     stats["query.program.facts"]), "ratio"),
        "query.consequence_s": (("query.consequence",), total["query.consequence"], "s"),
        "query.answers": (("query.answer",), stats["query.answers"], "count"),
        "mem.op_peak_mb": ((), op_peak_bytes / 2**20, "MB"),
    }
    installed = phase.installed | counter.installed
    return {name: (value if unit == "count" else float(value), unit)
            for name, (needs, value, unit) in candidates.items()
            if all(n in installed for n in needs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = load_library()
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))

    def log(message):
        print(f"[{args.workload}] {message}", file=sys.stderr, flush=True)

    bench = Bench(args.workload, lib, args.seed, digests)
    if args.trace:
        out = run_traced(bench, log)
    else:
        out = run_untraced(bench, args.seconds, log)
    for name, (value, unit) in {**out["metrics"], **out.get("wall", {})}.items():
        print(f"{name} = {value} {unit}")
    # error_rate is printed but is not a JSON metric: an end-to-end metric's
    # bound is a share of its median, so it must never read 0, and
    # error_rate reads 0 on every correct run.  The JSON carries it as
    # failed / attempted.  Per-layer metrics have no bound and may read 0.
    print(f"error_rate = {out['failed'] / out['attempted']} ratio")
    print(json.dumps({
        "correct": out["failed"] == 0 and not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
