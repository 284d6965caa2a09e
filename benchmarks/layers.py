"""Per-layer tracing for the benchmark's traced run.

Wrappers are installed from the benchmark's own code, on the module-level
names that mvdatalog's callers look up at call time (for example
`engine.ground` for `fixpoint` and `kb.ground` for `consequence`), and are
removed again after each pass.  The untraced run never imports this module.

Phase pass: each hooked call records a span (name, start, end, parent span,
op id) in memory; the spans are written out when the pass is over.  A
span's self time is its duration minus the time its child spans cover.
Counter pass: no spans; hooked calls, `level_fn` and the `values` lattice
functions are only counted, and the tracemalloc peak of each op is taken.

A hook target that no longer exists is reported as missing; a metric is
left out of the result, rather than reported as 0, when none of the
targets of a span name it needs is left.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

# (span name, module under mvdatalog, attribute).  The package entries are
# the calls the benchmark makes itself; the others are where the library's
# own callers look the names up.
PHASE_HOOKS = (
    ("lang.parse", "", "parse_program"),
    ("kb.load", "", "parse_proximity_file"),
    ("kb.load", "", "parse_phi_file"),
    ("kb.load", "", "build_kb"),
    ("engine.fixpoint", "", "fixpoint"),
    ("kb.consequence", "", "consequence"),
    ("query.answer", "", "answer"),
    ("lang.ground", "engine", "ground"),
    ("lang.ground", "kb", "ground"),
    ("engine.stratify", "engine", "stratify"),
    ("engine.stratify", "kb", "stratify"),
    ("engine.dt_step", "engine", "dt_step"),
    ("engine.nt_step", "engine", "nt_step"),
    ("kb.mod_step", "kb", "mod_nt_step"),
    ("kb.proximity_set", "kb", "proximity_set"),
    ("kb.proximity_set", "query", "proximity_set"),
    ("query.tree", "query", "build_tree"),
    ("query.start", "query", "starting_facts"),
    ("query.consequence", "query", "consequence"),
)

# counted in the counter pass only: too frequent to time without distorting
COUNTER_HOOKS = (
    ("implications.level_fn", "implications", "level_fn"),
) + tuple(("values", "values", name) for name in (
    "bottom", "top", "leq", "meet", "join", "meet_all", "negate",
    "values_equal", "is_bottom"))


def _observe_ground(stats, args, result):
    stats["lang.ground.instances"] += sum(len(rules) for rules in result)


def _observe_step(stats, args, result):
    stats["engine.scan.instances"] += len(args[0])


def _observe_fixpoint(stats, args, result):
    stats["engine.step.productive"] += result.iterations
    stats["engine.atoms"] += len(result.interpretation)


def _observe_consequence(stats, args, result):
    stats["kb.atoms"] += len(result.interpretation)


def _observe_tree(stats, args, result):
    stats.trees.append(result)


def _observe_start(stats, args, result):
    stats["query.start.facts"] += len(result)
    stats["query.program.facts"] += len(args[1].facts())


def _observe_answer(stats, args, result):
    stats["query.answers"] += len(result.answers)


OBSERVERS = {
    "lang.ground": _observe_ground,
    "engine.dt_step": _observe_step,
    "engine.nt_step": _observe_step,
    "engine.fixpoint": _observe_fixpoint,
    "kb.consequence": _observe_consequence,
    "query.consequence": _observe_consequence,
    "query.tree": _observe_tree,
    "query.start": _observe_start,
    "query.answer": _observe_answer,
}


class Stats(Counter):
    """Counts observed at the hooks, plus the trees kept for the walk that
    runs after each op, outside its timed interval."""

    def __init__(self):
        super().__init__()
        self.trees = []

    def walk_trees(self) -> None:
        for tree in self.trees:
            for node in tree.walk():
                self["query.tree.nodes"] += 1
                if node.kind == "subgoal":
                    self["query.tree.subgoals"] += 1
                    self["query.tree.repeated"] += node.repeated
        self.trees.clear()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: str


class Tracer:
    """Installs wrappers and collects spans and counts until `uninstall`."""

    def __init__(self, lib, counters: bool):
        """counters=False is the phase pass (spans, no counter hooks);
        counters=True is the counter pass (counter hooks, no spans)."""
        self.lib = lib
        self.counters = counters
        self.spans: list = []
        self.stack: list = []
        self.op = "setup"
        self.stats = Stats()
        self.calls = Counter()
        self.installed: set = set()
        self.missing: set = set()
        self._undo: list = []
        hooks = PHASE_HOOKS + (COUNTER_HOOKS if counters else ())
        for name, module, attr in hooks:
            self._install(name, module, attr)

    def _install(self, name, module, attr):
        target = (self.lib if not module
                  else importlib.import_module(f"{self.lib.__name__}.{module}"))
        fn = getattr(target, attr, None)
        if not callable(fn):
            self.missing.add(f"{target.__name__}.{attr}")
            return
        self.installed.add(name)
        setattr(target, attr, self._wrap(name, fn, OBSERVERS.get(name)))
        self._undo.append((target, attr, fn))

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]):
        calls, stats = self.calls, self.stats
        if self.counters:
            def counted(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(stats, args, result)
                return result
            return counted

        spans, stack = self.spans, self.stack

        def timed(*args, **kwargs):
            calls[name] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op)
            if observe is not None:
                observe(stats, args, result)
            return result
        return timed

    def uninstall(self) -> None:
        for target, attr, fn in reversed(self._undo):
            setattr(target, attr, fn)
        self._undo.clear()

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps([span.name, span.start, span.end, span.parent,
                                      span.op]) + "\n")

    def span_times(self):
        """Total duration and total self time per span name."""
        total, own = Counter(), Counter()
        child_time = Counter()
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        for index, span in enumerate(self.spans):
            duration = span.end - span.start
            total[span.name] += duration
            own[span.name] += duration - child_time[index]
        return total, own
