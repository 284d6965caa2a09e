"""Seeded workloads for the mvdatalog benchmark: generators, ops and checks.

Every workload draws its inputs from a fixed pool.  A pool item is one
generated program (plus proximity and phi texts where the workload needs
them), identified by a shape and a variant number, and generated from a
string seed built from both, so the same item is produced in every process.
The run seed only chooses a variant for each shape in every cycle and the
order of the ops inside the cycle.  This keeps the work mix of every run the
same while the inputs differ from seed to seed, and it lets the expected
output of every pool item be recorded once (`digests.json`) and checked on
any seed.

The library sees only the generated texts.  An op is the sequence of
library calls a user makes; `Op.run` is the timed part and returns what the
untimed check needs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

VARIANTS = 8            # pool variants per shape
EPS = 1e-9              # level comparison tolerance of the independent checks


# ----------------------------------------------------------------------
# Output rendering and digests
# ----------------------------------------------------------------------

def fmt_level(v) -> str:
    if isinstance(v, tuple):
        return f"({v[0]:.6f}, {v[1]:.6f})"
    return f"{v:.6f}"


def render(items) -> list:
    """`atom = level` lines, sorted by the benchmark's own order."""
    return sorted(f"{atom} = {fmt_level(level)}" for atom, level in items)


def digest(lines, iterations: int) -> str:
    text = "\n".join(lines) + f"\niterations={iterations}\n"
    return hashlib.sha256(text.encode()).hexdigest()[:20]


# ----------------------------------------------------------------------
# Level generators (two decimals; inputs satisfy every system's constraint)
# ----------------------------------------------------------------------

_FILE_SYSTEM = {"fuzzy": "fuzzy", "ifs": "ifs", "ivs": "ivs", "bipolar_b": "bipolar-b"}


def _level(rng: random.Random, system: str, lo: float, hi: float) -> str:
    m1 = round(rng.uniform(lo, hi), 2)
    if system == "fuzzy":
        return f"{m1:.2f}"
    if system == "ivs":
        m2 = round(min(1.0, m1 + rng.uniform(0.0, 0.15)), 2)
    else:  # ifs and bipolar inputs: m1 + m2 <= 1
        m2 = round(rng.uniform(0.0, min(0.2, 1.0 - m1)), 2)
    return f"({m1:.2f}, {m2:.2f})"


def _impl_text(impl) -> str:
    return f"({impl[0]}, {impl[1]})" if isinstance(impl, tuple) else impl


# ----------------------------------------------------------------------
# Ops
# ----------------------------------------------------------------------

@dataclass
class Op:
    key: str                 # digest key: shape/variant[/mode] or kb/goal
    run: Callable            # timed: the user's library calls
    output: Callable         # result -> (lines, iterations, problems)


def check(op: Op, result, digests: dict) -> list:
    """Problems with an op's result: the independent checks, then the digest
    recorded for its pool item."""
    lines, iterations, problems = op.output(result)
    if digests.get(op.key) != digest(lines, iterations):
        problems.append("output differs from the recorded digest")
    return problems


def variant_plan(seed: int, shapes) -> dict:
    """A seeded order of the variants for every shape.  Cycle c runs entry
    c mod VARIANTS, so every VARIANTS cycles run each pool item once and
    runs with different seeds do the same mix of work."""
    rng = random.Random(f"variants/{seed}")
    return {shape[0]: rng.sample(range(VARIANTS), VARIANTS) for shape in shapes}


def cycle_variants(plan: dict, cycle: int) -> list:
    return [(shape, order[cycle % VARIANTS]) for shape, order in plan.items()]


# ----------------------------------------------------------------------
# closure: transitive closure under fixpoint, det and nondet
# ----------------------------------------------------------------------

# (name, graph kind, constants, system, rule operator, negated stratum)
CLOSURE_SHAPES = (
    ("chain8-godel", "chain", 8, "fuzzy", "godel", False),
    ("chain12-fg2", "chain", 12, "ifs", "fg2", False),
    ("chain16-bip", "chain", 16, "bipolar_b", ("lukasiewicz", "godel"), False),
    ("chain16-godel", "chain", 16, "fuzzy", "godel", False),
    ("chain16-luk", "chain", 16, "fuzzy", "lukasiewicz", False),
    ("cyc6-fg2-neg", "cyclic", 6, "ifs", "fg2", True),
    ("cyc9-godel-neg", "cyclic", 9, "fuzzy", "godel", True),
    ("cyc9-fg2", "cyclic", 9, "ifs", "fg2", False),
    ("cyc10-godel", "cyclic", 10, "fuzzy", "godel", False),
    ("cyc10-bip-neg", "cyclic", 10, "bipolar_b", ("godel", "godel"), True),
    ("cyc10-luk", "cyclic", 10, "fuzzy", "lukasiewicz", False),
    ("cyc12-godel-neg", "cyclic", 12, "fuzzy", "godel", True),
)
CLOSURE_BY_NAME = {s[0]: s for s in CLOSURE_SHAPES}


@dataclass
class ClosureInput:
    text: str
    edges: dict              # (x, y) -> fuzzy level, for the widest-path check
    rule_levels: tuple       # fuzzy (base, recursive[, negated])
    godel: bool
    negated: bool


def closure_input(shape_name: str, variant: int) -> ClosureInput:
    _, kind, n, system, impl, neg = CLOSURE_BY_NAME[shape_name]
    rng = random.Random(f"closure/{shape_name}/{variant}")
    names = [f"c{i:02d}" for i in range(n)]
    rng.shuffle(names)
    if kind == "chain":
        edges = [(names[i], names[i + 1]) for i in range(n - 1)]
    else:
        # a cycle over two thirds of the constants, a tail hanging off it
        # and n // 3 random chords: the negated stratum derives only over
        # the cyclic part
        ring = max(3, (2 * n) // 3)
        edges = [(names[i], names[(i + 1) % ring]) for i in range(ring)]
        edges += [(names[i - 1], names[i]) for i in range(ring, n)]
        while len(edges) < n + n // 3:
            a, b = rng.sample(names, 2)
            if (a, b) not in edges:
                edges.append((a, b))
    hi_lo = (0.85, 1.0) if impl == "lukasiewicz" else (0.4, 1.0)
    rule_lo = (0.9, 1.0) if impl == "lukasiewicz" else (0.6, 1.0)
    lines = [f"%system {_FILE_SYSTEM[system]}."]
    edge_levels = {}
    for a, b in edges:
        lvl = _level(rng, system, *hi_lo)
        edge_levels[(a, b)] = lvl
        lines.append(f"fact e({a}, {b}) = {lvl}.")
    it = _impl_text(impl)
    rule_levels = [_level(rng, system, *rule_lo) for _ in range(3 if neg else 2)]
    lines.append(f"rule t(X, Y) <- e(X, Y) : {it}, {rule_levels[0]}.")
    lines.append(f"rule t(X, Z) <- e(X, Y), t(Y, Z) : {it}, {rule_levels[1]}.")
    if neg:
        lines.append(f"rule u(X, Y) <- t(X, Y), not t(Y, X) : {it}, {rule_levels[2]}.")
    godel = system == "fuzzy" and impl == "godel"
    return ClosureInput(
        "\n".join(lines) + "\n",
        {k: float(v) for k, v in edge_levels.items()} if godel else {},
        tuple(float(v) for v in rule_levels) if godel else (),
        godel, neg)


def widest_path_model(ci: ClosureInput) -> dict:
    """Expected Goedel-fuzzy fixed point, computed without the engine.

    t(x, y) is the best over all paths x -> y of the minimum of its edge
    levels, the base rule level and, for paths of two or more edges, the
    recursive rule level; u(x, y) = min(t(x, y), 1 - t(y, x), rule level)
    where both t atoms exist.  Bottom (0) levels are not stored.
    """
    base, rec = ci.rule_levels[0], ci.rule_levels[1]
    t = {(x, y): min(v, base) for (x, y), v in ci.edges.items()}
    changed = True
    while changed:
        changed = False
        for (x, y), ev in ci.edges.items():
            for (y2, z), tv in list(t.items()):
                if y2 != y:
                    continue
                v = min(ev, tv, rec)
                if v > t.get((x, z), 0.0):
                    t[(x, z)] = v
                    changed = True
    model = {f"e({x}, {y})": v for (x, y), v in ci.edges.items()}
    model.update({f"t({x}, {y})": v for (x, y), v in t.items()})
    if ci.negated:
        for (x, y), v in t.items():
            if (y, x) in t:
                u = min(v, 1.0 - t[(y, x)], ci.rule_levels[2])
                if u > EPS:
                    model[f"u({x}, {y})"] = u
    return model


def closure_ops(rng, lib, variants, agreement) -> list:
    """One cycle: the given variant of every shape, each run det and nondet,
    in seeded order."""
    ops = [closure_op(lib, shape, variant, mode, agreement)
           for shape, variant in variants for mode in ("det", "nondet")]
    rng.shuffle(ops)
    return ops


def closure_op(lib, shape: str, variant: int, mode: str, agreement: dict) -> Op:
    ci = closure_input(shape, variant)

    def run():
        return lib.fixpoint(lib.parse_program(ci.text), mode)

    def output(report):
        problems = [] if report.converged else ["did not converge"]
        lines = render(report.interpretation.entries.items())
        if ci.godel:
            got = {str(a): v for a, v in report.interpretation.entries.items()}
            want = widest_path_model(ci)
            if got.keys() != want.keys() or any(abs(got[k] - want[k]) > EPS for k in want):
                problems.append("levels differ from the widest-path values")
        if not ci.negated:
            # negation-free programs: det and nondet reach the same model
            if agreement.setdefault(f"{shape}/{variant}", lines) != lines:
                problems.append("det and nondet interpretations differ")
        return lines, report.iterations, problems

    return Op(f"{shape}/{variant}/{mode}", run, output)


def closure_pool(lib) -> list:
    agreement = {}
    return [closure_op(lib, shape[0], variant, mode, agreement)
            for shape in CLOSURE_SHAPES for variant in range(VARIANTS)
            for mode in ("det", "nondet")]


# ----------------------------------------------------------------------
# proximity: ex23 scaled up, knowledge-base consequence
# ----------------------------------------------------------------------

# (name, system, rule operator, entities, phi choices).  Two small, four
# medium and two large shapes: the median and the 90th percentile of a cycle
# fall inside a group of similar ops rather than between two of them.
PROXIMITY_SHAPES = (
    ("ivs4-prod", "ivs", "vg2", 4, ("meet", "meet-product", "product")),
    ("ifs4-meet", "ifs", "fg2", 4, ("meet", "meet-product")),
    ("ivs6-mp", "ivs", "vg2", 6, ("meet-product", "product")),
    ("ifs6-mp", "ifs", "fg2", 6, ("meet", "meet-product")),
    ("fuzzy6-meet", "fuzzy", "godel", 6, ("meet", "meet-product")),
    ("ivs6-prod", "ivs", "vg2", 6, ("meet", "product")),
    ("ivs8-meet", "ivs", "vg2", 8, ("meet", "product")),
    ("ifs8-mp", "ifs", "fg2", 8, ("meet", "meet-product")),
)
PROXIMITY_BY_NAME = {s[0]: s for s in PROXIMITY_SHAPES}

# predicates of the scaled ex23 program and the synonym each must keep so
# that rules reach facts: the rules read gc/mu, the facts are fv/mf
_PROX_PREDS = ("lo", "gc", "mu", "re", "av", "fv", "mf")
_PROX_LINKS = (("lo", "li"), ("gc", "fv"), ("mu", "mf"), ("re", "rc"))


@dataclass
class KbTexts:
    program: str
    prox: str
    phi: str


def proximity_input(shape_name: str, variant: int) -> KbTexts:
    _, system, impl, k, phis = PROXIMITY_BY_NAME[shape_name]
    rng = random.Random(f"proximity/{shape_name}/{variant}")
    people = [f"p{i}" for i in range(k - k // 2)]
    items = [f"i{i}" for i in range(k // 2)]
    prog = [f"%system {_FILE_SYSTEM[system]}."]
    prog.append(f"rule lo(X, Y) <- gc(Y), mu(X) : {impl}, {_level(rng, system, 0.6, 0.95)}.")
    prog.append(f"rule re(X, Y) <- lo(X, Y), av(Y) : {impl}, {_level(rng, system, 0.6, 0.95)}.")
    for x in people:
        prog.append(f"fact mf({x}) = {_level(rng, system, 0.5, 0.95)}.")
    for y in items:
        prog.append(f"fact fv({y}) = {_level(rng, system, 0.5, 0.95)}.")
        prog.append(f"fact av({y}) = {_level(rng, system, 0.5, 0.95)}.")
    # synonym counts cycle through 1, 2, 3 by position, so every variant of a
    # shape does the same amount of head expansion
    prox = [f"%system {_FILE_SYSTEM[system]}.", "%domain terms."]
    for i, c in enumerate(people + items):
        for j in range(1 + i % 3):
            prox.append(f"{c} ~ {c}s{j} = {_level(rng, system, 0.5, 0.95)}.")
    prox.append("%domain predicates.")
    synonyms = {p: 0 for p in _PROX_PREDS}
    for a, b in _PROX_LINKS:
        prox.append(f"{a} ~ {b} = {_level(rng, system, 0.5, 0.95)}.")
        synonyms[a] += 1
        if b in synonyms:
            synonyms[b] += 1
    for i, p in enumerate(_PROX_PREDS):
        for j in range(synonyms[p], 1 + i % 3):
            prox.append(f"{p} ~ {p}y{j} = {_level(rng, system, 0.5, 0.95)}.")
    arity = {"lo": 2, "re": 2, "gc": 1, "mu": 1, "av": 1, "fv": 1, "mf": 1}
    phi = [f"phi {p}/{arity[p]} = {rng.choice(phis)}." for p in _PROX_PREDS]
    return KbTexts("\n".join(prog) + "\n", "\n".join(prox) + "\n",
                          "\n".join(phi) + "\n")


def load_kb(lib, program_text, prox_text, phi_text):
    program = lib.parse_program(program_text)
    term_prox, pred_prox, _ = lib.parse_proximity_file(prox_text)
    return lib.build_kb(program, lib.BackgroundKnowledge(term_prox, pred_prox),
                        lib.parse_phi_file(phi_text))


def proximity_ops(rng, lib, variants) -> list:
    ops = [proximity_op(lib, shape, variant) for shape, variant in variants]
    rng.shuffle(ops)
    return ops


def proximity_op(lib, shape: str, variant: int) -> Op:
    pi = proximity_input(shape, variant)

    def run():
        return lib.consequence(load_kb(lib, pi.program, pi.prox, pi.phi))

    def output(report):
        problems = [] if report.converged else ["did not converge"]
        return render(report.interpretation.entries.items()), report.iterations, problems

    return Op(f"{shape}/{variant}", run, output)


def proximity_pool(lib) -> list:
    return [proximity_op(lib, shape[0], variant)
            for shape in PROXIMITY_SHAPES for variant in range(VARIANTS)]


# ----------------------------------------------------------------------
# query: one loaded KB, many goal-directed answers
# ----------------------------------------------------------------------

QUERY_COMPONENTS = 4
QUERY_COMPONENT_SIZE = 5
QUERY_SYSTEM = "ivs"


def query_input(variant: int) -> KbTexts:
    """Four disjoint recursive components with their own predicates.  Each
    component root has one term synonym and each closure predicate one
    predicate synonym.  Every variant has the same graphs (a chain with one
    back edge and one chord) and differs in levels and phi choices only, so
    the KB a seed picks does not change the amount of work."""
    rng = random.Random(f"query/{variant}")
    system, n = QUERY_SYSTEM, QUERY_COMPONENT_SIZE
    prog = [f"%system {_FILE_SYSTEM[system]}."]
    prox_terms, prox_preds, phi = [], [], []
    for c in range(QUERY_COMPONENTS):
        names = [f"a{c}n{i}" for i in range(n)]
        edges = [(names[i], names[i + 1]) for i in range(n - 1)]
        edges += [(names[n - 1], names[1]), (names[0], names[2])]
        for a, b in edges:
            prog.append(f"fact e{c}({a}, {b}) = {_level(rng, system, 0.7, 1.0)}.")
        prog.append(f"rule t{c}(X, Y) <- e{c}(X, Y) : vg2, {_level(rng, system, 0.8, 1.0)}.")
        prog.append(f"rule t{c}(X, Z) <- e{c}(X, Y), t{c}(Y, Z) : vg2, "
                    f"{_level(rng, system, 0.8, 1.0)}.")
        prox_terms.append(f"{names[0]} ~ s{c} = {_level(rng, system, 0.8, 0.95)}.")
        prox_preds.append(f"t{c} ~ r{c} = {_level(rng, system, 0.8, 0.95)}.")
        phi.append(f"phi t{c}/2 = {rng.choice(('meet', 'meet-product', 'product'))}.")
    prox = ([f"%system {_FILE_SYSTEM[system]}.", "%domain terms."] + prox_terms
            + ["%domain predicates."] + prox_preds)
    return KbTexts("\n".join(prog) + "\n", "\n".join(prox) + "\n",
                          "\n".join(phi) + "\n")


def query_goals():
    """Every goal form: component x predicate (original or synonym) x
    arguments (bound root, synonym of the root, all free) x level bound."""
    out = []
    for c in range(QUERY_COMPONENTS):
        for pred in (f"t{c}", f"r{c}"):
            for args in (f"a{c}n0, X", f"s{c}, X", "X, Y"):
                for at_least in (None, "(0.2, 0.3)"):
                    out.append((f"{pred}({args})", at_least))
    return out


def query_variant(seed: int) -> int:
    return random.Random(f"query-kb/{seed}").randrange(VARIANTS)


def query_ops(rng, lib, kb, variant: int) -> list:
    """One cycle: every goal form once, in seeded order, on the loaded KB."""
    ops = [query_op(lib, kb, variant, index) for index in range(len(query_goals()))]
    rng.shuffle(ops)
    return ops


def query_op(lib, kb, variant: int, index: int) -> Op:
    goal_text, at_least = query_goals()[index]

    def run():
        level = None if at_least is None else lib.parse_level(at_least, kb.program.system)
        return lib.answer(kb, lib.Goal(lib.parse_goal(goal_text, kb.program), level))

    def output(result):
        problems = [] if result.report.converged else ["did not converge"]
        lines = render(result.answers)
        if not lines:
            problems.append("no answers")
        return lines, result.report.iterations, problems

    return Op(f"{variant}/{index}", run, output)


def query_pool(lib, variant: int) -> list:
    pi = query_input(variant)
    kb = load_kb(lib, pi.program, pi.prox, pi.phi)
    return [query_op(lib, kb, variant, index) for index in range(len(query_goals()))]
