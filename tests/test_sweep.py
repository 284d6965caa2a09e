"""Differential tests on seeded random programs and knowledge bases: the
interned, delta-driven, in-place evaluation of `fixpoint` and `consequence`
against `helpers.reference_sweep`, the full-rescan sweep driven by the
verbatim reference steps (`reference_dt_step`, `reference_nt_step`,
`reference_mod_nt_step`) over the GroundRule lists of `lang.ground`, on the
pruned grounding and on the full one.  More cases scale these up: chain
and cyclic closures up to 40 edges, an ifs chain whose derived levels leave
the lattice on every edge, and a knowledge base with nullary and ternary
heads under every uncertainty function.  The step operators, called on
their own with GroundRules and Interpretations, are compared with the
reference steps too.

Every report must agree exactly: entries in insertion order (levels
compared with ==), iteration counts, convergence and the diagnostics list
in order."""

import random

from mvdatalog import engine, kb, lang
from mvdatalog import values as V
from mvdatalog.kb import (BackgroundKnowledge, build_kb, consequence, parse_phi_file,
                          parse_proximity_file)
from mvdatalog.lang import Atom, Constant, Variable, parse_program
from mvdatalog.engine import fixpoint

from helpers import (check_table, random_bk, random_phi, random_program, reference_consequence,
                     reference_dt_step, reference_fixpoint, reference_mod_nt_step,
                     reference_nt_step)

SYSTEMS = (V.FUZZY, V.IFS, V.IVS, V.BIPOLAR_A, V.BIPOLAR_B)
MAX_ITERS = (1, 2, 3, 7, 10000)
TRIALS = 80


def _report(rep):
    return (list(rep.interpretation.entries.items()), rep.iterations, rep.converged,
            rep.diagnostics)


def _runs(rng, program, pruned=True):
    """(name, run, reference) triples of every evaluation to compare on one
    program, run and reference taking max_iters: the reference grounds by
    pruning or fully."""
    knowledge = build_kb(program, random_bk(rng, program), random_phi(rng, program))
    for mode in ("det", "nondet"):
        yield (mode, lambda n, m=mode: fixpoint(program, mode=m, max_iters=n),
               lambda n, m=mode: reference_fixpoint(program, m, n, pruned))
    yield ("consequence", lambda n: consequence(knowledge, max_iters=n),
           lambda n: reference_consequence(knowledge, n, pruned))


def _shuffled_order(rng, program):
    order = list(range(1, len(program.proper_rules()) + 1))
    rng.shuffle(order)
    return order


def _negated_chain_program(n):
    """The negated rule chain p_i(X) <- p_{i-1}(X), not z(X) for i = 1..n:
    one stratum per rule, each reading the one before it."""
    lines = ["%system fuzzy.", "fact p0(a) = 0.9.", "fact p0(b) = 0.6.",
             "fact z(a) = 0.2.", "fact z(b) = 0.35."]
    lines += [f"rule p{i}(X) <- p{i - 1}(X), not z(X) : godel, 0.{99 - i}."
              for i in range(1, n + 1)]
    return parse_program("\n".join(lines) + "\n")


def test_delta_sweep_matches_reference_sweep():
    rng = random.Random(7)
    compared = 0
    for trial in range(TRIALS):
        system = SYSTEMS[trial % len(SYSTEMS)]
        program = random_program(rng, system, allow_negation=trial % 2 == 1)
        for directive in (None, _shuffled_order(rng, program)):
            program.order_directive = directive
            for name, run, reference in _runs(rng, program):
                for max_iters in MAX_ITERS:
                    assert _report(run(max_iters)) == _report(reference(max_iters)), \
                        (trial, directive, name, max_iters)
                    compared += 1
    # one stratum per rule; under the reversed %order each pass raises an atom
    # that only the stratum before it reads, which its next visit must see.
    # At a limit equal to its own step count an evaluation stops unconverged
    # right after its last rising step; one more lets it converge.
    chain = _negated_chain_program(25)
    assert engine.stratify(chain).strata == [[i] for i in range(1, 26)]
    for directive in (None, list(range(25, 0, -1))):
        chain.order_directive = directive
        for name, run, reference in _runs(rng, chain):
            steps = run(10000).iterations
            assert not run(steps).converged and run(steps + 1).converged
            for max_iters in MAX_ITERS + (steps, steps + 1):
                assert _report(run(max_iters)) == _report(reference(max_iters)), \
                    ("chain", directive, name, max_iters)
                compared += 1
    assert compared == (TRIALS * len(MAX_ITERS) + len(MAX_ITERS) + 2) * 2 * 3


def test_pruned_grounding_matches_full_grounding(ex1):
    rng = random.Random(11)
    programs = [ex1] + [random_program(rng, SYSTEMS[trial % len(SYSTEMS)],
                                       allow_negation=trial % 2 == 1)
                        for trial in range(TRIALS)]
    compared = 0
    for index, program in enumerate(programs):
        for directive in (None, _shuffled_order(rng, program)):
            program.order_directive = directive
            for name, run, reference in _runs(rng, program, pruned=False):
                for max_iters in MAX_ITERS:
                    assert _report(run(max_iters)) == _report(reference(max_iters)), \
                        (index, directive, name, max_iters)
                    compared += 1
    assert compared == len(programs) * 2 * len(MAX_ITERS) * 3


# p and q name both predicates and constants, with different proximity sets
SHARED_NAMES = ("%system fuzzy.\nfact p(q) = 0.8.\nfact q(p) = 0.6.\n"
                "rule r(X) <- p(X) : godel, 0.9.\nrule p(X) <- q(X) : godel, 0.7.\n",
                "%system fuzzy.\n%domain terms.\nq ~ a = 0.5.\np ~ b = 0.4.\n"
                "%domain predicates.\np ~ q = 0.3.\nr ~ rr = 0.6.\n")


def test_spread_matches_reference_mod_step(ex23_kb, ex17_kb):
    rng = random.Random(13)
    program_text, prox_text = SHARED_NAMES
    term_prox, pred_prox, _ = parse_proximity_file(prox_text)
    shared = build_kb(parse_program(program_text), BackgroundKnowledge(term_prox, pred_prox))
    knowledge_bases = [ex23_kb, ex17_kb, shared]
    for trial in range(TRIALS):
        program = random_program(rng, SYSTEMS[trial % len(SYSTEMS)],
                                 allow_negation=trial % 2 == 1)
        knowledge_bases.append(build_kb(program, random_bk(rng, program),
                                        random_phi(rng, program)))
    compared = 0
    for index, knowledge in enumerate(knowledge_bases):
        for directive in (None, _shuffled_order(rng, knowledge.program)):
            knowledge.program.order_directive = directive
            for max_iters in MAX_ITERS:
                spread = _report(consequence(knowledge, max_iters=max_iters))
                expected = _report(reference_consequence(knowledge, max_iters))
                assert spread == expected, (index, directive, max_iters)
                compared += 1
    assert compared == len(knowledge_bases) * 2 * len(MAX_ITERS)


def _closure_program(n, cyclic):
    """Fuzzy transitive closure over a chain of n edges c0 -> .. -> cn, with
    the back edge cn -> c0 when cyclic; edge levels vary along the chain."""
    lines = ["%system fuzzy."]
    lines += [f"fact e(c{i}, c{i + 1}) = 0.{50 + 5 * (i % 9)}." for i in range(n)]
    if cyclic:
        lines.append(f"fact e(c{n}, c0) = 0.7.")
    lines += ["rule t(X, Y) <- e(X, Y) : godel, 1.0.",
              "rule t(X, Z) <- t(X, Y), e(Y, Z) : godel, 0.95."]
    return parse_program("\n".join(lines) + "\n")


def test_in_place_sweep_matches_reference_sweep_on_closures():
    compared = limited = 0
    for n in (1, 5, 17, 40):
        for cyclic in (False, True):
            program = _closure_program(n, cyclic)
            for mode in ("det", "nondet"):
                for max_iters in (1, 7, 10000):
                    in_place = _report(fixpoint(program, mode=mode, max_iters=max_iters))
                    expected = _report(reference_fixpoint(program, mode, max_iters))
                    assert in_place == expected, (n, cyclic, mode, max_iters)
                    compared += 1
                    limited += not in_place[2]
            # the last run converged to the edges plus the whole reachability
            # relation: every pair i < j, or every pair at all when cyclic
            assert expected[2] and len(expected[0]) == (
                n + cyclic + ((n + 1) ** 2 if cyclic else n * (n + 1) // 2))
    assert compared == 4 * 2 * 2 * 3 and limited > 0


def _fl_chain_program(n):
    """ifs transitive closure over a chain of n edges under the Lukasiewicz
    implication fl, whose derived levels leave the ifs lattice."""
    lines = ["%system ifs."]
    lines += [f"fact e(c{i}, c{i + 1}) = (0.{50 + 5 * (i % 9)}, 0.0{1 + 2 * (i % 5)})."
              for i in range(n)]
    lines += ["rule t(X, Y) <- e(X, Y) : fl, (0.9, 0.05).",
              "rule t(X, Z) <- t(X, Y), e(Y, Z) : fl, (0.95, 0.02)."]
    return parse_program("\n".join(lines) + "\n")


def test_closure_notes_appear_once_in_reference_order():
    program = _fl_chain_program(40)
    knowledge = build_kb(program)
    for max_iters in (7, 10000):
        for mode in ("det", "nondet"):
            report = _report(fixpoint(program, mode=mode, max_iters=max_iters))
            assert report == _report(reference_fixpoint(program, mode, max_iters)), mode
        report = _report(consequence(knowledge, max_iters=max_iters))
        assert report == _report(reference_consequence(knowledge, max_iters))
    notes = [d for d in report[3] if d.startswith("closure violation: ")]
    assert len(notes) > 100 and len(set(notes)) == len(notes) == len(report[3])


# nullary and ternary heads, every predicate and constant with synonyms; z
# is derived at bottom, so none of its synonyms is stored, and g(a) and g(a1)
# are each reached from both facts, at the same level under a meet
FAN_OUT_PROGRAM = """%system {system}.
fact n = {hi}.
fact t(a, b, c) = {mid}.
fact t(b, c, a) = {hi}.
fact t(c, c, b) = {mid}.
fact g(a) = {lo}.
fact g(a1) = {lo}.
rule m <- t(X, Y, Z), n : {impl}, {hi}.
rule u(X, Y, Z) <- t(X, Y, Z), m : {impl}, {mid}.
rule w <- u(X, X, Y) : {impl}, {hi}.
rule z(X) <- g(X) : {floor_impl}, {floor}.
"""
FAN_OUT_PROX = """%domain terms.
a ~ a1 = {lo}.
b ~ b1 = {mid}.
b ~ b2 = {lo}.
c ~ a = {lo}.
%domain predicates.
n ~ n1 = {mid}.
m ~ m1 = {lo}.
t ~ t1 = {mid}.
u ~ u1 = {lo}.
u ~ u2 = {mid}.
w ~ w1 = {mid}.
g ~ g1 = {mid}.
z ~ z1 = {mid}.
"""
FAN_OUT_SYSTEMS = {
    # system: (implication, low, middle, high level, and the Lukasiewicz
    # implication with a rule level that derives bottom from low)
    "fuzzy": ("godel", "0.55", "0.7", "0.9", "lukasiewicz", "0.1"),
    "ifs": ("fg2", "(0.55, 0.3)", "(0.7, 0.2)", "(0.9, 0.05)", "fl", "(0.1, 0.8)"),
    "ivs": ("vg2", "(0.55, 0.65)", "(0.7, 0.85)", "(0.9, 0.95)", "vl", "(0.1, 0.1)"),
    "bipolar-a": ("(godel, godel)", "(0.5, 0.2)", "(0.6, 0.3)", "(0.65, 0.35)",
                  "(lukasiewicz, lukasiewicz)", "(0.1, 0.1)"),
    "bipolar-b": ("(godel, godel)", "(0.55, 0.3)", "(0.7, 0.2)", "(0.9, 0.05)",
                  "(lukasiewicz, lukasiewicz)", "(0.1, 0.8)"),
}


def test_fan_out_matches_reference_mod_step_on_nullary_and_ternary_heads():
    compared = 0
    for system, (impl, lo, mid, hi, floor_impl, floor) in FAN_OUT_SYSTEMS.items():
        program_text = FAN_OUT_PROGRAM.format(system=system, impl=impl, lo=lo, mid=mid, hi=hi,
                                              floor_impl=floor_impl, floor=floor)
        term_prox, pred_prox, _ = parse_proximity_file(FAN_OUT_PROX.format(lo=lo, mid=mid))
        phis = ["meet", "meet-product"] + (["product"] if system == V.IVS else [])
        levels = set()
        for phi in phis:
            phi_spec = parse_phi_file("".join(f"phi {p}/{k} = {phi}.\n" for p, k in
                                              (("n", 0), ("m", 0), ("w", 0), ("t", 3),
                                               ("u", 3), ("g", 1), ("z", 1))))
            knowledge = build_kb(parse_program(program_text),
                                 BackgroundKnowledge(term_prox, pred_prox), phi_spec)
            # step by step from the empty interpretation, on the full grounding
            rules = [g for rs in lang.ground(knowledge.program, kb.modified_universe(knowledge))
                     for g in rs]
            interp = engine.Interpretation(knowledge.program.system)
            for _ in range(4):
                stepped = kb.mod_nt_step(knowledge, interp, rules, [])
                expected = reference_mod_nt_step(knowledge, interp, rules, [])
                assert _items(stepped) == _items(expected), (system, phi)
                # by default, the instances whose body atoms are in interp
                assert _items(kb.mod_nt_step(knowledge, interp)) == _items(expected)
                interp = expected
            # and the whole consequence, in-place sweep over interned atoms
            spread = _report(consequence(knowledge))
            assert spread == _report(reference_consequence(knowledge)), (system, phi)
            entries = dict(spread[0])
            preds = {atom.pred for atom in entries}
            assert {"n1", "m1", "w1", "u1", "u2", "t1"} <= preds, (system, phi)
            assert any(atom.pred == "u2" and atom.args[1].name == "b2" for atom in entries)
            # z fires, at bottom: none of its synonyms is stored
            assert any(g.head.pred == "z" and g.body[0].atom in entries for g in rules)
            assert not preds & {"z", "z1"}, (system, phi)
            if phi != "product":
                assert entries[_atom("g", "a")] == entries[_atom("g", "a1")], (system, phi)
            levels.add(tuple(sorted((str(a), v) for a, v in entries.items())))
            compared += 1
        # each uncertainty function gives levels of its own
        assert len(levels) == len(phis), system
    assert compared == 11


# binary, 3-, 4-, 9-, 10- and 11-ary heads: a repeated constant a that has
# synonyms, a constant k that has none, and t, whose one synonym t0 sits at
# a tiny lambda that drives some of its synonyms to bottom; with
# `kb._NESTED_LOOPS` at 10, the 9-ary y9 is the widest head with one loop
# per argument, and the 10-ary y10 and the 11-ary x have more arguments
# than a kernel nests loops for
BINARY_PROGRAM = """%system {system}.
fact e(a, b) = {hi}.
fact e(a, a) = {mid}.
fact e(k, a) = {hi}.
fact e(b, t) = {low_fact}.
fact w(a, b, k, a) = {mid}.
fact x(a, k, k, k, k, k, k, k, k, b, a) = {hi}.
fact y9(b, k, k, k, k, k, k, k, a) = {mid}.
fact y10(a, k, k, k, k, k, k, k, k, a) = {hi}.
rule r(X, Y) <- e(X, Y) : {impl}, {hi}.
rule v(X, Y, Z, U) <- w(X, Y, Z, U), e(X, Y) : {impl}, {hi}.
rule s(X) <- r(X, X) : {impl}, {mid}.
rule y3(X, Z, Y) <- e(X, Y), w(X, Y, Z, X) : {impl}, {mid}.
"""
BINARY_PROX = """%domain terms.
a ~ a1 = {mid}.
a ~ a2 = {lo}.
b ~ b1 = {lo}.
t ~ t0 = {tiny}.
%domain predicates.
e ~ e1 = {mid}.
r ~ r1 = {lo}.
r ~ r2 = {mid}.
v ~ v1 = {mid}.
w ~ w1 = {lo}.
s ~ s1 = {mid}.
x ~ x1 = {mid}.
y3 ~ y31 = {lo}.
y9 ~ y91 = {mid}.
y10 ~ y101 = {lo}.
"""
BINARY_SYSTEMS = {
    # system: (implication, low, middle, high level, the tiny lambda, the
    # level of e(b, t)); the products of the tiny lambda with low fall
    # within EPS of bottom, and under bipolar-a so does its meet with e(b, t)
    "fuzzy": ("godel", "0.4", "0.7", "0.9", "0.000000002", "0.9"),
    "ifs": ("fg2", "(0.4, 0.5)", "(0.7, 0.2)", "(0.9, 0.05)", "(0.000000002, 0.9)",
            "(0.9, 0.05)"),
    "ivs": ("vg2", "(0.4, 0.45)", "(0.7, 0.85)", "(0.9, 0.95)",
            "(0.000000002, 0.000000002)", "(0.9, 0.95)"),
    "bipolar-a": ("(godel, godel)", "(0.4, 0.2)", "(0.6, 0.3)", "(0.65, 0.35)", "(0.0, 0.6)",
                  "(0.6, 0.0)"),
    "bipolar-b": ("(godel, godel)", "(0.4, 0.5)", "(0.7, 0.2)", "(0.9, 0.05)",
                  "(0.000000002, 0.9)", "(0.9, 0.05)"),
}


def test_fan_out_matches_reference_mod_step_on_binary_and_wider_heads(monkeypatch):
    tables = []
    decode = engine._Levels.interpretation

    def recording(levels):
        tables.append(levels.table)
        return decode(levels)

    monkeypatch.setattr(engine._Levels, "interpretation", recording)
    bottomed, compared = set(), 0
    for system, (impl, lo, mid, hi, tiny, low_fact) in BINARY_SYSTEMS.items():
        program_text = BINARY_PROGRAM.format(system=system, impl=impl, mid=mid, hi=hi,
                                             low_fact=low_fact)
        term_prox, pred_prox, _ = parse_proximity_file(BINARY_PROX.format(lo=lo, mid=mid,
                                                                          tiny=tiny))
        for phi in ["meet", "meet-product"] + (["product"] if system == V.IVS else []):
            phi_spec = parse_phi_file("".join(f"phi {p}/{k} = {phi}.\n" for p, k in
                                              (("e", 2), ("r", 2), ("v", 4), ("w", 4),
                                               ("s", 1), ("x", 11), ("y3", 3), ("y9", 9),
                                               ("y10", 10))))
            knowledge = build_kb(parse_program(program_text),
                                 BackgroundKnowledge(term_prox, pred_prox), phi_spec)
            rules = [g for rs in lang.ground(knowledge.program, kb.modified_universe(knowledge))
                     for g in rs]
            interp = engine.Interpretation(knowledge.program.system)
            for step in range(4):
                diagnostics, expected_diagnostics = ["earlier note"], ["earlier note"]
                stepped = kb.mod_nt_step(knowledge, interp, rules, diagnostics)
                expected = reference_mod_nt_step(knowledge, interp, rules, expected_diagnostics)
                assert _items(stepped) == _items(expected), (system, phi, step)
                assert diagnostics == expected_diagnostics, (system, phi, step)
                interp = expected
            for max_iters in MAX_ITERS:
                del tables[:]
                report = _report(consequence(knowledge, max_iters=max_iters))
                assert report == _report(reference_consequence(knowledge, max_iters)), \
                    (system, phi, max_iters)
                compared += 1
            entries = dict(report[0])
            # the 4-ary head spreads over 3 * 2 * 1 * 3 argument synonyms
            assert len([a for a in entries if a.pred == "v1"]) == 18, (system, phi)
            assert len([a for a in entries if a.pred == "x1"]) == 3 * 2 * 3
            assert len([a for a in entries if a.pred == "y31"]) == 3 * 2
            assert len([a for a in entries if a.pred == "y91"]) == 2 * 3
            assert len([a for a in entries if a.pred == "y101"]) == 3 * 3
            assert kb._NESTED_LOOPS < 11
            assert _atom("s1", "a2") in entries and _atom("r2", "k", "a1") in entries
            # a synonym driven to bottom is interned in the table, never stored;
            # the synonyms of unary heads, s1(a2) among them, are keyed by tuples
            table = tables[-1]
            check_table(table)
            interned = [table.atom(aid) for aid in range(len(table))]
            if any("t0" in [t.name for t in a.args] and a not in entries for a in interned):
                bottomed.add((system, phi))
    assert compared == 11 * len(MAX_ITERS)
    assert bottomed == {("fuzzy", "meet-product"), ("ivs", "meet-product"), ("ivs", "product"),
                        ("bipolar-a", "meet"), ("bipolar-a", "meet-product")}


def test_product_fan_out_multiplies_in_the_order_of_phi_apply():
    """p1(a1, b1) is ((0.5 * 0.53) * 0.53) * 0.56 in each coordinate, as
    `phi_apply` multiplies; multiplying the argument lambdas together first
    gives another float."""
    term_prox, pred_prox, _ = parse_proximity_file(
        "%domain terms.\na ~ a1 = (0.53, 0.53).\nb ~ b1 = (0.56, 0.56).\n"
        "%domain predicates.\np ~ p1 = (0.53, 0.53).\n")
    knowledge = build_kb(parse_program("%system ivs.\nfact p(a, b) = (0.5, 0.5).\n"),
                         BackgroundKnowledge(term_prox, pred_prox),
                         parse_phi_file("phi p/2 = product.\n"))
    report = _report(consequence(knowledge))
    assert report == _report(reference_consequence(knowledge))
    level = dict(report[0])[_atom("p1", "a1", "b1")]
    assert level == (0.07865200000000001, 0.07865200000000001)
    assert level == kb.phi_apply(kb.PHI_PRODUCT, V.IVS, (0.5, 0.5), (0.53, 0.53),
                                 [(0.53, 0.53), (0.56, 0.56)])
    assert (0.5 * 0.53) * (0.53 * 0.56) != level[0]


# The fact predicates a and b alternate, so the fact step's fired list
# changes predicate at every head: runs of one head.  c and d are derived by
# four rules of one stratum, and d and s have no predicate synonyms; f has
# one instance, and no atom of h is ever derived, so g's rule never fires
RUNS_PROGRAM = """%system {system}.
fact a(x) = {hi}.
fact b(x) = {mid}.
fact a(y) = {mid}.
fact b(y) = {lo}.
fact a(z) = {lo}.
fact s = {hi}.
rule c(X) <- a(X) : {impl}, {hi}.
rule d(X) <- b(X), s : {impl}, {mid}.
rule c(X) <- d(X) : {impl}, {mid}.
rule d(X) <- c(X) : {impl}, {hi}.
rule e(X) <- a(X), not c(X) : {impl}, {mid}.
rule f <- e(z) : {impl}, {hi}.
rule g(X) <- h(X) : {impl}, {hi}.
"""
RUNS_PROX = """%domain terms.
x ~ x1 = {mid}.
y ~ y1 = {lo}.
z ~ x = {lo}.
%domain predicates.
a ~ a1 = {mid}.
b ~ b1 = {lo}.
c ~ c1 = {mid}.
e ~ e1 = {lo}.
f ~ f1 = {mid}.
"""


def test_runs_of_fired_heads_match_reference_mod_step(monkeypatch):
    """Spreading a run of fired heads of one predicate at a time, where the
    fired lists change predicate mid-list, gives the reference step's
    results, step by step and for the whole consequence."""
    runs = []
    fire = kb._Spread.fire

    def recording(spread, pred, run, levels):
        run = list(run)
        runs.append((pred, len(run)))
        fire(spread, pred, run, levels)

    def step_marked(*args):
        runs.append(None)
        return mod(*args)

    mod = kb._mod
    monkeypatch.setattr(kb._Spread, "fire", recording)
    monkeypatch.setattr(kb, "_mod", step_marked)
    compared = 0
    for system, (impl, lo, mid, hi, _, _) in FAN_OUT_SYSTEMS.items():
        program_text = RUNS_PROGRAM.format(system=system, impl=impl, lo=lo, mid=mid, hi=hi)
        term_prox, pred_prox, _ = parse_proximity_file(RUNS_PROX.format(lo=lo, mid=mid))
        for phi in ["meet", "meet-product"] + (["product"] if system == V.IVS else []):
            phi_spec = parse_phi_file("".join(f"phi {p}/{k} = {phi}.\n" for p, k in
                                              (("a", 1), ("b", 1), ("c", 1), ("d", 1),
                                               ("e", 1), ("f", 0), ("g", 1), ("s", 0))))
            knowledge = build_kb(parse_program(program_text),
                                 BackgroundKnowledge(term_prox, pred_prox), phi_spec)
            rules = [g for rs in lang.ground(knowledge.program, kb.modified_universe(knowledge))
                     for g in rs]
            # the proper rules fire nothing on the empty interpretation
            interp = engine.Interpretation(knowledge.program.system)
            del runs[:]
            assert _items(kb.mod_nt_step(knowledge, interp, rules[6:], [])) == []
            assert runs == [None]
            for step in range(6):
                diagnostics, expected_diagnostics = ["earlier note"], ["earlier note"]
                stepped = kb.mod_nt_step(knowledge, interp, rules, diagnostics)
                expected = reference_mod_nt_step(knowledge, interp, rules, expected_diagnostics)
                assert _items(stepped) == _items(expected), (system, phi, step)
                assert diagnostics == expected_diagnostics, (system, phi, step)
                interp = expected
            for max_iters in MAX_ITERS:
                del runs[:]
                report = _report(consequence(knowledge, max_iters=max_iters))
                assert report == _report(reference_consequence(knowledge, max_iters)), \
                    (system, phi, max_iters)
                compared += 1
            # the fact step spreads a, b, a, b, a, s: six runs of one head;
            # the stratum of rules 3 and 4 fires c and d heads in one step
            assert runs[:8] == [None, ("a", 1), ("b", 1), ("a", 1), ("b", 1), ("a", 1),
                                ("s", 1), None]
            steps = " ".join("|" if run is None else run[0] for run in runs).split("|")
            assert any({"c", "d"} <= set(step.split()) for step in steps)
            fired = {run[0] for run in runs if run}
            assert {"c", "d", "e", "f"} <= fired and "g" not in fired
            assert any(run and run[1] > 1 for run in runs)
    assert engine.stratify(knowledge.program).strata == [[1], [2], [3, 4], [5], [6], [7]]
    assert compared == 11 * len(MAX_ITERS)


def _items(interp):
    return list(interp.entries.items())


def _atom(pred, *names):
    return Atom(pred, tuple(map(Constant, names)))


def _same_step(step, reference, rules, interp, label):
    """One object step against its reference, with a diagnostics list that
    already holds notes of earlier steps."""
    results = []
    for fn in (step, reference):
        source = interp.copy()
        diagnostics = ["earlier note"]
        fn(rules, source, diagnostics)
        diagnostics = diagnostics[:1] + diagnostics      # repeats are noted once
        result = fn(rules, source, diagnostics)
        results.append((_items(result), _items(source), diagnostics, result is source))
    assert results[0] == results[1], label


def test_object_steps_match_reference_steps(ex23_kb, ex17_kb):
    """dt_step, nt_step and mod_nt_step on GroundRules and Interpretations,
    interned on entry, give the results of the reference steps."""
    rng = random.Random(17)
    knowledge_bases = [ex23_kb, ex17_kb]
    for trial in range(TRIALS // 2):
        program = random_program(rng, SYSTEMS[trial % len(SYSTEMS)],
                                 allow_negation=trial % 2 == 1)
        knowledge_bases.append(build_kb(program, random_bk(rng, program),
                                        random_phi(rng, program)))
    cases = []
    for knowledge in knowledge_bases:
        rules = [g for rs in lang.ground(knowledge.program, kb.modified_universe(knowledge))
                 for g in rs]
        trajectory = [engine.Interpretation(knowledge.program.system)]
        for _ in range(3):
            trajectory.append(reference_mod_nt_step(knowledge, trajectory[-1], rules))
        cases.append((knowledge, rules, trajectory))
    # a non-ground p(X) next to the ground p(X) of a %const X program, in
    # both insertion orders: the rule reads the ground one only
    knowledge = build_kb(parse_program("%system fuzzy.\n%const X.\n"
                                       "rule q(X) <- p(X) : godel, 1.0.\n"))
    constant, variable = _atom("p", "X"), Atom("p", (Variable("X"),))
    cases.append((knowledge, [g for rs in lang.ground(knowledge.program, {"X"}) for g in rs],
                  [engine.Interpretation(V.FUZZY, dict(entries))
                   for entries in ([(constant, 0.2), (variable, 0.9)],
                                   [(variable, 0.9), (constant, 0.2)])]))
    changed = 0
    for index, (knowledge, rules, interps) in enumerate(cases):
        for k, interp in enumerate(interps):
            _same_step(engine.dt_step, reference_dt_step, rules, interp, (index, k, "dt"))
            _same_step(engine.nt_step, reference_nt_step, rules, interp, (index, k, "nt"))
            _same_step(lambda r, i, d: kb.mod_nt_step(knowledge, i, r, d),
                       lambda r, i, d: reference_mod_nt_step(knowledge, i, r, d),
                       rules, interp, (index, k, "mod"))
            changed += engine.nt_step(rules, interp) is not interp
    assert changed > 0
