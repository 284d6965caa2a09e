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
from mvdatalog.lang import Atom, Constant, parse_program
from mvdatalog.engine import fixpoint

from helpers import (random_bk, random_phi, random_program, reference_consequence,
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
    changed = 0
    for index, knowledge in enumerate(knowledge_bases):
        program = knowledge.program
        rules = [g for rs in lang.ground(program, kb.modified_universe(knowledge)) for g in rs]
        trajectory = [engine.Interpretation(program.system)]
        for _ in range(3):
            trajectory.append(reference_mod_nt_step(knowledge, trajectory[-1], rules))
        for k, interp in enumerate(trajectory):
            _same_step(engine.dt_step, reference_dt_step, rules, interp, (index, k, "dt"))
            _same_step(engine.nt_step, reference_nt_step, rules, interp, (index, k, "nt"))
            _same_step(lambda r, i, d: kb.mod_nt_step(knowledge, i, r, d),
                       lambda r, i, d: reference_mod_nt_step(knowledge, i, r, d),
                       rules, interp, (index, k, "mod"))
            changed += engine.nt_step(rules, interp) is not interp
    assert changed > 0
