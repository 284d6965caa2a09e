"""Pruned grounding: `fixpoint` and `consequence` ground only the rule
instances whose body atoms are derivable.  Per rule, those are an
order-preserving subsequence of the full Herbrand instances, and every
instance left out is not applicable in the final interpretation."""

import itertools
import random

from mvdatalog import engine, kb, lang
from mvdatalog import values as V
from mvdatalog.engine import applicable, fixpoint
from mvdatalog.kb import build_kb, consequence
from mvdatalog.lang import Atom, Constant, GroundRule, Literal, Program, Rule, Variable

from helpers import random_bk, random_phi, random_program

SYSTEMS = (V.FUZZY, V.IFS, V.IVS, V.BIPOLAR_A, V.BIPOLAR_B)
TRIALS = 200


def _decoded(table, program, grounded):
    """The GroundRule lists that interned grounded stands for."""
    return [[lang.decode_instance(table, g, rule.impl) for g in rules]
            for rules, rule in zip(grounded, program.rules)]


def _recorded_grounding(monkeypatch, module, run):
    """Run with module.ground recorded; returns (report, [(args, result)]),
    each interned instance of the result decoded to its GroundRule."""
    calls = []

    def recording(*args, **kwargs):
        result = lang.ground(*args, **kwargs)
        calls.append((args, _decoded(kwargs["table"], args[0], result)))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(module, "ground", recording)
        report = run()
    return report, calls


def _is_subsequence(part, whole):
    rest = iter(whole)
    return all(any(g == w for w in rest) for g in part)


def _dropped(monkeypatch, module, run):
    """Check one evaluation's grounding; returns how many instances it left out."""
    report, calls = _recorded_grounding(monkeypatch, module, run)
    assert len(calls) == 1
    args, pruned = calls[0]
    full = lang.ground(*args)
    assert len(pruned) == len(full)
    dropped = 0
    for kept, every in zip(pruned, full):
        assert _is_subsequence(kept, every)
        kept_set = set(kept)
        for g in every:
            if g not in kept_set:
                assert applicable(g, report.interpretation) is None, g
                dropped += 1
    return dropped


def _with_constants(rng, program):
    """The program with some rule arguments replaced by constants, so that
    rules carry constants of their own and some variables end up bound by
    a negated literal only, or by no body literal at all."""
    names = sorted(program.constants())

    def rewrite(atom):
        return Atom(atom.pred, tuple(Constant(rng.choice(names))
                                     if isinstance(t, Variable) and rng.random() < 0.25 else t
                                     for t in atom.args))

    rules = [r if r.is_fact else
             Rule(rewrite(r.head), tuple(Literal(rewrite(l.atom), l.negated) for l in r.body),
                  r.impl, r.level)
             for r in program.rules]
    return Program(program.system, rules)


def _check_program(monkeypatch, rng, program):
    dropped = 0
    for mode in ("det", "nondet"):
        dropped += _dropped(monkeypatch, engine, lambda: fixpoint(program, mode=mode))
    knowledge = build_kb(program, random_bk(rng, program), random_phi(rng, program))
    # consequence grounds through the evaluation path it shares with fixpoint
    dropped += _dropped(monkeypatch, engine, lambda: consequence(knowledge))
    return dropped


def test_pruned_grounding_drops_only_inapplicable_instances(monkeypatch):
    rng = random.Random(5)
    dropped = 0
    for trial in range(TRIALS):
        program = random_program(rng, SYSTEMS[trial % len(SYSTEMS)],
                                 allow_negation=trial % 2 == 1)
        if trial % 4 >= 2:
            program = _with_constants(rng, program)
        dropped += _check_program(monkeypatch, rng, program)
    assert dropped > 0


def test_pruned_grounding_paper_examples(monkeypatch, ex1, ex23_kb, ex17_kb):
    # ex1's third rule binds its variables only under negation
    assert _check_program(monkeypatch, random.Random(6), ex1) > 0
    for knowledge in (ex23_kb, ex17_kb):
        _dropped(monkeypatch, engine, lambda: consequence(knowledge))


def _reference_full(program, universe):
    """The full grounding by its definition: each rule under every
    substitution of constants for its variables, in lexicographic order."""
    names = sorted(universe)
    grounded = []
    for pos, rule in enumerate(program.rules):
        variables = rule.variables()
        rules = []
        for combo in itertools.product(names, repeat=len(variables)):
            theta = {v: Constant(c) for v, c in zip(variables, combo)}
            body = tuple(Literal(lang.substitute(lit.atom, theta), lit.negated)
                         for lit in rule.body)
            rules.append(GroundRule(lang.substitute(rule.head, theta), body, rule.impl,
                                    rule.level, pos))
        grounded.append(rules)
    return grounded


def _reference_pruned(program, universe, widen):
    """The pruned grounding by its definition, computed naively over the
    full grounding: the least set holding widen(head) for every instance
    whose body atoms are all in it, then the instances whose are."""
    full = _reference_full(program, universe)

    def key(atom):
        return atom.pred, tuple(t.name for t in atom.args)

    derivable = set()
    while True:
        new = {syn for rules in full for g in rules
               if all(key(lit.atom) in derivable for lit in g.body)
               for syn in widen(*key(g.head))} - derivable
        if not new:
            break
        derivable |= new
    return [[g for g in rules if all(key(lit.atom) in derivable for lit in g.body)]
            for rules in full]


def test_pruned_grounding_matches_its_definition():
    """Exactly the instances the definition keeps, in substitution order."""
    rng = random.Random(7)
    for trial in range(100):
        program = random_program(rng, SYSTEMS[trial % len(SYSTEMS)],
                                 allow_negation=trial % 2 == 1)
        if trial % 4 >= 2:
            program = _with_constants(rng, program)
        knowledge = build_kb(program, random_bk(rng, program), random_phi(rng, program))
        universe = kb.modified_universe(knowledge)
        for widen in (engine._unwidened, kb._Spread(knowledge).widen):
            assert (lang.ground(program, universe, widen=widen)
                    == _reference_pruned(program, universe, widen)), trial


def test_ground_without_widen_is_full_grounding(ex1):
    universe = ex1.constants() | {"c"}
    full = lang.ground(ex1, universe)
    assert full == _reference_full(ex1, universe)
    assert [len(rules) for rules in full] == [1, 1, 9, 9, 9]
    assert full[2] == lang.ground_rule(ex1.rules[2], universe, 2)


def _check_against_definition(program, knowledge=None):
    """ground, with and without a table, against `_reference_full` and
    against `_reference_pruned` for the knowledge base's spread and for the
    plain engine's widening; returns the last of them."""
    knowledge = knowledge or build_kb(program)
    universe = kb.modified_universe(knowledge)
    for widen in (None, kb._Spread(knowledge).widen, engine._unwidened):
        expected = (_reference_full(program, universe) if widen is None
                    else _reference_pruned(program, universe, widen))
        assert lang.ground(program, universe, widen=widen) == expected
        table = lang.AtomTable()
        interned = lang.ground(program, universe, widen=widen, table=table)
        assert _decoded(table, program, interned) == expected
    return expected


# t(a, b) and t(b, a) both enter the first round's delta, so the delta plans
# for either body atom emit u's substitution (a, b), and (b, a), twice
TWICE = """%system fuzzy.
fact t(a, b) = 0.8.
fact t(b, a) = 0.6.
fact t(b, c) = 0.7.
rule u(X, Y) <- t(X, Y), not t(Y, X) : godel, 0.9.
"""


def test_substitution_emitted_twice_is_grounded_once():
    program = lang.parse_program(TWICE, safety="paper-examples")
    pruned = _check_against_definition(program)
    # u(b, c) needs t(c, b), which is not derivable
    assert [str(g.head) for g in pruned[3]] == ["u(a, b)", "u(b, a)"]


def test_facts_only_and_rules_only_programs():
    facts = lang.parse_program("%system ifs.\nfact p(a) = (0.7, 0.2).\nfact q = (0.5, 0.4).\n"
                               "fact r(b, a, a) = (0.6, 0.1).\n")
    assert [len(rules) for rules in _check_against_definition(facts)] == [1, 1, 1]
    rules_only = lang.parse_program("%system fuzzy.\nrule p(X) <- q(X) : godel, 0.9.\n"
                                    "rule q(X) <- p(X), r : godel, 0.8.\n%const A.\n"
                                    "rule r <- p(A) : godel, 0.5.\n")
    assert _check_against_definition(rules_only) == [[], [], []]
    table = lang.AtomTable()
    assert lang.ground(rules_only, widen=engine._unwidened, table=table) == [[], [], []]
    assert len(table) == 0


def test_rules_with_constants_of_their_own(ex23_kb):
    rng = random.Random(9)
    for trial in range(40):
        program = _with_constants(rng, random_program(rng, SYSTEMS[trial % len(SYSTEMS)],
                                                      allow_negation=trial % 2 == 1))
        knowledge = build_kb(program, random_bk(rng, program), random_phi(rng, program))
        _check_against_definition(program, knowledge)
    # ex23's rules carry no constants; these two do, one under negation
    text = ("%system fuzzy.\nfact e(a, b) = 0.9.\nfact e(b, c) = 0.8.\nfact e(c, c) = 0.4.\n"
            "rule s(X) <- e(X, b) : godel, 0.9.\n"
            "rule k(X, c) <- e(X, Y), not e(Y, a) : godel, 0.7.\n")
    program = lang.parse_program(text)
    pruned = _check_against_definition(program)
    assert [str(g.head) for g in pruned[3]] == ["s(a)"]
    assert [str(g.head) for g in pruned[4]] == []
    _check_against_definition(ex23_kb.program, ex23_kb)
