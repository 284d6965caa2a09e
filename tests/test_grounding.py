"""Pruned grounding: `fixpoint` and `consequence` ground only the rule
instances whose body atoms are derivable.  Per rule, those are an
order-preserving subsequence of the full Herbrand instances, and every
instance left out is not applicable in the final interpretation."""

import random

from mvdatalog import engine, kb, lang
from mvdatalog import values as V
from mvdatalog.engine import applicable, fixpoint
from mvdatalog.kb import build_kb, consequence
from mvdatalog.lang import Atom, Constant, Literal, Program, Rule, Variable

from helpers import random_bk, random_phi, random_program

SYSTEMS = (V.FUZZY, V.IFS, V.IVS, V.BIPOLAR_A, V.BIPOLAR_B)
TRIALS = 200


def _recorded_grounding(monkeypatch, module, run):
    """Run with module.ground recorded; returns (report, [(args, result)])."""
    calls = []

    def recording(*args, **kwargs):
        result = lang.ground(*args, **kwargs)
        calls.append((args, result))
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


def _reference_pruned(program, universe, widen):
    """The pruned grounding by its definition, computed naively over the
    full grounding: the least set holding widen(head) for every instance
    whose body atoms are all in it, then the instances whose are."""
    full = lang.ground(program, universe)

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
    assert [len(rules) for rules in full] == [1, 1, 9, 9, 9]
    assert full[2] == lang.ground_rule(ex1.rules[2], universe, 2)
