"""Pruned grounding: `fixpoint` and `consequence` ground only the rule
instances whose body atoms are derivable.  Per rule, those are an
order-preserving subsequence of the full Herbrand instances, and every
instance left out is not applicable in the final interpretation."""

import contextlib
import dataclasses
import itertools
import random
import re

import pytest

from mvdatalog import engine, kb, lang
from mvdatalog import values as V
from mvdatalog.engine import applicable, fixpoint
from mvdatalog.kb import build_kb, consequence
from mvdatalog.lang import Atom, Constant, GroundRule, Literal, Program, Rule, Variable

from helpers import check_table, random_bk, random_phi, random_program, reference_fixpoint

SYSTEMS = (V.FUZZY, V.IFS, V.IVS, V.BIPOLAR_A, V.BIPOLAR_B)
TRIALS = 200


def _decoded(table, program, grounded):
    """The GroundRule lists that interned grounded stands for."""
    return [[lang.decode_instance(table.atom, g, rule.impl) for g in rules]
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
    full grounding: the least set holding the atoms widen(pred, {names})
    returns for every instance head pred(names) whose body atoms are all in
    it, then the instances whose are."""
    full = _reference_full(program, universe)

    def key(atom):
        return atom.pred, tuple(t.name for t in atom.args)

    derivable = set()
    while True:
        new = {(syn_pred, syn_names) for rules in full for g in rules
               if all(key(lit.atom) in derivable for lit in g.body)
               for syn_pred, names in widen(g.head.pred, {key(g.head)[1]})
               for syn_names in names} - derivable
        if not new:
            break
        derivable |= new
    return [[g for g in rules if all(key(lit.atom) in derivable for lit in g.body)]
            for rules in full]


def test_pruned_grounding_matches_its_definition():
    """Exactly the instances the definition keeps, in substitution order,
    for each widening and for present atoms."""
    rng = random.Random(7)
    for trial in range(100):
        program = random_program(rng, SYSTEMS[trial % len(SYSTEMS)],
                                 allow_negation=trial % 2 == 1)
        if trial % 4 >= 2:
            program = _with_constants(rng, program)
        knowledge = build_kb(program, random_bk(rng, program), random_phi(rng, program))
        universe = kb.modified_universe(knowledge)
        for widening in (engine._unwidened, _alike_twice(kb._Spread(knowledge).widen)):
            with _joining_each_row_once():
                grounded = lang.ground(program, universe, widen=widening)
            assert grounded == _reference_pruned(program, universe, widening), trial
        # the consequence's atoms, each with a wrong-arity variant and, if it
        # has arguments, a non-ground one and one with a name outside the
        # universe; as in `is_model`, the universe holds the variable's name
        present = set()
        for a in consequence(knowledge).interpretation.entries:
            present |= {a, Atom(a.pred, a.args + (Constant(min(universe)),))}
            if a.args:
                present |= {Atom(a.pred, (Variable("X"),) + a.args[1:]),
                            Atom(a.pred, a.args[:-1] + (Constant("foreign"),))}
        universe |= {"X"}
        assert lang.ground(program, universe, present=present) == [
            [g for g in rules if all(lit.atom in present for lit in g.body)]
            for rules in _reference_full(program, universe)], trial


def test_ground_without_widen_is_full_grounding(ex1):
    universe = ex1.constants() | {"c"}
    full = lang.ground(ex1, universe)
    assert full == _reference_full(ex1, universe)
    assert [len(rules) for rules in full] == [1, 1, 9, 9, 9]
    alone = lang.ground(Program(ex1.system, [ex1.rules[2]]), universe)[0]
    assert full[2] == [dataclasses.replace(g, rule_pos=2) for g in alone]
    # equal ground atoms are one object across all the instances
    shared = {}
    for g in (g for rules in full for g in rules):
        for atom in [g.head] + [lit.atom for lit in g.body]:
            assert shared.setdefault(atom, atom) is atom


def _redundant_widening(universe):
    """A widening that returns the heads twice and with them, for every
    head, the synonym of the same predicate whose names are all the least
    name of the universe: one synonym shared by all heads, which is
    derivable already from the second call on; and the least name again
    for a predicate that no rule body reads."""
    least = min(universe)

    def widen(pred, heads):
        return ([(pred, set(heads)), (pred, set(heads))]
                + [(pred, {(least,) * len(names)}) for names in heads]
                + [("unread predicate", {(least,)})])

    return widen


def _alike_twice(widen):
    """widen, checked to return equal results when called twice on the
    same heads: it keeps nothing between calls."""
    def checked(pred, heads):
        widened = widen(pred, heads)
        assert widen(pred, set(heads)) == widened, pred
        return widened

    return checked


@contextlib.contextmanager
def _joining_each_row_once():
    """While open, every row that grounding adds to its relations is one
    they do not hold yet, whatever names a widening returns again."""
    extend = lang._Relations.extend

    def checked(relations, pred, new):
        assert not new & relations.rows[pred], (pred, new & relations.rows[pred])
        extend(relations, pred, new)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lang._Relations, "extend", checked)
        yield


def _check_against_definition(program, knowledge=None):
    """ground, with and without a table, against `_reference_full` and
    against `_reference_pruned` for the knowledge base's spread, for a
    widening that returns names more than once, and for the plain engine's
    widening, both as itself and as an equal function; returns the last of
    them.  Every grounding joins each row once, and the spread answers
    alike when asked twice.  After each tabled grounding, the table passes
    `check_table`.
    Also ground with present, over atoms that a knowledge-base consequence
    derives and atoms that no instance can hold, against the full
    grounding filtered."""
    knowledge = knowledge or build_kb(program)
    universe = kb.modified_universe(knowledge)
    # the last widening equals `_unwidened` but is another function
    for widening in (None, _alike_twice(kb._Spread(knowledge).widen),
                     _redundant_widening(universe), engine._unwidened,
                     lambda pred, heads: ((pred, heads),)):
        expected = (_reference_full(program, universe) if widening is None
                    else _reference_pruned(program, universe, widening))
        table = lang.AtomTable()
        with _joining_each_row_once():
            assert lang.ground(program, universe, widen=widening) == expected
            interned = lang.ground(program, universe, widen=widening, table=table)
        assert _decoded(table, program, interned) == expected
        check_table(table)
    present = set(consequence(knowledge).interpretation.entries)
    present |= {Atom(a.pred, a.args + (Constant("a"),)) for a in present}
    present |= {Atom(a.pred, (Variable("X"),) + a.args[1:]) for a in present if a.args}
    # as in `is_model`, the universe holds every name of the atoms
    universe |= {"X", "a"}
    assert lang.ground(program, universe, present=present) == [
        [g for g in rules if all(lit.atom in present for lit in g.body)]
        for rules in _reference_full(program, universe)]
    return expected


# t(a, b) and t(b, a) both enter the second round's delta, so the delta
# plans for either body atom emit u's substitution (a, b), and (b, a), twice
TWICE = """%system fuzzy.
fact s(a, b) = 0.8.
fact s(b, a) = 0.6.
fact s(b, c) = 0.7.
rule t(X, Y) <- s(X, Y) : godel, 1.0.
rule u(X, Y) <- t(X, Y), not t(Y, X) : godel, 0.9.
"""


def test_substitution_emitted_twice_is_grounded_once():
    program = lang.parse_program(TWICE, safety="paper-examples")
    pruned = _check_against_definition(program)
    # u(b, c) needs t(c, b), which is not derivable
    assert [str(g.head) for g in pruned[4]] == ["u(a, b)", "u(b, a)"]


def test_predicate_used_with_two_arities_is_rejected():
    # only a program built through the API can hold p(a) and p(a, b)
    x, y = Variable("X"), Variable("Y")
    program = Program(V.FUZZY, [Rule(Atom("p", (Constant("a"),)), (), "godel", 0.9),
                                Rule(Atom("p", (Constant("a"), Constant("b"))), (), "godel", 0.8),
                                Rule(Atom("q", (x,)), (Literal(Atom("p", (x, y))),), "godel", 1.0)])
    present = [rule.head for rule in program.rules[:2]]
    runs = [lambda: lang.ground(program), lambda: fixpoint(program, mode="det"),
            lambda: fixpoint(program), lambda: consequence(build_kb(program)),
            lambda: engine.is_model(program, engine.Interpretation(V.FUZZY)),
            lambda: lang.herbrand(program)]
    for widen in (None, engine._unwidened):
        for table in (None, lang.AtomTable()):
            runs.append(lambda widen=widen, table=table: lang.ground(
                program, widen=widen, table=table, present=present))
    for run in runs:
        with pytest.raises(ValueError, match=r"predicate 'p' used with arities 1 and 2"):
            run()


def test_level_function_is_bound_only_for_a_rule_with_instances():
    # fk is an ifs operator; only a program built through the API can give
    # it to a fuzzy rule
    x = Variable("X")
    fact = Rule(Atom("p", (Constant("a"),)), (), "godel", 0.9)

    def program(head, body):
        return Program(V.FUZZY, [fact, Rule(Atom(head, (x,)), (Literal(Atom(body, (x,))),),
                                            "fk", 0.8)])

    derivable, underivable = program("q", "p"), program("r", "s")
    for run in (lambda p: fixpoint(p, mode="det"), lambda p: fixpoint(p),
                lambda p: consequence(build_kb(p)),
                lambda p: engine.is_model(p, fixpoint(underivable).interpretation)):
        with pytest.raises(ValueError, match=r"implication 'fk' is not valid for the fuzzy"):
            run(derivable)
        run(underivable)
    # without a table, ground decodes and binds nothing
    for widen in (None, engine._unwidened):
        grounded = lang.ground(derivable, widen=widen)
        assert [[str(g.head) for g in rules] for rules in grounded] == [["p(a)"], ["q(a)"]]
        assert all(isinstance(g, GroundRule) for rules in grounded for g in rules)


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
    # a bodiless rule with a non-ground head, u(X), holds at every constant
    x = Variable("X")
    bodiless = Program(V.FUZZY, [Rule(Atom("p", (Constant("a"),)), (), "godel", 0.7),
                                 Rule(Atom("u", (x,)), (), "godel", 0.4),
                                 Rule(Atom("q", (x,)), (Literal(Atom("u", (x,))),), "godel", 1.0)])
    assert [len(rules) for rules in _check_against_definition(bodiless)] == [1, 1, 1]
    for mode in ("det", "nondet"):
        run, reference = fixpoint(bodiless, mode=mode), reference_fixpoint(bodiless, mode)
        assert (list(run.interpretation.entries.items()), run.iterations, run.converged,
                run.diagnostics) == (list(reference.interpretation.entries.items()),
                                     reference.iterations, reference.converged,
                                     reference.diagnostics), mode


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


# Join kernels.  Each plan of a rule runs as a kernel compiled from its
# shape; these programs give the definition-based checks the shapes that
# take their own code paths in `lang._kernel_source`.
KERNEL_CASES = """%system fuzzy.
fact e(a, b) = 0.9.
fact e(b, b) = 0.8.
fact e(b, a) = 0.7.
fact e(c, a) = 0.6.
fact r3(a, b, a) = 0.9.
fact r3(b, b, c) = 0.5.
fact r3(c, a, c) = 0.4.
fact go = 0.5.
rule loop(X) <- e(X, X) : godel, 0.9.
rule sym(X, Y) <- e(X, Y), e(Y, X), r3(X, Y, X) : godel, 0.8.
rule tri(X, Y, Z) <- r3(X, Y, Z), e(Y, X), loop(Y) : godel, 0.7.
rule s(X) <- e(X, b), r3(a, X, Y) : godel, 0.9.
rule k(X, c) <- r3(X, X, Y), e(Y, a) : godel, 0.6.
rule n(X, Y) <- e(X, Z), not e(Y, X) : godel, 0.8.
rule ok <- go, e(X, Y) : godel, 0.9.
rule p(X) <- ok, e(X, a), not loop(X) : godel, 0.7.
rule z(X) <- e(X, Y), never(Y) : godel, 0.5.
"""


def _unbound_head_rule(pred, body_pred):
    """pred(X, W) <- body_pred(X, Y): W is bound by no body atom."""
    x, y, w = Variable("X"), Variable("Y"), Variable("W")
    return Rule(Atom(pred, (x, w)), (Literal(Atom(body_pred, (x, y))),), "godel", 0.5)


def _long_rule(atoms: int):
    """A rule with more body atoms than one kernel runs: e over X, Y and Z
    around a cycle, then one atom with a constant."""
    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    cycle = [(x, y), (y, z), (z, x)]
    body = [Literal(Atom("e", cycle[i % 3])) for i in range(atoms - 1)]
    body.append(Literal(Atom("e", (z, Constant("a"))), negated=True))
    return Rule(Atom("long", (x, z)), tuple(body), "godel", 0.9)


def _recorded_kernels(monkeypatch, run):
    """Run with `lang._kernel` recorded; returns (result, asked), asked
    listing each (shape, first step) it was asked for with the kernel it
    returned, in order."""
    asked = []
    compiled = lang._kernel

    def recording(shape, first=0):
        kernel = compiled(shape, first)
        asked.append(((shape, first), kernel))
        return kernel

    with monkeypatch.context() as patch:
        patch.setattr(lang, "_kernel", recording)
        return run(), asked


def test_kernel_shapes_match_the_definition(monkeypatch):
    program = lang.parse_program(KERNEL_CASES, safety="paper-examples")
    rules = program.rules + [_unbound_head_rule("free", "e"), _long_rule(20)]
    program = Program(program.system, rules)
    pruned, asked = _recorded_kernels(monkeypatch, lambda: _check_against_definition(program))
    heads = {r.head.pred: [str(g.head) for g in rules]
             for r, rules in zip(program.rules, pruned) if not r.is_fact}
    assert heads["loop"] == ["loop(b)"] and heads["sym"] == ["sym(a, b)"]
    assert heads["tri"] == ["tri(a, b, a)", "tri(b, b, c)"]
    assert heads["s"] == ["s(b)"] and heads["k"] == ["k(b, c)"]
    assert len(heads["ok"]) == 4 and heads["p"] == ["p(b)"]
    assert heads["z"] == []
    assert len(heads["free"]) == 4 * 3      # every e fact, W over a, b, c
    assert heads["long"] == ["long(a, b)", "long(b, b)", "long(b, b)"]
    # variables range over the universe only, though facts hold c
    assert (lang.ground(program, {"a", "b"}, widen=engine._unwidened)
            == _reference_pruned(program, {"a", "b"}, engine._unwidened))
    # the long rule's plans hand their bindings on to a second kernel
    assert any(first == lang._STEPS_PER_KERNEL for (_, first), _ in asked)


def test_kernel_on_an_empty_delta_records_nothing():
    program = lang.parse_program(KERNEL_CASES, safety="paper-examples")
    names = sorted(program.constants())
    relations = lang._Relations()
    for fact, _ in program.facts():
        relations.rows[fact.pred].add(tuple(t.name for t in fact.args))
    for rule in [r for r in program.rules if not r.is_fact] + [_long_rule(20)]:
        seen = {}
        join = lang._RuleJoin(rule, set(names), names, lang.AtomTable(), seen,
                              (rule.impl, rule.level, 0))
        for i in range(len(join.atoms)):
            join.solve(i, set(), relations)
        assert seen == {}


def _renamed(text, names):
    for old, new in names.items():
        text = re.sub(rf"\b{old}\b", new, text)
    return text


NAMED = """%system fuzzy.
fact edge(alpha, beta) = 0.9.
fact edge(beta, gamma) = 0.8.
fact mark(gamma) = 0.7.
fact ready = 0.6.
rule path(From, To) <- edge(From, To) : godel, 1.0.
rule path(From, To) <- path(From, Via), edge(Via, To), ready : godel, 0.9.
rule stop(From) <- path(From, gamma), mark(gamma), not edge(From, From) : godel, 0.8.
"""
RENAMING = {"edge": "link", "path": "route", "mark": "flag", "ready": "armed", "stop": "halt",
            "alpha": "one", "beta": "two", "gamma": "three", "From": "Src", "Via": "Hop",
            "To": "Dst"}


def test_programs_differing_in_names_share_their_kernels(monkeypatch):
    first = lang.parse_program(NAMED, safety="paper-examples")
    second = lang.parse_program(_renamed(NAMED, RENAMING), safety="paper-examples")
    asked = [_recorded_kernels(monkeypatch, lambda: (
                 lang.ground(program, widen=engine._unwidened),
                 lang.ground(program, present=fixpoint(program).interpretation.entries),
                 lang.ground(program)))[1]
             for program in (first, second)]
    assert [key for key, _ in asked[0]] == [key for key, _ in asked[1]]
    assert all(a is b for (_, a), (_, b) in zip(*asked))
    # no predicate, constant or variable name is in any kernel's source
    names = set(RENAMING) | set(RENAMING.values())
    for (shape, start), _ in asked[0]:
        assert not names & set(re.findall(r"[A-Za-z_]\w*", lang._kernel_source(shape, start)))
