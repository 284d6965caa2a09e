import copy
import dataclasses
import os
import pickle
import random
import re
import subprocess
import sys

import pytest

from mvdatalog import values as V
from mvdatalog.lang import (Atom, Constant, GroundRule, Literal, Program, Rule, Variable,
                            parse_program)
from mvdatalog.engine import (Interpretation, applicable, dt_step, fixpoint,
                              is_model, nt_step, order_from_directive, stratify)
from mvdatalog.kb import build_kb, consequence

from conftest import load_kb
from helpers import random_level, random_program, reference_is_model, reference_stratify

A = lambda p, *args: Atom(p, tuple(Constant(c) for c in args))

EX1_LFP = {
    "p(a)": 0.8, "r(b)": 0.6, "q(a, b)": 0.6,
    "q(b, a)": 0.9, "s(a)": 0.3, "s(b)": 0.6,
}


def as_dict(interp):
    return {str(a): v for a, v in interp.entries.items()}


def assert_same(got, expected, tol=1e-9):
    assert set(got) == set(expected), set(got) ^ set(expected)
    for k, v in expected.items():
        g = got[k]
        if isinstance(v, tuple):
            assert abs(g[0] - v[0]) <= tol and abs(g[1] - v[1]) <= tol, (k, g, v)
        else:
            assert abs(g - v) <= tol, (k, g, v)


def test_applicable_cases():
    x = Interpretation(V.FUZZY, {A("q", "a", "b"): 0.6})
    neg = GroundRule(A("q", "b", "a"), (Literal(A("q", "a", "b"), True),), "kleene", 0.9, 0)
    assert abs(applicable(neg, x) - 0.4) < 1e-12
    absent = GroundRule(A("q", "a", "a"), (Literal(A("q", "a", "a"), True),), "kleene", 0.9, 0)
    assert applicable(absent, x) is None
    xi = Interpretation(V.IFS, {A("p", "a", "b"): (0.6, 0.2), A("q", "b", "d"): (0.5, 0.3)})
    body = (Literal(A("p", "a", "b")), Literal(A("q", "b", "d")))
    pair = GroundRule(A("q", "a", "d"), body, "fg2", (0.7, 0.2), 0)
    assert applicable(pair, xi) == (0.5, 0.3)
    empty = GroundRule(A("p", "a"), (), "godel", 0.8, 0)
    assert applicable(empty, Interpretation(V.FUZZY)) == 1.0


def test_dt_step_cases(ex1):
    from mvdatalog.lang import ground
    rules = [g for rs in ground(ex1) for g in rs]
    x = Interpretation(V.FUZZY, {A("p", "a"): 0.8, A("r", "b"): 0.6})
    out = dt_step(rules, x)
    assert_same(as_dict(out), {"p(a)": 0.8, "r(b)": 0.6, "q(a, b)": 0.6})
    assert dt_step([], x).same_as(x)
    # a fixed point maps to itself
    lfp = fixpoint(ex1).interpretation
    assert dt_step(rules, lfp).same_as(lfp)


def test_nt_step_cases(ex1):
    from mvdatalog.lang import ground
    grounded = ground(ex1)
    rule3 = grounded[4]  # q(X, Y) <- not q(Y, X)
    x = Interpretation(V.FUZZY, {A("p", "a"): 0.8, A("r", "b"): 0.6, A("q", "a", "b"): 0.6})
    out = nt_step(rule3, x)
    assert abs(out.entries[A("q", "b", "a")] - 0.9) < 1e-9
    # next productive candidate derives level 0 and changes nothing
    again = nt_step(rule3, out)
    assert again.same_as(out)
    assert nt_step([], x) is x


def test_stratify_ex1(ex1):
    order = stratify(ex1)
    assert order.strata == [[2], [3], [1]]
    assert order.warnings == []


def test_stratify_negation_free_single_stratum(ex12i):
    assert stratify(ex12i).strata == [[1, 2]]


def test_stratify_cyclic_negation_warns():
    prog = parse_program("%system fuzzy.\nfact p = 0.4.\nfact q = 0.4.\n"
                         "rule p <- not q : godel, 0.5.\n"
                         "rule q <- not p : godel, 0.5.\n")
    order = stratify(prog)
    assert order.warnings and "cyclic" in order.warnings[0]
    assert order.strata == [[1, 2]]


def _random_dependency_program(rng):
    """1-8 unary predicates, 1-14 rules of 1-3 body literals, about 35% of
    the literals negated, and a few facts, all in shuffled order."""
    preds = [f"p{i}" for i in range(rng.randint(1, 8))]
    x = (Variable("X"),)
    rules = [Rule(Atom(rng.choice(preds), x),
                  tuple(Literal(Atom(rng.choice(preds), x), rng.random() < 0.35)
                        for _ in range(rng.randint(1, 3))))
             for _ in range(rng.randint(1, 14))]
    rules += [Rule(Atom(rng.choice(preds), (Constant("a"),))) for _ in range(rng.randint(0, 3))]
    rng.shuffle(rules)
    return Program(V.FUZZY, rules)


def test_stratify_matches_reference_stratify():
    rng = random.Random(19)
    warned = 0
    for trial in range(2000):
        program = _random_dependency_program(rng)
        order, expected = stratify(program), reference_stratify(program)
        assert (order.strata, order.warnings) == (expected.strata, expected.warnings), trial
        warned += len(expected.warnings) >= 2
    assert warned > 0


def test_fixpoint_ex1(ex1):
    rep = fixpoint(ex1, "nondet")
    assert rep.converged
    assert_same(as_dict(rep.interpretation), EX1_LFP)


def test_fixpoint_ex1_explicit_order(ex1):
    rep = fixpoint(ex1, "nondet", order=order_from_directive([2, 3, 1]))
    assert_same(as_dict(rep.interpretation), EX1_LFP)


CHAIN = "%system fuzzy.\nfact e(a) = 0.5.\nrule p(X) <- e(X) : godel, 0.9.\n" \
        "rule q(X) <- p(X) : godel, 0.9.\n"


@pytest.mark.parametrize("indices", [[2], [1, 1], [3, 1, 2]])
def test_evaluation_rejects_an_order_that_is_no_permutation(indices):
    """An order that leaves a rule out, repeats one or names one that does
    not exist is a ValueError naming 1..n and the order, whether it is
    passed to `fixpoint` or `consequence` or set as the program's %order
    directive, which `answer` evaluates by."""
    from mvdatalog.query import Goal, answer
    program = parse_program(CHAIN)
    kb = build_kb(program)
    message = re.escape(f"must be a permutation of 1..2, got {[[i] for i in indices]}")
    for mode in ("det", "nondet"):
        with pytest.raises(ValueError, match=message):
            fixpoint(program, mode, order=order_from_directive(indices))
    with pytest.raises(ValueError, match=message):
        consequence(kb, order=order_from_directive(indices))
    program.order_directive = indices
    for evaluate in (fixpoint, lambda p: consequence(kb),
                     lambda p: answer(kb, Goal(Atom("q", (Variable("X"),))))):
        with pytest.raises(ValueError, match=message):
            evaluate(program)
    # a permutation evaluates, set as the directive or passed as order=
    full = {"e(a)": 0.5, "p(a)": 0.5, "q(a)": 0.5}
    program.order_directive = [2, 1]
    assert as_dict(fixpoint(program).interpretation) == full
    assert as_dict(consequence(kb, order=order_from_directive([1, 2])).interpretation) == full


def test_fixpoint_ex12_ifs(ex12i):
    expected = {
        "p(a, b)": (0.6, 0.2), "p(a, c)": (0.7, 0.3), "p(b, d)": (0.5, 0.3),
        "p(d, e)": (0.8, 0.1), "q(a, b)": (0.6, 0.2), "q(a, c)": (0.7, 0.3),
        "q(b, d)": (0.5, 0.3), "q(d, e)": (0.75, 0.2), "q(a, d)": (0.5, 0.3),
        "q(b, e)": (0.5, 0.3), "q(a, e)": (0.5, 0.3),
    }
    for mode in ("det", "nondet"):
        rep = fixpoint(ex12i, mode)
        assert rep.converged
        assert_same(as_dict(rep.interpretation), expected)


def test_fixpoint_ex12_bipolar(ex12b):
    expected = {
        "p(a, b)": (0.6, 0.2), "p(a, c)": (0.7, 0.3), "p(b, d)": (0.5, 0.3),
        "p(d, e)": (0.8, 0.1), "q(a, b)": (0.35, 0.2), "q(a, c)": (0.45, 0.3),
        "q(b, d)": (0.25, 0.3), "q(d, e)": (0.55, 0.2), "q(a, d)": (0.0, 0.3),
        "q(b, e)": (0.7, 0.3), "q(a, e)": (0.7, 0.3),
    }
    rep = fixpoint(ex12b, "nondet")
    assert_same(as_dict(rep.interpretation), expected)


def test_facts_only_program():
    prog = parse_program("%system fuzzy.\nfact p(a) = 0.8.\nfact r(b) = 0.6.\n")
    rep = fixpoint(prog)
    assert rep.converged and rep.iterations == 1
    assert_same(as_dict(rep.interpretation), {"p(a)": 0.8, "r(b)": 0.6})
    assert len(rep.interpretation) == 2
    assert repr(rep.interpretation) == "{p(a) = 0.8, r(b) = 0.6}"
    # leq fails on an entry the other lacks, and on one it holds lower
    p, r = (Atom(pred, (Constant(c),)) for pred, c in (("p", "a"), ("r", "b")))
    assert not rep.interpretation.leq(Interpretation(V.FUZZY, {p: 0.8}))
    assert not rep.interpretation.leq(Interpretation(V.FUZZY, {p: 0.7, r: 0.6}))
    assert rep.interpretation.leq(Interpretation(V.FUZZY, {p: 0.8, r: 0.7}))


def test_iteration_limit_reported(ex12i):
    rep = fixpoint(ex12i, "nondet", max_iters=2)
    assert not rep.converged
    assert any("iteration limit" in d for d in rep.diagnostics)
    with pytest.raises(ValueError, match="max_iters must be at least 1"):
        fixpoint(ex12i, max_iters=0)
    with pytest.raises(ValueError, match="mode must be 'det' or 'nondet', got 'parallel'"):
        fixpoint(ex12i, "parallel")


def test_is_model_cases(ex1):
    lfp = fixpoint(ex1).interpretation
    assert is_model(ex1, lfp) == []
    lowered = lfp.copy()
    lowered.entries[A("s", "b")] = 0.5
    bad = is_model(ex1, lowered)
    assert len(bad) == 1 and "s(b)" in bad[0]
    empty = Interpretation(V.FUZZY)
    violations = is_model(ex1, empty)
    assert len(violations) == len(ex1.facts())


def test_is_model_matches_the_full_grounding():
    """The model check grounds only the instances whose body atoms are in
    the interpretation; its violations, text and order, are those of the
    check over every instance."""
    rng = random.Random(31)
    violated = 0
    for trial in range(60):
        system = list(V.SYSTEMS)[trial % len(V.SYSTEMS)]
        prog = random_program(rng, system, allow_negation=trial % 2 == 1)
        lfp = fixpoint(prog, "det").interpretation
        # the fixed point with levels redrawn, some atoms dropped and atoms
        # over constants the program does not name added, plus atoms no
        # instance can hold: one with a variable, one of another arity
        entries = {atom: random_level(rng, system) for atom in lfp.entries
                   if rng.random() < 0.8}
        for atom in list(lfp.entries)[:3]:
            entries[Atom(atom.pred, tuple(Constant("z") for _ in atom.args))] = (
                random_level(rng, system))
            entries[Atom(atom.pred, atom.args[:1] + (Variable("X"),) + atom.args[2:])] = (
                random_level(rng, system))
            entries[Atom(atom.pred, atom.args + (Constant("a"),))] = random_level(rng, system)
        for interp, extra in ((lfp, ()), (Interpretation(system, entries), ("y",))):
            got = is_model(prog, interp, extra)
            assert got == reference_is_model(prog, interp, extra), trial
            violated += len(got)
    assert violated > 0


def test_duplicate_derivations_merge_by_join():
    prog = parse_program("%system fuzzy.\nfact p(a) = 0.9.\nfact r(a) = 0.5.\n"
                         "rule q(X) <- p(X) : godel, 0.6.\n"
                         "rule q(X) <- r(X) : godel, 0.9.\n")
    rep = fixpoint(prog)
    assert abs(rep.interpretation.entries[A("q", "a")] - 0.6) < 1e-9


def test_closure_diagnostics_recorded():
    prog = parse_program("%system ifs.\nfact p(a) = (0.3, 0.3).\n"
                         "rule q(X) <- p(X) : fk, (0.5, 0.4).\n")
    rep = fixpoint(prog)
    assert any(d.startswith("closure violation") for d in rep.diagnostics)
    # the value is recorded unclamped
    assert rep.interpretation.entries[A("q", "a")] == (0.5, 1.0)


def test_negation_free_det_equals_nondet_randomized():
    rng = random.Random(20240222)
    for _ in range(25):
        system = rng.choice(list(V.SYSTEMS))
        prog = random_program(rng, system)
        det = fixpoint(prog, "det")
        nondet = fixpoint(prog, "nondet")
        assert det.converged and nondet.converged
        assert det.interpretation.same_as(nondet.interpretation, tol=1e-9)


def test_fixpoints_are_models_fuzzy_randomized():
    rng = random.Random(7)
    for _ in range(25):
        prog = random_program(rng, V.FUZZY, allow_negation=True)
        for mode in ("det", "nondet"):
            rep = fixpoint(prog, mode)
            assert rep.converged
            assert is_model(prog, rep.interpretation) == []


def test_monotone_in_facts():
    rng = random.Random(13)
    for _ in range(25):
        prog = random_program(rng, rng.choice([V.FUZZY, V.IFS, V.IVS]))
        base = fixpoint(prog).interpretation
        fact_positions = [i for i, r in enumerate(prog.rules) if r.is_fact]
        pos = rng.choice(fact_positions)
        raised = prog.rules[pos]
        bumped = V.join(prog.system, raised.level,
                        V.top(prog.system) if rng.random() < 0.3
                        else V.join(prog.system, raised.level, raised.level))
        prog.rules[pos] = type(raised)(raised.head, raised.body, raised.impl, bumped)
        higher = fixpoint(prog).interpretation
        assert base.leq(higher)


_UNPICKLE_CHECK = """
import pickle, sys
from mvdatalog.lang import Atom
items = pickle.loads(sys.stdin.buffer.read())
table = dict(items)
for atom, value in items:
    fresh = Atom(atom.pred, atom.args)
    assert fresh == atom and hash(fresh) == hash(atom) and table[fresh] == value
print(len(items))
"""


def test_result_atoms_keep_the_atom_contract():
    kb = load_kb("ex23.mvd", "ex23.prox", "ex23.phi")
    program = parse_program("%system fuzzy.\nfact p(a) = 0.8.\nfact r(b, c) = 0.6.\n"
                            "rule q(X, Y) <- p(X), r(Y, Z) : godel, 0.7.\n")
    for report, prog in ((fixpoint(program, "det"), program),
                         (fixpoint(program, "nondet"), program),
                         (consequence(kb), kb.program)):
        entries = report.interpretation.entries
        heads = {r.head for r in prog.rules if r.is_fact}
        for atom in entries:
            parsed = Atom(atom.pred, tuple(Constant(t.name) for t in atom.args))
            assert atom == parsed and hash(atom) == hash(parsed)
            assert repr(atom) == repr(parsed) and str(atom) == str(parsed)
        assert heads <= entries.keys()
        copied = copy.deepcopy(entries)
        assert copied == entries and list(copied) == list(entries)
        assert all(hash(a) == hash(b) for a, b in zip(copied, entries))
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        done = subprocess.run(
            [sys.executable, "-c", _UNPICKLE_CHECK], input=pickle.dumps(list(entries.items())),
            capture_output=True, timeout=60,
            env={**os.environ, "PYTHONHASHSEED": seed,
                 "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 0, done.stderr.decode()
        assert int(done.stdout) == len(entries)


_UNPICKLE_RULES = """
import pickle, sys
from mvdatalog.lang import Rule
rules = pickle.loads(sys.stdin.buffer.read())
for rule in rules:
    fresh = Rule(rule.head, rule.body, rule.impl, rule.level, rule.line)
    assert fresh == rule and hash(fresh) == hash(rule)
print(len(rules))
"""


def test_rules_keep_the_dataclass_contract():
    program = parse_program("%system ifs.\nfact p(a) = (0.8, 0.1).\n"
                            "rule q(X, Y) <- p(X), p(Y), not r(Y) : fg2, (0.7, 0.2).\n"
                            "rule r(b) <- p(a) : fk, (0.5, 0.3).\n")
    for rule in program.rules:
        fields = (rule.head, rule.body, rule.impl, rule.level)
        assert hash(rule) == hash(fields) == hash(rule)
        for other in (dataclasses.replace(rule), dataclasses.replace(rule, line=rule.line + 1),
                      copy.deepcopy(rule), pickle.loads(pickle.dumps(rule))):
            assert other == rule and hash(other) == hash(rule)
        assert repr(rule).startswith("Rule(head=")
        assert dataclasses.asdict(rule)["level"] == rule.level
    # a level that cannot be hashed fails only when the rule is hashed
    unhashable = Rule(Atom("p"), (), "godel", [0.5])
    with pytest.raises(TypeError):
        hash(unhashable)
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    done = subprocess.run(
        [sys.executable, "-c", _UNPICKLE_RULES], input=pickle.dumps(program.rules),
        capture_output=True, timeout=60,
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr.decode()
    assert int(done.stdout) == len(program.rules)
