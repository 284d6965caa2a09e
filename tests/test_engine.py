import copy
import os
import pickle
import random
import subprocess
import sys

import pytest

from mvdatalog import values as V
from mvdatalog.lang import Atom, Constant, GroundRule, Literal, parse_program
from mvdatalog.engine import (Interpretation, applicable, dt_step, fixpoint,
                              is_model, nt_step, order_from_directive, stratify)
from mvdatalog.kb import consequence

from conftest import load_kb
from helpers import random_program

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


def test_fixpoint_ex1(ex1):
    rep = fixpoint(ex1, "nondet")
    assert rep.converged
    assert_same(as_dict(rep.interpretation), EX1_LFP)


def test_fixpoint_ex1_explicit_order(ex1):
    rep = fixpoint(ex1, "nondet", order=order_from_directive([2, 3, 1]))
    assert_same(as_dict(rep.interpretation), EX1_LFP)


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


def test_iteration_limit_reported(ex12i):
    rep = fixpoint(ex12i, "nondet", max_iters=2)
    assert not rep.converged
    assert any("iteration limit" in d for d in rep.diagnostics)


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
assert not any("_hash" in vars(atom) for atom, _ in items)
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
        heads = {r.head: r.head for r in prog.rules if r.is_fact}
        for atom in entries:
            parsed = Atom(atom.pred, tuple(Constant(t.name) for t in atom.args))
            assert atom == parsed and hash(atom) == hash(parsed)
            assert repr(atom) == repr(parsed) and str(atom) == str(parsed)
            assert atom.__getstate__() == {"pred": atom.pred, "args": atom.args}
            # a fact head is the parsed object itself
            assert atom is heads.get(atom, atom)
        assert heads.keys() <= entries.keys()
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
