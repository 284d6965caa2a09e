"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances are pinned here: golden levels match to 1e-9, the level-function
oracle agrees within 0.001 at scan step 0.001, and the stated runtime
budgets are asserted.
"""

import functools
import itertools
import random
import time

from mvdatalog import values as V
from mvdatalog import implications as I
from mvdatalog.lang import ground, herbrand, parse_program
from mvdatalog.engine import (Interpretation, dt_step, fixpoint, is_model,
                              nt_step, order_from_directive)
from mvdatalog.kb import build_kb, consequence, mod_nt_step
from mvdatalog.query import Goal, answer, parse_goal

from conftest import load_kb, load_program
from helpers import (grid, random_bk, random_level, random_phi,
                     random_program, valid_pairs)
from oracle import oracle_level_fn, oracle_level_many

SEED = 20240222
TOL = 1e-9


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}")
        return run
    return wrap


def assert_interp(interp, expected, tol=TOL):
    got = {str(a): v for a, v in interp.entries.items()}
    assert set(got) == set(expected), set(got) ^ set(expected)
    for k, v in expected.items():
        g = got[k]
        if isinstance(v, tuple):
            assert abs(g[0] - v[0]) <= tol and abs(g[1] - v[1]) <= tol, (k, g, v)
        else:
            assert abs(g - v) <= tol, (k, g, v)


@criterion(1, "ex1 golden nondeterministic fixpoint (order 2,3,1), 1e-9, < 1 s")
def test_criterion_1_ex1_fixpoint():
    prog = load_program("ex1.mvd", safety="paper-examples")
    start = time.perf_counter()
    rep = fixpoint(prog, "nondet", order=order_from_directive([2, 3, 1]))
    elapsed = time.perf_counter() - start
    assert rep.converged
    assert_interp(rep.interpretation, {
        "p(a)": 0.8, "r(b)": 0.6, "q(a, b)": 0.6,
        "q(b, a)": 0.9, "s(a)": 0.3, "s(b)": 0.6})
    # the stratifier reproduces the same order on its own
    rep_auto = fixpoint(prog, "nondet")
    assert rep_auto.interpretation.same_as(rep.interpretation, tol=TOL)
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(2, "ex12 intuitionistic fixpoint with fg2 on both rules, 1e-9")
def test_criterion_2_ex12_ifs():
    rep = fixpoint(load_program("ex12i.mvd"), "nondet")
    assert rep.converged
    assert_interp(rep.interpretation, {
        "p(a, b)": (0.6, 0.2), "p(a, c)": (0.7, 0.3), "p(b, d)": (0.5, 0.3),
        "p(d, e)": (0.8, 0.1), "q(a, b)": (0.6, 0.2), "q(a, c)": (0.7, 0.3),
        "q(b, d)": (0.5, 0.3), "q(d, e)": (0.75, 0.2), "q(a, d)": (0.5, 0.3),
        "q(b, e)": (0.5, 0.3), "q(a, e)": (0.5, 0.3)})


@criterion(3, "ex12 bipolar-b fixpoint with (lukasiewicz,godel)/(kleene,godel), 1e-9")
def test_criterion_3_ex12_bipolar():
    rep = fixpoint(load_program("ex12b.mvd"), "nondet")
    assert rep.converged
    assert_interp(rep.interpretation, {
        "p(a, b)": (0.6, 0.2), "p(a, c)": (0.7, 0.3), "p(b, d)": (0.5, 0.3),
        "p(d, e)": (0.8, 0.1), "q(a, b)": (0.35, 0.2), "q(a, c)": (0.45, 0.3),
        "q(b, d)": (0.25, 0.3), "q(d, e)": (0.55, 0.2), "q(a, d)": (0.0, 0.3),
        "q(b, e)": (0.7, 0.3), "q(a, e)": (0.7, 0.3)})


@criterion(4, "ex17 proximity expansion of a single fact, exact values")
def test_criterion_4_ex17():
    from mvdatalog.kb import phi_apply
    assert phi_apply("meet", V.IFS, (0.8, 0.1), (1.0, 0.0), [(0.7, 0.2)]) == (0.7, 0.2)
    assert phi_apply("meet", V.IFS, (0.8, 0.1), (0.6, 0.3), [(1.0, 0.0)]) == (0.6, 0.3)
    assert phi_apply("meet", V.IFS, (0.8, 0.1), (0.6, 0.3), [(0.7, 0.2)]) == (0.6, 0.3)
    rep = consequence(load_kb("ex17.mvd", "ex17.prox", "ex17.phi"))
    assert_interp(rep.interpretation, {
        "r(a)": (0.8, 0.1), "r(b)": (0.7, 0.2),
        "s(a)": (0.6, 0.3), "s(b)": (0.6, 0.3)})


@criterion(5, "ex23 knowledge-base consequence, ten atoms, 1e-9, < 1 s")
def test_criterion_5_ex23():
    kb = load_kb("ex23.mvd", "ex23.prox", "ex23.phi")
    start = time.perf_counter()
    rep = consequence(kb)
    elapsed = time.perf_counter() - start
    assert rep.converged
    assert_interp(rep.interpretation, {
        "fv(V)": (0.85, 0.9), "mf(M)": (0.7, 0.8),
        "gc(V)": (0.8, 0.9), "fv(B)": (0.8, 0.9), "gc(B)": (0.8, 0.9),
        "mu(M)": (0.42, 0.56),
        "lo(M, V)": (0.42, 0.56), "lo(M, B)": (0.42, 0.56),
        "li(M, V)": (0.42, 0.56), "li(M, B)": (0.42, 0.56)})
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(6, "level functions agree with the 0.001-step oracle on the 0.05 grid; "
              "residuation and minimality hold; < 30 s")
def test_criterion_6_oracle_suite():
    start = time.perf_counter()
    fuzzy_grid = grid(0.05)
    for impl in I.FUZZY_IMPLICATIONS:
        for a, b in itertools.product(fuzzy_grid, fuzzy_grid):
            closed = I.level_fn(impl, V.FUZZY, a, b).value
            assert abs(closed - oracle_level_fn(impl, V.FUZZY, a, b, 0.001)) <= 0.001
            assert I.apply_implication(impl, V.FUZZY, a, closed) >= b - 1e-12
            if closed > 0:
                assert I.apply_implication(impl, V.FUZZY, a, closed - 0.002) < b - TOL
    for system, impls in ((V.IFS, I.IFS_IMPLICATIONS), (V.IVS, I.IVS_IMPLICATIONS)):
        pts = valid_pairs(system, 0.05)
        for impl in impls:
            for a in pts:
                closed = [I.level_fn(impl, system, a, b).value for b in pts]
                oracle = oracle_level_many(impl, system, a, pts, 0.001)
                for b, c, o in zip(pts, closed, oracle):
                    assert abs(c[0] - o[0]) <= 0.001 and abs(c[1] - o[1]) <= 0.001, \
                        (impl, a, b, c, o)
    ifs_pts = valid_pairs(V.IFS, 0.05)
    for ids in itertools.product(I.FUZZY_IMPLICATIONS, repeat=2):
        for variant, system in (("a", V.BIPOLAR_A), ("b", V.BIPOLAR_B)):
            for a in ifs_pts:
                oracle = oracle_level_many(ids, system, a, ifs_pts, 0.001)
                for b, o in zip(ifs_pts, oracle):
                    c = I.bipolar_level(variant, ids[0], ids[1], a, b).value
                    assert abs(c[0] - o[0]) <= 0.001 and abs(c[1] - o[1]) <= 0.001
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@criterion(7, "randomized property suite (>= 200 cases, fixed seed)")
def test_criterion_7_property_suite():
    rng = random.Random(SEED)
    cases = 0

    # (a) fixpoints pass the model check (fuzzy population, negation allowed;
    # the golden multivalued fixpoints are model-checked as well)
    for _ in range(50):
        prog = random_program(rng, V.FUZZY, allow_negation=(rng.random() < 0.6))
        for mode in ("det", "nondet"):
            rep = fixpoint(prog, mode)
            assert rep.converged
            assert is_model(prog, rep.interpretation) == []
        cases += 1
    for name, safety in (("ex1.mvd", "paper-examples"), ("ex12i.mvd", "strict")):
        prog = load_program(name, safety)
        assert is_model(prog, fixpoint(prog).interpretation) == []
    kb23 = load_kb("ex23.mvd", "ex23.prox", "ex23.phi")
    assert is_model(kb23.program, consequence(kb23).interpretation,
                    extra_constants=kb23.bk.term_prox.symbols) == []

    # (b) negation-free programs: deterministic = nondeterministic semantics
    for _ in range(50):
        prog = random_program(rng, rng.choice(list(V.SYSTEMS)))
        det, nondet = fixpoint(prog, "det"), fixpoint(prog, "nondet")
        assert det.converged and nondet.converged
        assert det.interpretation.same_as(nondet.interpretation, tol=TOL)
        cases += 1

    # (c) inflationarity of every step operator on random interpretations
    for _ in range(30):
        system = rng.choice([V.FUZZY, V.IFS, V.IVS])
        prog = random_program(rng, system, allow_negation=(rng.random() < 0.5))
        rules = [g for rs in ground(prog) for g in rs]
        entries = {}
        for atom in herbrand(prog)[1]:
            if rng.random() < 0.4:
                entries[atom] = random_level(rng, system)
        x = Interpretation(system, entries)
        assert x.leq(dt_step(rules, x))
        assert x.leq(nt_step(rules, x))
        kb = build_kb(prog, random_bk(rng, prog), random_phi(rng, prog))
        assert x.leq(mod_nt_step(kb, x))
        cases += 1

    # (d, e) positive programs: plain fixpoint inside the kb consequence,
    # and equality when the background knowledge is trivial
    for _ in range(35):
        prog = random_program(rng, rng.choice([V.FUZZY, V.IFS, V.IVS]))
        kb = build_kb(prog, random_bk(rng, prog), random_phi(rng, prog))
        plain = fixpoint(prog)
        rich = consequence(kb)
        assert plain.converged and rich.converged
        assert plain.interpretation.leq(rich.interpretation)
        cases += 1
        identity = consequence(build_kb(prog))
        assert identity.interpretation.same_as(plain.interpretation, tol=TOL)
        cases += 1

    # (f) bipolar closure for the five listed operator pairs, both variants
    pts = valid_pairs(V.IFS, 0.05)
    for ids in I.CLOSED_BIPOLAR_PAIRS:
        for variant in ("a", "b"):
            for a, b in itertools.product(pts[::2], pts[::2]):
                v = I.bipolar_level(variant, ids[0], ids[1], a, b).value
                assert v[0] + v[1] <= 1 + TOL

    # (g) recursive G2 programs converge within |base| iterations
    for head, impl in (("ifs", "fg2"), ("ivs", "vg2")):
        lv = "(0.9, 0.05)" if head == "ifs" else "(0.6, 0.9)"
        lv2 = "(0.8, 0.1)" if head == "ifs" else "(0.7, 0.95)"
        prog = parse_program(
            f"%system {head}.\n"
            f"fact p(a, b) = {lv}.\nfact p(b, c) = {lv2}.\n"
            f"fact p(c, d) = {lv}.\nfact p(d, e) = {lv2}.\n"
            f"rule q(X, Y) <- p(X, Y) : {impl}, {lv2}.\n"
            f"rule q(X, Z) <- p(X, Y), q(Y, Z) : {impl}, {lv}.\n")
        base_size = len(herbrand(prog)[1])
        rep = fixpoint(prog, "det", max_iters=base_size)
        assert rep.converged, "G2 transitive closure exceeded |base| iterations"
        assert rep.iterations <= base_size

    assert cases >= 200, cases


@criterion(8, "query answers equal the full-consequence entries")
def test_criterion_8_query_agreement():
    kb23 = load_kb("ex23.mvd", "ex23.prox", "ex23.phi")
    kb1 = build_kb(load_program("ex1.mvd", safety="paper-examples"))
    for kb, goal_text in ((kb23, "li(M, X)"), (kb1, "s(X)"), (kb1, "q(X, Y)")):
        full = consequence(kb).interpretation
        res = answer(kb, Goal(parse_goal(goal_text, kb.program)))
        assert res.answers, goal_text
        expected = {a for a in full.entries
                    if a.pred == parse_goal(goal_text, kb.program).pred}
        assert {a for a, _ in res.answers} == expected
        for atom, val in res.answers:
            assert V.values_equal(kb.program.system, val, full.entries[atom], tol=TOL)
