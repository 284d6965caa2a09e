import itertools
import random

import pytest

from mvdatalog import values as V
from mvdatalog.lang import Atom, Constant, ParseError, parse_program
from mvdatalog.engine import Interpretation, fixpoint
from mvdatalog.kb import (BackgroundKnowledge, PhiSpec, ProximityRelation,
                          build_kb, consequence, is_similarity, mod_nt_step,
                          parse_phi_file, parse_proximity_file, phi_apply,
                          proximity_set, validate_proximity)

from conftest import load_kb, load_program, read
from helpers import random_bk, random_phi, random_program, valid_pairs

A = lambda p, *args: Atom(p, tuple(Constant(c) for c in args))

EX23_CONSEQUENCE = {
    "fv(V)": (0.85, 0.9), "mf(M)": (0.7, 0.8),
    "gc(V)": (0.8, 0.9), "fv(B)": (0.8, 0.9), "gc(B)": (0.8, 0.9),
    "mu(M)": (0.42, 0.56),
    "lo(M, V)": (0.42, 0.56), "lo(M, B)": (0.42, 0.56),
    "li(M, V)": (0.42, 0.56), "li(M, B)": (0.42, 0.56),
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


# ----------------------------------------------------------------------
# proximity relations
# ----------------------------------------------------------------------

def test_validate_proximity_ex23(ex23_kb):
    assert validate_proximity(ex23_kb.bk.term_prox, V.IVS) == []
    assert validate_proximity(ex23_kb.bk.pred_prox, V.IVS) == []


def test_contradictory_symmetric_entries_rejected():
    with pytest.raises(ParseError, match="contradictory"):
        parse_proximity_file("%system fuzzy.\n%domain terms.\n"
                             "a ~ b = 0.7.\nb ~ a = 0.6.\n")


def test_non_top_diagonal_rejected():
    with pytest.raises(ParseError, match="top"):
        parse_proximity_file("%system fuzzy.\n%domain terms.\na ~ a = 0.5.\n")
    # an explicit top diagonal is redundant but legal
    tp, _, _ = parse_proximity_file("%system fuzzy.\n%domain terms.\na ~ a = 1.\n")
    assert proximity_set(tp, "a", V.FUZZY) == [("a", 1.0)]


def test_invalid_proximity_value_reported():
    rel = ProximityRelation("terms", V.IFS)
    rel.set_pair("a", "b", (0.8, 0.3))
    problems = validate_proximity(rel, V.IFS)
    assert problems and "0.8" in problems[0]


def test_is_similarity():
    assert is_similarity(ProximityRelation("terms"), V.FUZZY)
    r = ProximityRelation("terms", V.IVS)
    r.set_pair("a", "b", (0.8, 0.9))
    r.set_pair("b", "c", (0.8, 0.9))
    assert not is_similarity(r, V.IVS)  # a ~ c missing reads as bottom
    r2 = ProximityRelation("terms", V.FUZZY)
    for x, y in (("a", "b"), ("b", "c"), ("a", "c")):
        r2.set_pair(x, y, 0.7)
    assert is_similarity(r2, V.FUZZY)


def test_proximity_set_cases(ex23_kb, ex17_kb):
    ps = dict(proximity_set(ex23_kb.bk.pred_prox, "lo", V.IVS))
    assert ps == {"lo": (1.0, 1.0), "li": (0.7, 0.9)}
    assert proximity_set(ex23_kb.bk.term_prox, "x", V.IVS) == [("x", (1.0, 1.0))]
    ps17 = dict(proximity_set(ex17_kb.bk.term_prox, "a", V.IFS))
    assert ps17 == {"a": (1.0, 0.0), "b": (0.7, 0.2)}


def _scanned_proximity_set(rel, d, system):
    """proximity_set as a scan over every pair: the reference for its order."""
    out = [(d, V.top(system))]
    for (a, b), v in rel.pairs.items():
        if not V.is_bottom(system, v) and d in (a, b):
            out.append((b if a == d else a, v))
    return out


def test_proximity_set_follows_pair_order():
    rel = ProximityRelation("terms", V.FUZZY)
    for a, b, v in (("b", "a", 0.5), ("a", "c", 0.0), ("d", "a", 0.7),
                    ("c", "b", 0.4), ("a", "b", 0.6)):
        rel.set_pair(a, b, v)
    # the overwritten a ~ b keeps its first place; the bottom a ~ c is skipped
    assert proximity_set(rel, "a", V.FUZZY) == [("a", 1.0), ("b", 0.6), ("d", 0.7)]
    rebuilt = ProximityRelation("terms", V.FUZZY, dict(rel.pairs), set(rel.symbols))
    assert rebuilt.neighbours == rel.neighbours
    symbols = sorted(rel.symbols) + ["z"]
    for d in symbols:
        assert proximity_set(rel, d, V.FUZZY) == _scanned_proximity_set(rel, d, V.FUZZY)
    build_kb(parse_program("%system fuzzy.\nfact p(a) = 0.5.\n"),
             BackgroundKnowledge(rel, ProximityRelation("predicates")))
    assert ("a", "c") not in rel.pairs and "c" not in rel.neighbours["a"]
    for d in symbols:
        assert proximity_set(rel, d, V.FUZZY) == _scanned_proximity_set(rel, d, V.FUZZY)


def test_arity_mismatch_rejected():
    prog = parse_program("%system fuzzy.\nfact p(a) = 0.5.\nfact r(a, b) = 0.5.\n")
    pred_prox = ProximityRelation("predicates", V.FUZZY)
    pred_prox.set_pair("p", "r", 0.9)
    with pytest.raises(ParseError, match="arit"):
        build_kb(prog, BackgroundKnowledge(ProximityRelation("terms"), pred_prox))


def test_system_mismatch_rejected():
    prog = parse_program("%system fuzzy.\nfact p(a) = 0.5.\n")
    term_prox = ProximityRelation("terms", V.IFS)
    with pytest.raises(ParseError, match="declares"):
        build_kb(prog, BackgroundKnowledge(term_prox, ProximityRelation("predicates")))


# ----------------------------------------------------------------------
# kb-extended uncertainty functions
# ----------------------------------------------------------------------

def test_phi_apply_cases():
    assert phi_apply("meet", V.IFS, (0.8, 0.1), (0.6, 0.3), [(1.0, 0.0)]) == (0.6, 0.3)
    assert phi_apply("meet", V.IFS, (0.8, 0.1), (1.0, 0.0), [(0.7, 0.2)]) == (0.7, 0.2)
    v = phi_apply("product", V.IVS, (0.7, 0.8), (0.6, 0.7), [(1.0, 1.0)])
    assert abs(v[0] - 0.42) < 1e-9 and abs(v[1] - 0.56) < 1e-9
    with pytest.raises(ValueError, match="interval"):
        phi_apply("product", V.IFS, (0.5, 0.2), (0.5, 0.2), [])


@pytest.mark.parametrize("system", [V.FUZZY, V.IFS, V.IVS])
def test_phi_axioms_on_grid(system):
    pts = (
        [round(x * 0.05, 10) for x in range(21)] if system == V.FUZZY
        else valid_pairs(system, 0.25)
    )
    phis = ["meet", "meet_product"] + (["product"] if system == V.IVS else [])
    top = V.top(system)
    for phi_id in phis:
        for alpha, lam, lam1 in itertools.product(pts, pts, pts):
            out = phi_apply(phi_id, system, alpha, lam, [lam1])
            if phi_id in ("meet", "meet_product"):
                assert V.leq(system, out, V.meet_all(system, [alpha, lam, lam1]))
            else:
                for arg in (alpha, lam, lam1):
                    assert V.leq(system, out, arg)
            # identity at top
            ident = phi_apply(phi_id, system, alpha, top, [top])
            assert V.values_equal(system, ident, alpha)
        # monotone in each argument (spot pairs along the grid)
        for a1, a2 in zip(pts, pts[1:]):
            if not V.leq(system, a1, a2):
                continue
            for lam in pts[::4]:
                assert V.leq(system,
                             phi_apply(phi_id, system, a1, lam, [lam]),
                             phi_apply(phi_id, system, a2, lam, [lam]))
                assert V.leq(system,
                             phi_apply(phi_id, system, lam, a1, [lam]),
                             phi_apply(phi_id, system, lam, a2, [lam]))


# ----------------------------------------------------------------------
# modified transformation and consequence
# ----------------------------------------------------------------------

def test_mod_step_ex23(ex23_kb):
    facts = Interpretation(V.IVS, {A("fv", "V"): (0.85, 0.9), A("mf", "M"): (0.7, 0.8)})
    x1 = mod_nt_step(ex23_kb, facts)
    assert_same(as_dict(x1), {
        "fv(V)": (0.85, 0.9), "mf(M)": (0.7, 0.8),
        "gc(V)": (0.8, 0.9), "fv(B)": (0.8, 0.9), "gc(B)": (0.8, 0.9),
        "mu(M)": (0.42, 0.56)})
    x2 = mod_nt_step(ex23_kb, x1)
    for atom in ("lo(M, V)", "lo(M, B)"):
        got = as_dict(x2)[atom]
        assert abs(got[0] - 0.42) < 1e-9 and abs(got[1] - 0.56) < 1e-9
    x3 = mod_nt_step(ex23_kb, x2)
    assert x3.same_as(x2)  # fixed point reached
    assert_same(as_dict(x2), EX23_CONSEQUENCE)


def test_mod_step_with_identity_bk_is_engine_step(ex1):
    from mvdatalog.engine import dt_step
    from mvdatalog.lang import ground
    kb = build_kb(ex1)
    rules = [g for rs in ground(ex1) for g in rs]
    x = Interpretation(V.FUZZY, {A("p", "a"): 0.8, A("r", "b"): 0.6})
    assert mod_nt_step(kb, x, rules).same_as(dt_step(rules, x))


def test_consequence_ex23(ex23_kb):
    rep = consequence(ex23_kb)
    assert rep.converged
    assert_same(as_dict(rep.interpretation), EX23_CONSEQUENCE)


def test_consequence_ex17(ex17_kb):
    rep = consequence(ex17_kb)
    assert_same(as_dict(rep.interpretation), {
        "r(a)": (0.8, 0.1), "r(b)": (0.7, 0.2),
        "s(a)": (0.6, 0.3), "s(b)": (0.6, 0.3)})


def test_consequence_with_empty_bk_reduces_to_fixpoint(ex1, ex12i):
    for prog in (ex1, ex12i):
        kb = build_kb(prog)
        assert consequence(kb).interpretation.same_as(fixpoint(prog).interpretation)


def test_mod_step_inflationary_randomized():
    rng = random.Random(4)
    for _ in range(15):
        prog = random_program(rng, rng.choice([V.FUZZY, V.IFS, V.IVS]))
        kb = build_kb(prog, random_bk(rng, prog), random_phi(rng, prog))
        interp = fixpoint(prog, max_iters=50).interpretation
        out = mod_nt_step(kb, interp)
        assert interp.leq(out)


def test_engine_fixpoint_contained_in_consequence_randomized():
    rng = random.Random(5)
    for _ in range(20):
        prog = random_program(rng, rng.choice([V.FUZZY, V.IFS, V.IVS]))
        kb = build_kb(prog, random_bk(rng, prog), random_phi(rng, prog))
        plain = fixpoint(prog)
        rich = consequence(kb)
        assert plain.converged and rich.converged
        assert plain.interpretation.leq(rich.interpretation)


def test_phi_file_parsing():
    spec = parse_phi_file(read("ex23.phi"))
    assert spec.phi_for("lo", 2) == "meet_product"
    assert spec.phi_for("fv", 1) == "meet"
    assert spec.phi_for("mf", 1) == "product"
    assert spec.phi_for("unmentioned", 3) == "meet"
    with pytest.raises(ParseError):
        parse_phi_file("phi p/1 = euclid.\n")


def test_contradictory_phi_entries_rejected():
    with pytest.raises(ParseError) as info:
        parse_phi_file("phi p/1 = meet.\nphi q/2 = product.\nphi p/1 = product.\n")
    assert (str(info.value), info.value.line, info.value.col) == (
        "line 3, col 9: contradictory uncertainty functions for p/1", 3, 9)
    # the same function twice is no contradiction
    spec = parse_phi_file("phi p/1 = meet-product.\nphi p/1 = meet-product.\n")
    assert spec.by_functor == {("p", 1): "meet_product"}


def test_product_phi_flagged_outside_ivs():
    prog = parse_program("%system ifs.\nfact p(a) = (0.5, 0.2).\n")
    spec = PhiSpec({("p", 1): "product"})
    with pytest.raises(ParseError, match="product"):
        build_kb(prog, None, spec)
