import itertools
import random
import re

import pytest

from mvdatalog import kb, lang
from mvdatalog import values as V
from mvdatalog.lang import Atom, Constant, Literal, ParseError, Rule, Variable, parse_program
from mvdatalog.engine import Interpretation, fixpoint
from mvdatalog.kb import (BackgroundKnowledge, PhiSpec, ProximityRelation,
                          build_kb, consequence, is_similarity, mod_nt_step,
                          modified_universe, parse_phi_file, parse_proximity_file,
                          phi_apply, proximity_set, validate_proximity)

from conftest import load_kb, load_program, read
from helpers import (_reference_phi_apply, random_bk, random_level, random_phi,
                     random_program, relation_contents, valid_pairs)

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


@pytest.mark.parametrize("program_text, domain, entries", [
    ("%system fuzzy.\nfact p(a) = 0.5.\n", "terms", ("a ~ b = 0.7.", "a ~ a = {}.")),
    ("%system ifs.\nfact p(a) = (0.5, 0.2).\n", "predicates",
     ("p ~ q = (0.7, 0.2).", "p ~ p = {}.")),
])
def test_non_top_diagonal_without_a_system_rejected_by_build_kb(program_text, domain, entries):
    program = parse_program(program_text)
    top = V.top(program.system)
    below_top = 0.5 if program.system == V.FUZZY else (0.6, 0.3)
    pair, diagonal = entries
    symbol, other = pair[0], pair[4]
    for level in (below_top, top):
        prox_text = f"%domain {domain}.\n{pair}\n{diagonal.format(V.fmt(level))}\n"
        term_prox, pred_prox, system = parse_proximity_file(prox_text)
        assert system is None
        rel = term_prox if domain == "terms" else pred_prox
        # the entry is kept, and left out of the proximity set
        assert rel.pairs[(symbol, symbol)] == level
        assert [d for d, _ in proximity_set(rel, symbol, program.system)] == [symbol, other]
        bk = BackgroundKnowledge(term_prox, pred_prox)
        if level == top:
            # redundant but legal, as in a file that declares its system
            assert consequence(build_kb(program, bk)).converged
        else:
            with pytest.raises(ParseError, match=rf"reflexive entry {symbol} ~ {symbol} must "
                                                 "be the top element"):
                build_kb(program, bk)


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
    assert ([r.value_of("a", x, V.IVS) for x in "abc"]
            == [V.top(V.IVS), (0.8, 0.9), V.bottom(V.IVS)])
    r2 = ProximityRelation("terms", V.FUZZY)
    for x, y in (("a", "b"), ("b", "c"), ("a", "c")):
        r2.set_pair(x, y, 0.7)
    assert is_similarity(r2, V.FUZZY)
    # pairs given to the constructor record their symbols, as set_pair does
    built = ProximityRelation("terms", V.IVS, dict(r.pairs))
    assert built.symbols == r.symbols == {"a", "b", "c"}
    assert not is_similarity(built, V.IVS)
    assert not is_similarity(
        ProximityRelation("terms", V.FUZZY, {("a", "b"): 0.5, ("b", "c"): 0.5}), V.FUZZY)
    # pairs given with their symbols in either order hold what set_pair makes
    # of them, canonical keys included
    reversed_keys = ProximityRelation("terms", V.FUZZY, {("b", "a"): 0.5, ("b", "c"): 0.5})
    by_set_pair = ProximityRelation("terms", V.FUZZY)
    by_set_pair.set_pair("b", "a", 0.5)
    by_set_pair.set_pair("b", "c", 0.5)
    assert not is_similarity(reversed_keys, V.FUZZY)
    assert reversed_keys.value_of("a", "b", V.FUZZY) == 0.5
    assert relation_contents(reversed_keys) == relation_contents(by_set_pair)
    # the symbols given are copied, never written: set_pair adds to the copy
    given = {"x"}
    copied = ProximityRelation("terms", None, {("a", "b"): 0.5}, given)
    copied.set_pair("c", "d", 0.4)
    assert given == {"x"} and copied.symbols == {"x", "a", "b", "c", "d"}
    # so the universe and the consequence do not depend on how a relation
    # was built: u(a, z) is 0.9 by Y ranging over z, not 0.7 by a ~ z alone
    prog = parse_program("%system fuzzy.\nfact p(a) = 0.9.\n")
    X, Y = Variable("X"), Variable("Y")
    prog.rules.append(Rule(Atom("u", (X, Y)), (Literal(Atom("p", (X,))),), "godel", 1.0))
    by_pair = ProximityRelation("terms", V.FUZZY)
    by_pair.set_pair("a", "z", 0.7)
    kbs = [build_kb(prog, BackgroundKnowledge(rel, ProximityRelation("predicates")))
           for rel in (by_pair, ProximityRelation("terms", V.FUZZY, {("a", "z"): 0.7}))]
    assert modified_universe(kbs[0]) == modified_universe(kbs[1]) == {"a", "z"}
    interps = [consequence(k).interpretation for k in kbs]
    assert interps[0].entries == interps[1].entries
    assert interps[1].entries[A("u", "a", "z")] == 0.9
    # the system is checked before any pair is read, as in `proximity_set`
    with pytest.raises(ValueError, match="unknown value system 'crisp'"):
        is_similarity(ProximityRelation("terms"), "crisp")


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
    before = relation_contents(rel)
    build_kb(parse_program("%system fuzzy.\nfact p(a) = 0.5.\n"),
             BackgroundKnowledge(rel, ProximityRelation("predicates")))
    # build_kb writes no relation, and proximity_set still skips a ~ c
    assert relation_contents(rel) == before
    assert "c" not in dict(proximity_set(rel, "a", V.FUZZY))
    for d in symbols:
        assert proximity_set(rel, d, V.FUZZY) == _scanned_proximity_set(rel, d, V.FUZZY)


def test_a_relation_read_by_one_system_gives_another_its_pairs():
    """a ~ b = (0.0, 1.0) is bottom in ifs, not in ivs: after an ifs
    knowledge base is built on a relation, an ivs one built on the same
    relation has the consequence of a freshly parsed copy."""
    text = "%domain terms.\na ~ b = (0.0, 1.0).\n"
    bk = BackgroundKnowledge(*parse_proximity_file(text)[:2])
    build_kb(parse_program("%system ifs.\nfact p(a) = (0.9, 0.1).\n"), bk)
    ivs = parse_program("%system ivs.\nfact p(a) = (0.9, 1.0).\n")
    reused, fresh = (consequence(build_kb(ivs, b)).interpretation.entries
                     for b in (bk, BackgroundKnowledge(*parse_proximity_file(text)[:2])))
    assert reused == fresh
    assert fresh[A("p", "b")] == (0.0, 1.0)


def test_arity_mismatch_rejected():
    prog = parse_program("%system fuzzy.\nfact p(a) = 0.5.\nfact r(a, b) = 0.5.\n")
    pred_prox = ProximityRelation("predicates", V.FUZZY)
    pred_prox.set_pair("p", "r", 0.9)
    with pytest.raises(ParseError, match="arit"):
        build_kb(prog, BackgroundKnowledge(ProximityRelation("terms"), pred_prox))


def test_symbol_outside_the_program_given_two_arities_rejected():
    prog = parse_program("%system fuzzy.\nfact r = 0.5.\nfact e(a, b) = 0.5.\n"
                         "rule t(X) <- e(X, Y) : godel, 1.0.\n"
                         "rule u(X, Y) <- e(X, Y) : godel, 1.0.\n")
    pred_prox = ProximityRelation("predicates", V.FUZZY)
    for p in ("r", "t", "u"):
        pred_prox.set_pair(p, "z", 0.8)
    with pytest.raises(ParseError, match="r ~ z and t ~ z give z arities 0 and 1"):
        build_kb(prog, BackgroundKnowledge(ProximityRelation("terms"), pred_prox))
    # one arity from several neighbours is fine
    pred_prox = ProximityRelation("predicates", V.FUZZY)
    pred_prox.set_pair("t", "z", 0.8)
    pred_prox.set_pair("e", "w", 0.8)
    pred_prox.set_pair("u", "w", 0.8)
    report = consequence(build_kb(prog, BackgroundKnowledge(ProximityRelation("terms"),
                                                            pred_prox)))
    assert {(a.pred, len(a.args)) for a in report.interpretation.entries} == {
        ("r", 0), ("e", 2), ("t", 1), ("u", 2), ("z", 1), ("w", 2)}


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
    with pytest.raises(ValueError, match="unknown uncertainty function 'max'"):
        phi_apply("max", V.FUZZY, 0.5, 1.0, [])


def test_phi_apply_matches_the_reference():
    """Every admissible uncertainty function in every system, with zero to
    three argument lambdas, some of them top: meet_product folds two or
    more lambdas by their product before the meet."""
    rng = random.Random(30)
    for system in V.SYSTEMS:
        draw = lambda: V.top(system) if rng.random() < 0.2 else random_level(rng, system)
        for phi_id in (kb.PHI_MEET, kb.PHI_MEET_PRODUCT, kb.PHI_PRODUCT):
            if phi_id == kb.PHI_PRODUCT and system != V.IVS:
                continue
            for n in range(4):
                for _ in range(30):
                    alpha, lambda_pred = draw(), draw()
                    lambdas = [draw() for _ in range(n)]
                    assert phi_apply(phi_id, system, alpha, lambda_pred, lambdas) == \
                        _reference_phi_apply(phi_id, system, alpha, lambda_pred, lambdas), (
                            system, phi_id, alpha, lambda_pred, lambdas)


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


# ----------------------------------------------------------------------
# compiled fan-out kernels
# ----------------------------------------------------------------------

NAMED_KB = ("%system ivs.\nfact fv(v) = (0.8, 0.9).\nfact mf(m) = (0.7, 0.8).\nfact n = (0.6, 0.9).\n"
            "rule lo(X, Y) <- fv(Y), mf(X), n : vg2, (0.6, 0.7).\n",
            "%domain terms.\nv ~ b = (0.8, 0.9).\nm ~ w = (0.5, 0.6).\n"
            "%domain predicates.\nlo ~ li = (0.7, 0.9).\nfv ~ gc = (0.6, 0.8).\nn ~ nn = (0.5, 0.9).\n",
            "phi lo/2 = meet-product.\nphi fv/1 = product.\n")
KB_RENAMING = {"fv": "likes", "mf": "person", "n": "open", "lo": "buys", "li": "gets",
               "gc": "wants", "nn": "ajar", "v": "tea", "b": "cake", "m": "ann", "w": "bob"}


def _renamed_kb(texts, names):
    renamed = []
    for text in texts:
        for old, new in names.items():
            text = re.sub(rf"\b{old}\b", new, text)
        renamed.append(text)
    program_text, prox_text, phi_text = renamed
    term_prox, pred_prox, _ = parse_proximity_file(prox_text)
    return build_kb(parse_program(program_text), BackgroundKnowledge(term_prox, pred_prox),
                    parse_phi_file(phi_text))


def test_knowledge_bases_differing_in_names_share_their_kernels(monkeypatch):
    compiled = kb._spread_kernel
    asked = []

    def recording(*shape):
        kernel = compiled(*shape)
        asked.append((shape, kernel))
        return kernel

    monkeypatch.setattr(kb, "_spread_kernel", recording)
    runs = []
    for names in ({}, KB_RENAMING):
        start = len(asked)
        report = consequence(_renamed_kb(NAMED_KB, names))
        runs.append(([v for v in report.interpretation.entries.values()], asked[start:]))
    (levels, first), (renamed_levels, second) = runs
    assert levels == renamed_levels
    # one kernel per head predicate, made as the grounding first widens it,
    # keyed by (system, function, arity): a unary product, a unary and a
    # nullary meet, and a binary meet-product, which keeps its own kernel
    assert [shape for shape, _ in first] == [("ivs", "product", 1), ("ivs", "meet", 1),
                                             ("ivs", "meet", 0), ("ivs", "meet_product", 2)]
    assert [shape for shape, _ in second] == [shape for shape, _ in first]
    assert all(a is b for (_, a), (_, b) in zip(first, second))
    # the kernels are kept in a bounded cache, as the join kernels are
    assert compiled.cache_info().maxsize and lang._kernel.cache_info().maxsize
    for n in range(compiled.cache_info().maxsize + 1):
        compiled(V.FUZZY, "meet", n)
    assert compiled.cache_info().currsize == compiled.cache_info().maxsize


def test_every_kernel_shape_compiles():
    # every system, each admissible function and arities 0..20, across the
    # argument-loop boundary (`kb._NESTED_LOOPS`)
    shapes = [(system, phi, n) for system in V.SYSTEMS
              for phi in [kb.PHI_MEET, kb.PHI_MEET_PRODUCT] + [kb.PHI_PRODUCT] * (system == V.IVS)
              for n in range(21)]
    assert len(shapes) == 231
    for shape in shapes:
        assert callable(kb._spread_kernel(*shape)), shape
