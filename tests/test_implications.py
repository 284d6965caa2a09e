import itertools
import random

import pytest

from mvdatalog import values as V
from mvdatalog import implications as I
from mvdatalog.engine import fixpoint
from mvdatalog.lang import Atom, Constant, Literal, Program, Rule, Variable, parse_program

from helpers import grid, valid_pairs
import oracle as O


def test_compatibility():
    assert I.is_compatible("godel", V.FUZZY)
    assert not I.is_compatible("godel", V.IFS)
    assert I.is_compatible(("godel", "kleene"), V.BIPOLAR_B)
    assert not I.is_compatible(("fg2", "godel"), V.BIPOLAR_A)
    with pytest.raises(ValueError):
        I.apply_implication("fk", V.FUZZY, 0.5, 0.5)
    with pytest.raises(ValueError):
        I.level_fn("vk", V.IFS, (0.5, 0.2), (0.5, 0.2))


# the operators each system accepts, written out
_FUZZY_NAMES = ("godel", "lukasiewicz", "kleene")
COMPATIBLE = {
    V.FUZZY: set(_FUZZY_NAMES),
    V.IFS: {"fk", "fl", "fg1", "fg2"},
    V.IVS: {"vk", "vl", "vg1", "vg2"},
    V.BIPOLAR_A: set(itertools.product(_FUZZY_NAMES, repeat=2)),
    V.BIPOLAR_B: set(itertools.product(_FUZZY_NAMES, repeat=2)),
}


def test_is_compatible_table():
    """Each operator name and an unknown one, their pairs, a list and
    tuples of the wrong length, against each system name and an unknown
    one: compatible exactly where COMPATIBLE says."""
    names = [*_FUZZY_NAMES, "fk", "fl", "fg1", "fg2", "vk", "vl", "vg1", "vg2", "zadeh"]
    impls = [*names, *itertools.product(names, repeat=2),
             ["godel", "godel"], ("godel",), ("godel", "godel", "godel")]
    systems = [*V.SYSTEMS, "boolean"]
    assert len(impls) * len(systems) == 954
    for impl, system in itertools.product(impls, systems):
        expected = not isinstance(impl, list) and impl in COMPATIBLE.get(system, set())
        assert I.is_compatible(impl, system) is expected, (impl, system)


def test_apply_implication_cases():
    assert I.apply_implication("godel", V.FUZZY, 0.6, 0.3) == 0.3
    assert I.apply_implication("fk", V.IFS, (0.4, 0.5), (0.3, 0.6)) == (0.5, 0.4)
    # first branch of the pair-gated Goedel extension
    assert I.apply_implication("fg2", V.IFS, (0.5, 0.3), (0.6, 0.2)) == (1.0, 0.0)


def test_level_fn_golden_values():
    assert I.level_fn("godel", V.FUZZY, 0.6, 0.7).value == 0.6
    assert abs(I.level_fn("lukasiewicz", V.FUZZY, 0.9, 0.7).value - 0.6) < 1e-9
    assert I.level_fn("kleene", V.FUZZY, 0.4, 0.9).value == 0.9
    r = I.level_fn("fg2", V.IFS, (0.5, 0.3), (0.7, 0.2))
    assert r.value == (0.5, 0.3) and r.closure_ok
    assert I.level_fn("vg2", V.IVS, (0.42, 0.56), (0.7, 0.9)).value == (0.42, 0.56)


def test_bipolar_level_cases():
    r = I.bipolar_level("b", "lukasiewicz", "godel", (0.6, 0.2), (0.75, 0.2))
    assert abs(r.value[0] - 0.35) < 1e-9 and abs(r.value[1] - 0.2) < 1e-9
    r = I.bipolar_level("b", "kleene", "godel", (0.25, 0.3), (0.7, 0.2))
    assert r.value[0] == 0.0
    for ids in itertools.product(("godel", "lukasiewicz", "kleene"), repeat=2):
        assert I.bipolar_level("a", ids[0], ids[1], (1.0, 0.0), (1.0, 0.0)).value[0] == 1.0
    with pytest.raises(ValueError):
        I.bipolar_level("a", "fk", "godel", (0.5, 0.2), (0.5, 0.2))
    with pytest.raises(ValueError):
        I.bipolar_level("c", "godel", "godel", (0.5, 0.2), (0.5, 0.2))


def test_closure_check_cases():
    assert I.closure_check("fg2", (0.1, 0.9), (0.9, 0.1))
    assert not I.closure_check("fk", (0.3, 0.3), (0.5, 0.4))
    assert I.closure_check("fg1", (0.8, 0.1), (0.7, 0.2))
    assert I.closure_check(("lukasiewicz", "godel"), (0.5, 0.2), (0.5, 0.2))
    assert not I.closure_check(("godel", "lukasiewicz"), (0.5, 0.2), (0.5, 0.2))
    with pytest.raises(ValueError, match="unknown implication 'fz'"):
        I.closure_check("fz", (0.5, 0.2), (0.5, 0.2))


def test_closure_flag_matches_validation():
    for system in V.SYSTEMS:
        pts = grid(0.25) if system == V.FUZZY else valid_pairs(system, 0.25)
        for impl in V.LATTICES[system].operators:
            for a, b in itertools.product(pts, pts):
                r = I.level_fn(impl, system, a, b)
                assert r.closure_ok == (V.validate(system, r.value) is None)


def test_closure_check_is_sufficient():
    """Whenever the documented condition holds, the derived level really is
    inside the lattice."""
    for system, impls in ((V.IFS, I.IFS_IMPLICATIONS), (V.IVS, I.IVS_IMPLICATIONS)):
        pts = valid_pairs(system, 0.1)
        for impl in impls:
            for a, b in itertools.product(pts, pts):
                if I.closure_check(impl, a, b):
                    assert I.level_fn(impl, system, a, b).closure_ok, (impl, a, b)


def test_oracle_cases():
    assert abs(O.oracle_level_fn("godel", V.FUZZY, 0.6, 0.7, 0.001) - 0.6) < 1e-9
    assert abs(O.oracle_level_fn("kleene", V.FUZZY, 0.4, 0.9, 0.001) - 0.9) < 1e-9
    assert O.oracle_level_fn("lukasiewicz", V.FUZZY, 0.3, 0.2) == 0.0
    with pytest.raises(ValueError):
        O.oracle_level_fn("godel", V.FUZZY, 0.5, 0.5, step=0.5)


def test_oracle_level_many_matches_per_beta_calls():
    bipolar = list(itertools.product(I.FUZZY_IMPLICATIONS, repeat=2))
    cases = ((V.FUZZY, I.FUZZY_IMPLICATIONS, grid(0.1), grid(0.05)),
             (V.IFS, I.IFS_IMPLICATIONS, valid_pairs(V.IFS, 0.1), valid_pairs(V.IFS)),
             (V.IVS, I.IVS_IMPLICATIONS, valid_pairs(V.IVS, 0.1), valid_pairs(V.IVS)),
             (V.BIPOLAR_A, bipolar, valid_pairs(V.IFS, 0.1), valid_pairs(V.IFS)),
             (V.BIPOLAR_B, bipolar, valid_pairs(V.IFS, 0.1), valid_pairs(V.IFS)))
    for system, impls, alphas, betas in cases:
        for impl in impls:
            for a in alphas[::5]:
                single = [O.oracle_level_fn(impl, system, a, b, 0.001) for b in betas]
                assert O.oracle_level_many(impl, system, a, betas, 0.001) == single, \
                    (system, impl, a)

def test_numpy_tables_match_scalar_tables():
    import numpy as np
    rng = random.Random(7)
    for system, impls in ((V.IFS, I.IFS_IMPLICATIONS), (V.IVS, I.IVS_IMPLICATIONS)):
        for impl in impls:
            for _ in range(300):
                a = (rng.random(), rng.random())
                g = (rng.random(), rng.random())
                i1, i2 = O._pair_implication_np(impl, a, np.array([g[0]]), np.array([g[1]]))
                scalar = I._PAIR_TABLE[impl](a, g)
                assert abs(float(np.asarray(i1).ravel()[0]) - scalar[0]) < 1e-12
                assert abs(float(np.asarray(i2).ravel()[0]) - scalar[1]) < 1e-12
    rng = random.Random(8)
    for impl in I.FUZZY_IMPLICATIONS:
        for _ in range(300):
            a, g = rng.random(), rng.random()
            vec = float(O._fuzzy_implication_np(impl, a, np.array([g]))[0])
            assert abs(vec - I._FUZZY_TABLE[impl](a, g)) < 1e-12


def test_always_closed_implications():
    assert set(I.ALWAYS_CLOSED) == set(I.FUZZY_IMPLICATIONS) | {"fg2", "vg2"}
    rng = random.Random(9)
    pairs = [(rng.random(), rng.random()) for _ in range(200)]
    for impl in I.IFS_IMPLICATIONS + I.IVS_IMPLICATIONS:
        verdicts = {I.closure_check(impl, a, b) for a in pairs for b in pairs[:20]}
        assert verdicts == ({True} if I.always_closed(impl) else {True, False}), impl
    for impl in I.FUZZY_IMPLICATIONS:
        assert I.always_closed(impl)
    for ids in itertools.product(I.FUZZY_IMPLICATIONS, repeat=2):
        assert I.always_closed(ids) == (ids in I.CLOSED_BIPOLAR_PAIRS) == \
            I.closure_check(ids, (0.5, 0.2), (0.5, 0.2))


def test_always_closed_operators_flag_bodies_outside_the_lattice():
    """G2 keeps a body inside its lattice, not one that has left it: fed
    the level an fk rule derived outside the ifs lattice, an fg2 rule
    reports its own closure violation too.  So does a fuzzy operator fed
    a level above top, which only a program built through the API holds."""
    assert not I.level_fn("fg2", V.IFS, (0.8, 0.5), (0.9, 0.05)).closure_ok
    assert not I.level_fn("vg2", V.IVS, (0.6, 0.4), (0.7, 0.9)).closure_ok
    assert I.level_fn("lukasiewicz", V.FUZZY, 1.5, 1.0) == I.LevelResult(1.5, False)
    x = Variable("X")
    fuzzy = Program(V.FUZZY, [Rule(Atom("p", (Constant("a"),)), (), "godel", 0.9),
                              Rule(Atom("q", (x,)), (Literal(Atom("p", (x,))),),
                                   "lukasiewicz", 1.5)])
    assert fixpoint(fuzzy, "det").diagnostics == [
        "closure violation: derived level 1.4 for q(a) is outside the fuzzy lattice"]
    prog = parse_program("%system ifs.\nfact p(a) = (0.1, 0.2).\n"
                         "rule q(X) <- p(X) : fk, (0.5, 0.3).\n"
                         "rule r(X) <- q(X) : fg2, (0.9, 0.05).\n")
    assert fixpoint(prog, "det").diagnostics == [
        "closure violation: derived level (0.5, 1) for q(a) is outside the ifs lattice",
        "closure violation: derived level (0.5, 1) for r(a) is outside the ifs lattice"]


def test_oracle_agreement_coarse():
    """Quick 0.2-grid agreement; the full 0.05/0.001 sweep runs in the
    acceptance suite."""
    for impl in I.FUZZY_IMPLICATIONS:
        for a in grid(0.2):
            for b in grid(0.2):
                c = I.level_fn(impl, V.FUZZY, a, b).value
                assert abs(c - O.oracle_level_fn(impl, V.FUZZY, a, b, 0.01)) <= 0.01
    for system, impls in ((V.IFS, I.IFS_IMPLICATIONS), (V.IVS, I.IVS_IMPLICATIONS)):
        pts = valid_pairs(system, 0.2)
        for impl in impls:
            for a, b in itertools.product(pts, pts):
                c = I.level_fn(impl, system, a, b).value
                o = O.oracle_level_fn(impl, system, a, b, 0.01)
                assert abs(c[0] - o[0]) <= 0.01 and abs(c[1] - o[1]) <= 0.01, (impl, a, b, c, o)


def test_bipolar_oracle_agreement():
    pts = valid_pairs(V.IFS, 0.1)
    pairs = [("godel", "kleene"), ("lukasiewicz", "godel"), ("kleene", "lukasiewicz")]
    for variant, system in (("a", V.BIPOLAR_A), ("b", V.BIPOLAR_B)):
        for ids in pairs:
            for a, b in itertools.product(pts[::3], pts[::3]):
                c = I.bipolar_level(variant, ids[0], ids[1], a, b).value
                o = O.oracle_level_fn(ids, system, a, b, 0.001)
                assert abs(c[0] - o[0]) <= 0.001 and abs(c[1] - o[1]) <= 0.001


def test_fuzzy_residuation_and_minimality():
    pts = grid(0.05)
    for impl in I.FUZZY_IMPLICATIONS:
        for a, b in itertools.product(pts, pts):
            f = I.level_fn(impl, V.FUZZY, a, b).value
            assert I.apply_implication(impl, V.FUZZY, a, f) >= b - 1e-12
            if f > 0:
                assert I.apply_implication(impl, V.FUZZY, a, f - 0.002) < b - 1e-9


def test_level_fn_monotone_in_beta():
    for impl in I.FUZZY_IMPLICATIONS:
        for a in grid(0.1):
            prev = None
            for b in grid(0.05):
                f = I.level_fn(impl, V.FUZZY, a, b).value
                if prev is not None:
                    assert f >= prev - 1e-12
                prev = f
    for system, impls in ((V.IFS, I.IFS_IMPLICATIONS), (V.IVS, I.IVS_IMPLICATIONS)):
        pts = valid_pairs(system, 0.1)
        for impl in impls:
            for a in pts[::4]:
                for b1, b2 in itertools.product(pts[::2], pts[::2]):
                    if V.leq(system, b1, b2):
                        f1 = I.level_fn(impl, system, a, b1).value
                        f2 = I.level_fn(impl, system, a, b2).value
                        assert V.leq(system, f1, f2), (impl, a, b1, b2, f1, f2)


def test_g2_contraction():
    """The G2 level functions never push a head above its body, which is
    what makes recursive G2 programs terminate."""
    for system, impl in ((V.IFS, "fg2"), (V.IVS, "vg2")):
        pts = valid_pairs(system)
        for a, b in itertools.product(pts, pts):
            f = I.level_fn(impl, system, a, b).value
            assert V.leq(system, f, a)


def test_bipolar_closure_pairs():
    """Derived bipolar levels stay inside the ifs constraint for the closed
    operator pairs, both variants, whenever the inputs do."""
    pts = valid_pairs(V.IFS, 0.1)
    for ids in I.CLOSED_BIPOLAR_PAIRS:
        for variant in ("a", "b"):
            for a, b in itertools.product(pts, pts):
                v = I.bipolar_level(variant, ids[0], ids[1], a, b).value
                assert v[0] + v[1] <= 1 + 1e-9, (ids, variant, a, b, v)
