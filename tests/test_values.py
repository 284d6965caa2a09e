import itertools

import pytest
from hypothesis import given, strategies as st

from mvdatalog import values as V

from helpers import grid, valid_pairs

ALL_SYSTEMS = list(V.SYSTEMS)


def system_grid(system, step=0.05):
    if system == V.FUZZY:
        return grid(step)
    return valid_pairs(system, step)


def test_order_cases():
    assert V.leq(V.IFS, (0.5, 0.3), (0.6, 0.2))
    assert not V.leq(V.IVS, (0.5, 0.3), (0.6, 0.2))
    assert V.leq(V.FUZZY, 0.3, 0.3)


def test_meet_cases():
    assert V.meet(V.IFS, (0.6, 0.2), (0.5, 0.3)) == (0.5, 0.3)
    assert V.meet(V.IVS, (0.85, 0.9), (0.8, 0.9)) == (0.8, 0.9)
    for system in ALL_SYSTEMS:
        for a in system_grid(system, 0.25):
            assert V.meet(system, a, V.top(system)) == a


def test_join_cases():
    assert V.join(V.FUZZY, 0.6, 0.0) == 0.6
    assert V.join(V.IFS, (0.6, 0.2), (0.0, 1.0)) == (0.6, 0.2)
    assert V.join(V.IVS, (0.42, 0.56), (0.42, 0.56)) == (0.42, 0.56)


def test_negate_cases():
    assert V.negate(V.FUZZY, 0.6) == 0.4
    assert V.values_equal(V.FUZZY, V.negate(V.FUZZY, V.negate(V.FUZZY, 0.3)), 0.3)
    assert V.negate(V.IFS, (0.7, 0.2)) == (0.2, 0.7)


def test_validate_cases():
    assert V.validate(V.IFS, (0.8, 0.3)) is not None
    assert V.validate(V.IVS, (0.4, 0.2)) is not None
    assert V.validate(V.IFS, (0.6, 0.3)) is None
    # bipolar derived values only need per-coordinate ranges
    assert V.validate(V.BIPOLAR_B, (0.8, 0.8)) is None
    assert V.validate_input(V.BIPOLAR_B, (0.8, 0.8)) is not None


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        V.leq(V.FUZZY, 0.5, (0.5, 0.5))
    with pytest.raises(ValueError):
        V.meet(V.IFS, 0.5, (0.5, 0.5))


def test_checked_functions_reject_what_lattices_accept():
    with pytest.raises(ValueError):
        V.join(V.IVS, (0.5, 0.5), 0.5)
    with pytest.raises(ValueError):
        V.values_equal(V.FUZZY, (0.5, 0.5), 0.5)
    with pytest.raises(ValueError):
        V.is_bottom(V.IFS, 0.0)
    with pytest.raises(ValueError):
        V.lattice("boolean")


# derived values outside the lattice constraints (non-G2 operators, bipolar)
OUT_OF_LATTICE = {
    V.FUZZY: [1.2, -0.1, 1.0 + 1e-10],
    V.IFS: [(0.8, 0.8), (0.6, 0.5), (1.0, 1.0)],
    V.IVS: [(0.6, 0.4), (1.0, 0.0), (0.3, 0.2999999999)],
    V.BIPOLAR_A: [(0.9, 0.9), (0.7, 0.6)],
    V.BIPOLAR_B: [(0.9, 0.9), (0.7, 0.6)],
}


# the complement formulas of `values.negate`'s docstring
NEGATE = {
    V.FUZZY: lambda a: 1.0 - a,
    V.IFS: lambda a: (a[1], a[0]),
    V.IVS: lambda a: (1.0 - a[1], 1.0 - a[0]),
    V.BIPOLAR_A: lambda a: (1.0 - a[0], 1.0 - a[1]),
    V.BIPOLAR_B: lambda a: (1.0 - a[0], 1.0 - a[1]),
}


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_bound_lattice_agrees_with_checked_functions(system):
    lat = V.LATTICES[system]
    assert V.lattice(system) is lat
    assert lat.top == V.top(system) and lat.bottom == V.bottom(system)
    pts = system_grid(system) + OUT_OF_LATTICE[system]
    for a, b in itertools.product(pts, pts):
        assert lat.leq(a, b) == V.leq(system, a, b)
        assert lat.meet(a, b) == V.meet(system, a, b)
        assert lat.join(a, b) == V.join(system, a, b)
        assert lat.equal(a, b) == V.values_equal(system, a, b)
        assert lat.equal(a, b, 0.1) == V.values_equal(system, a, b, tol=0.1)
    for a in pts:
        assert lat.is_bottom(a) == V.is_bottom(system, a)
        assert lat.negate(a) == V.negate(system, a) == NEGATE[system](a)
    grid_pts = system_grid(system)
    for a in grid_pts:
        assert lat.meet(a, lat.top) == a and lat.join(a, lat.bottom) == a
    # leq has a formula of its own; negation reverses it
    for a, b in itertools.product(grid_pts, grid_pts):
        assert lat.leq(a, b) == (lat.meet(a, b) == a) == (lat.join(a, b) == b)
        if lat.leq(a, b):
            assert lat.leq(lat.negate(b), lat.negate(a))


def test_conversion_cases():
    assert V.ifs_to_ivs((0.6, 0.3)) == (0.6, 0.7)
    assert V.ifs_to_ivs((0.0, 1.0)) == (0.0, 0.0)
    assert V.ivs_to_ifs(V.ifs_to_ivs((0.42, 0.56))) == (0.42, 0.56)
    with pytest.raises(ValueError):
        V.ifs_to_ivs((0.8, 0.3))


def test_conversion_is_order_isomorphism():
    pts = valid_pairs(V.IFS)
    for a in pts:
        image = V.ifs_to_ivs(a)
        assert V.validate(V.IVS, image) is None
        assert V.values_equal(V.IFS, V.ivs_to_ifs(image), a, tol=1e-12)
    sample = pts[:: max(1, len(pts) // 40)]
    for a in sample:
        for b in sample:
            assert V.leq(V.IFS, a, b) == V.leq(V.IVS, V.ifs_to_ivs(a), V.ifs_to_ivs(b))
    # and onto: every valid ivs pair is hit
    for a in valid_pairs(V.IVS):
        assert V.values_equal(V.IVS, V.ifs_to_ivs(V.ivs_to_ifs(a)), a, tol=1e-12)


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_pairwise_lattice_laws(system):
    pts = system_grid(system)
    bot, topv = V.bottom(system), V.top(system)
    for a in pts:
        assert V.meet(system, a, a) == a
        assert V.join(system, a, a) == a
        assert V.leq(system, bot, a) and V.leq(system, a, topv)
    for a, b in itertools.product(pts, pts):
        m, j = V.meet(system, a, b), V.join(system, a, b)
        assert m == V.meet(system, b, a)
        assert j == V.join(system, b, a)
        assert V.join(system, a, m) == a  # absorption
        assert V.meet(system, a, j) == a
        assert V.leq(system, a, b) == (m == a) == (j == b)


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_associativity(system):
    # triples on a coarser grid: the 0.05 cube is a hundred-million checks
    pts = system_grid(system, 0.2 if system.startswith("bipolar") else 0.1)
    for a, b, c in itertools.product(pts, pts, pts):
        assert V.meet(system, a, V.meet(system, b, c)) == V.meet(system, V.meet(system, a, b), c)
        assert V.join(system, a, V.join(system, b, c)) == V.join(system, V.join(system, a, b), c)


@pytest.mark.parametrize("system", [V.FUZZY, V.IFS, V.IVS])
def test_negation_involutive_and_order_reversing(system):
    pts = system_grid(system)
    for a in pts:
        n = V.negate(system, a)
        assert V.validate(system, n) is None
        assert V.values_equal(system, V.negate(system, n), a)
    sample = pts[:: max(1, len(pts) // 40)]
    for a in sample:
        for b in sample:
            assert V.leq(system, a, b) == V.leq(system, V.negate(system, b), V.negate(system, a))


def test_rendering():
    assert V.fmt(0.8) == "0.8"
    assert V.fmt((0.8, 0.1)) == "(0.8, 0.1)"
    assert V.fmt(0.0) == "0"
    assert V.fmt(1.0) == "1"
    assert V.fmt(0.123456789) == "0.123456789"
    assert V.fmt(0.2999999999999998) == "0.3"


@given(st.floats(0, 1), st.floats(0, 1))
def test_fuzzy_meet_join_consistent(a, b):
    assert V.meet(V.FUZZY, a, b) == min(a, b)
    assert V.join(V.FUZZY, a, b) == max(a, b)
    assert V.leq(V.FUZZY, V.meet(V.FUZZY, a, b), V.join(V.FUZZY, a, b))


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
def test_pair_meet_is_glb(x1, x2, y1, y2):
    for system in (V.IFS, V.IVS):
        a, b = (x1, x2), (y1, y2)
        m = V.meet(system, a, b)
        assert V.leq(system, m, a) and V.leq(system, m, b)
        j = V.join(system, a, b)
        assert V.leq(system, a, j) and V.leq(system, b, j)
