import itertools
import re

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


# the constraints of the module docstring, written out: each coordinate in
# [0, 1]; an ifs pair has m1 + m2 <= 1 and an ivs pair m1 <= m2; a bipolar
# input has m1 + m2 <= 1, a derived bipolar value need not; all up to EPS
def _inside(v):
    return all(-V.EPS <= m <= 1 + V.EPS for m in (v if isinstance(v, tuple) else (v,)))


def _declared_valid(system, v):
    if system == V.IFS:
        return _inside(v) and v[0] + v[1] <= 1 + V.EPS
    if system == V.IVS:
        return _inside(v) and v[0] <= v[1] + V.EPS
    return _inside(v)


def _declared_valid_input(system, v):
    if system in (V.BIPOLAR_A, V.BIPOLAR_B):
        return _declared_valid(system, v) and v[0] + v[1] <= 1 + V.EPS
    return _declared_valid(system, v)


def _validity_grid(system):
    """Coordinates at 0, 1, 2 EPS and EPS / 2 past each bound, inside, and
    NaN; for pairs, also each constraint's edge m1 + m2 = 1 and m1 = m2,
    and 2 EPS and EPS / 2 to either side of it."""
    eps = V.EPS
    coords = [0.0, 1.0, -2 * eps, -eps / 2, 1 + 2 * eps, 1 + eps / 2, 0.3, 0.7, float("nan")]
    if system == V.FUZZY:
        return coords
    offsets = (-2 * eps, -eps / 2, 0.0, eps / 2, 2 * eps)
    return (list(itertools.product(coords, coords))
            + [(m, 1.0 - m + d) for m in (0.0, 0.3, 0.5, 1.0) for d in offsets]
            + [(m + d, m) for m in (0.0, 0.4, 1.0) for d in offsets])


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_validity_follows_the_declared_constraints(system):
    lattice = V.LATTICES[system]
    verdicts = set()
    for v in _validity_grid(system):
        expected = _declared_valid(system, v)
        assert (V.validate(system, v) is None) == lattice.valid(v) == expected, v
        assert ((V.validate_input(system, v) is None) == lattice.valid_input(v)
                == _declared_valid_input(system, v)), v
        verdicts.add((expected, _declared_valid_input(system, v)))
    assert (True, True) in verdicts and (False, False) in verdicts
    if system.startswith("bipolar"):
        assert (True, False) in verdicts


# the lattices as the module docstring defines them, written with the
# builtins: ifs and bipolar_b order pairs "first coordinate up, second
# coordinate down", ivs and bipolar_a order them coordinate-wise "up, up"
TOP = {V.FUZZY: 1.0, V.IFS: (1.0, 0.0), V.IVS: (1.0, 1.0),
       V.BIPOLAR_A: (1.0, 1.0), V.BIPOLAR_B: (1.0, 0.0)}
BOTTOM = {V.FUZZY: 0.0, V.IFS: (0.0, 1.0), V.IVS: (0.0, 0.0),
          V.BIPOLAR_A: (0.0, 0.0), V.BIPOLAR_B: (0.0, 1.0)}


def _up_down_leq(a, b):
    return a[0] <= b[0] + V.EPS and a[1] >= b[1] - V.EPS


def _up_up_leq(a, b):
    return a[0] <= b[0] + V.EPS and a[1] <= b[1] + V.EPS


def _up_down_meet(a, b):
    return (min(a[0], b[0]), max(a[1], b[1]))


def _up_down_join(a, b):
    return (max(a[0], b[0]), min(a[1], b[1]))


def _up_up_meet(a, b):
    return (min(a[0], b[0]), min(a[1], b[1]))


def _up_up_join(a, b):
    return (max(a[0], b[0]), max(a[1], b[1]))


def _pair_equal(a, b, tol):
    return abs(a[0] - b[0]) <= tol and abs(a[1] - b[1]) <= tol


LEQ = {V.FUZZY: lambda a, b: a <= b + V.EPS, V.IFS: _up_down_leq, V.IVS: _up_up_leq,
       V.BIPOLAR_A: _up_up_leq, V.BIPOLAR_B: _up_down_leq}
MEET = {V.FUZZY: min, V.IFS: _up_down_meet, V.IVS: _up_up_meet,
        V.BIPOLAR_A: _up_up_meet, V.BIPOLAR_B: _up_down_meet}
JOIN = {V.FUZZY: max, V.IFS: _up_down_join, V.IVS: _up_up_join,
        V.BIPOLAR_A: _up_up_join, V.BIPOLAR_B: _up_down_join}
EQUAL = {system: _pair_equal for system in ALL_SYSTEMS}
EQUAL[V.FUZZY] = lambda a, b, tol: abs(a - b) <= tol


def _written(lattice, source):
    """The function of two values whose result is the source that lattice
    writes over their coordinates."""
    n = len(lattice.meets)
    a, b = [f"a{i}" for i in range(n)], [f"b{i}" for i in range(n)]
    result = source(a, b)
    if not isinstance(result, str):
        result = result[0] if n == 1 else f"({', '.join(result)})"
    unpack = "a0, b0" if n == 1 else f"({', '.join(a)}), ({', '.join(b)})"
    namespace = {}
    exec(f"def written(a, b):\n    {unpack} = a, b\n    return {result}\n", namespace)
    return namespace["written"]


# ties, the ends, -0.0 (a tie with 0.0 that the builtins resolve by operand
# order), just above the top, and near-ties inside and outside each tolerance
COORDINATES = (0.0, -0.0, 0.3, 0.5, 0.5 + 1e-13, 0.5 + 1e-10, 0.5 + 1e-8, 1.0, 1.0 + 1e-10)


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_written_formulas_are_the_lattice(system):
    """The bound top, bottom, leq, meet, join and equal, and the source that
    `Lattice` writes for them (the compiled fan-out's inline formulas),
    give what the spec above gives, to the sign of a zero."""
    lattice = V.LATTICES[system]
    assert repr(lattice.top) == repr(TOP[system])
    assert repr(lattice.bottom) == repr(BOTTOM[system])
    ops = {"leq": (LEQ[system], lattice.leq, _written(lattice, lattice.leq_source)),
           "meet": (MEET[system], lattice.meet, _written(lattice, lattice.meet_source)),
           "join": (JOIN[system], lattice.join, _written(lattice, lattice.join_source))}
    equal = {tol: _written(lattice, lambda a, b, tol=tol: lattice.equal_source(a, b, repr(tol)))
             for tol in (V.EPS, 1e-12, 0.1)}
    values = (list(COORDINATES) if system == V.FUZZY else
              list(itertools.product(COORDINATES, COORDINATES)))
    for a, b in itertools.product(values, values):
        for name, (spec, bound, written) in ops.items():
            expected = repr(spec(a, b))
            assert repr(bound(a, b)) == expected == repr(written(a, b)), (name, a, b)
        for tol, written in equal.items():
            expected = EQUAL[system](a, b, tol)
            assert lattice.equal(a, b, tol) == expected == written(a, b), (a, b, tol)
        assert lattice.equal(a, b) == EQUAL[system](a, b, V.EPS)


def test_conversion_cases():
    assert V.ifs_to_ivs((0.6, 0.3)) == (0.6, 0.7)
    assert V.ifs_to_ivs((0.0, 1.0)) == (0.0, 0.0)
    assert V.ivs_to_ifs(V.ifs_to_ivs((0.42, 0.56))) == (0.42, 0.56)
    with pytest.raises(ValueError):
        V.ifs_to_ivs((0.8, 0.3))
    message = "ivs_to_ifs: ivs pair (0.8, 0.3) violates m1 <= m2"
    with pytest.raises(ValueError, match=re.escape(message)):
        V.ivs_to_ifs((0.8, 0.3))


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
