"""Truth values and their lattices.

Five value systems are supported.  A value is a plain float for the fuzzy
system and a pair (m1, m2) for the others:

  fuzzy      scalar in [0, 1]
  ifs        membership / non-membership pair, m1 + m2 <= 1
  ivs        membership interval, m1 <= m2
  bipolar_a  two independent fuzzy coordinates (order, meet, join act
             coordinate-wise like two fuzzy sets side by side)
  bipolar_b  two fuzzy coordinates with the second one evaluated on
             complemented values; its lattice ops coincide with the ifs ones

Bipolar *inputs* (fact levels, rule levels, proximity entries) must satisfy
the ifs sum constraint, but derived bipolar values are only required to stay
inside [0, 1] per coordinate.  All comparisons use an absolute tolerance of
EPS = 1e-9; values are immutable and safe to share.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

EPS = 1e-9

FUZZY = "fuzzy"
IFS = "ifs"
IVS = "ivs"
BIPOLAR_A = "bipolar_a"
BIPOLAR_B = "bipolar_b"

SYSTEMS = (FUZZY, IFS, IVS, BIPOLAR_A, BIPOLAR_B)

Value = Union[float, Tuple[float, float]]


def _check_system(system: str) -> None:
    if system not in SYSTEMS:
        raise ValueError(f"unknown value system {system!r}")


def _check_shape(system: str, v: Value) -> None:
    """Reject values whose shape does not fit the system (scalar vs pair)."""
    if system == FUZZY:
        if isinstance(v, tuple):
            raise ValueError(f"fuzzy system expects a scalar, got {v!r}")
    else:
        if not (isinstance(v, tuple) and len(v) == 2):
            raise ValueError(f"{system} system expects a pair, got {v!r}")


def bottom(system: str) -> Value:
    _check_system(system)
    return LATTICES[system].bottom


def top(system: str) -> Value:
    _check_system(system)
    return LATTICES[system].top


def validate(system: str, v: Value) -> Optional[str]:
    """Return a violation description, or None when the value is valid.

    Violations are data, not faults: derived values of non-G2 operators may
    legitimately fall outside the ifs/ivs constraints and are reported as
    diagnostics by the evaluator.
    """
    _check_system(system)
    if system == FUZZY:
        if isinstance(v, tuple):
            return f"fuzzy value must be a scalar, got {v!r}"
        if not (-EPS <= v <= 1 + EPS):
            return f"value {fmt(v)} outside [0, 1]"
        return None
    if not (isinstance(v, tuple) and len(v) == 2):
        return f"{system} value must be a pair, got {v!r}"
    m1, m2 = v
    if not (-EPS <= m1 <= 1 + EPS) or not (-EPS <= m2 <= 1 + EPS):
        return f"pair {fmt(v)} has a coordinate outside [0, 1]"
    if system == IFS and m1 + m2 > 1 + EPS:
        return f"ifs pair {fmt(v)} violates m1 + m2 <= 1 (sum {fmt_num(m1 + m2)})"
    if system == IVS and m1 > m2 + EPS:
        return f"ivs pair {fmt(v)} violates m1 <= m2"
    return None


def validate_input(system: str, v: Value) -> Optional[str]:
    """Validity for *input* levels (facts, rule levels, proximity entries).

    Same as validate() except that bipolar inputs must additionally satisfy
    the ifs sum constraint; derived bipolar values are exempt from it.
    """
    err = validate(system, v)
    if err is not None:
        return err
    if system in (BIPOLAR_A, BIPOLAR_B):
        m1, m2 = v
        if m1 + m2 > 1 + EPS:
            return f"bipolar input {fmt(v)} violates m1 + m2 <= 1 (sum {fmt_num(m1 + m2)})"
    return None


def leq(system: str, a: Value, b: Value) -> bool:
    _check_system(system)
    _check_shape(system, a)
    _check_shape(system, b)
    return LATTICES[system].leq(a, b)


def meet(system: str, a: Value, b: Value) -> Value:
    _check_system(system)
    _check_shape(system, a)
    _check_shape(system, b)
    return LATTICES[system].meet(a, b)


def join(system: str, a: Value, b: Value) -> Value:
    _check_system(system)
    _check_shape(system, a)
    _check_shape(system, b)
    return LATTICES[system].join(a, b)


def meet_all(system: str, values) -> Value:
    out = top(system)
    for v in values:
        out = meet(system, out, v)
    return out


def negate(system: str, a: Value) -> Value:
    """Complement of a value.

    fuzzy: 1 - m.  ifs: coordinate swap.  ivs: interval reflection.
    bipolar: 1 - m per coordinate (each coordinate is negated inside its own
    fuzzy evaluation; for variant b this is the complemented-space negation).
    """
    _check_system(system)
    _check_shape(system, a)
    return LATTICES[system].negate(a)


def ifs_to_ivs(a: Value) -> Value:
    """Map an ifs pair to the order-isomorphic ivs pair (m1, 1 - m2)."""
    err = validate(IFS, a)
    if err is not None:
        raise ValueError(f"ifs_to_ivs: {err}")
    return (a[0], 1.0 - a[1])


def ivs_to_ifs(a: Value) -> Value:
    """Inverse of ifs_to_ivs."""
    err = validate(IVS, a)
    if err is not None:
        raise ValueError(f"ivs_to_ifs: {err}")
    return (a[0], 1.0 - a[1])


def values_equal(system: str, a: Value, b: Value, tol: float = EPS) -> bool:
    _check_system(system)
    _check_shape(system, a)
    _check_shape(system, b)
    return LATTICES[system].equal(a, b, tol)


def is_bottom(system: str, a: Value) -> bool:
    return values_equal(system, a, bottom(system))


# ----------------------------------------------------------------------
# Bound lattices: the formulas behind the checked functions above, for
# callers that hold values of a known shape (the evaluator's inner loops).
# Inputs are validated where they enter: the parser, build_kb, parse_level.
# ----------------------------------------------------------------------

def _scalar_equal(a: float, b: float, tol: float = EPS) -> bool:
    return abs(a - b) <= tol


def _pair_equal(a, b, tol: float = EPS) -> bool:
    return abs(a[0] - b[0]) <= tol and abs(a[1] - b[1]) <= tol


def _scalar_leq(a: float, b: float) -> bool:
    return a <= b + EPS


# ifs and bipolar_b order pairs "first coordinate up, second coordinate
# down"; ivs and bipolar_a order them coordinate-wise "up, up"
def _ifs_leq(a, b) -> bool:
    return a[0] <= b[0] + EPS and a[1] >= b[1] - EPS


def _ivs_leq(a, b) -> bool:
    return a[0] <= b[0] + EPS and a[1] <= b[1] + EPS


def _ifs_meet(a, b):
    return (min(a[0], b[0]), max(a[1], b[1]))


def _ifs_join(a, b):
    return (max(a[0], b[0]), min(a[1], b[1]))


def _ivs_meet(a, b):
    return (min(a[0], b[0]), min(a[1], b[1]))


def _ivs_join(a, b):
    return (max(a[0], b[0]), max(a[1], b[1]))


def _fuzzy_negate(a):
    return 1.0 - a


def _ifs_negate(a):
    return (a[1], a[0])


def _ivs_negate(a):
    return (1.0 - a[1], 1.0 - a[0])


def _bipolar_negate(a):
    return (1.0 - a[0], 1.0 - a[1])


# min(a, b) and max(a, b) as source: the builtins keep a on a tie, and so
# does each expression
_PICK = {"min": "{b} if {b} < {a} else {a}", "max": "{b} if {b} > {a} else {a}"}
_DUAL = {"min": "max", "max": "min"}


class Lattice:
    """One value system's lattice with its operations bound; none of them
    checks its input.  leq(a, b), meet(a, b), join(a, b), equal(a, b,
    tol=EPS), negate(a).

    meets declares, per coordinate of a value (a scalar has one), whether
    the meet takes the min or the max of that coordinate; the join takes
    the other.  meet_source, join_source and equal_source write meet, join
    and equal from it as Python source over the names of the coordinates,
    for the kernels compiled from it (`kb._spread_kernel`).  They give what
    the bound operations give, ties included: min(a, b) is written
    `b if b < a else a` and max(a, b) `b if b > a else a`, as the builtins
    decide, and equal is `abs(a - b) <= tol` per coordinate."""

    __slots__ = ("top", "bottom", "leq", "meet", "join", "equal", "negate", "meets")

    def __init__(self, top: Value, bottom: Value, leq, meet, join, equal, negate, meets):
        self.top = top
        self.bottom = bottom
        self.leq = leq
        self.meet = meet
        self.join = join
        self.equal = equal
        self.negate = negate
        self.meets = meets

    def is_bottom(self, a: Value) -> bool:
        return self.equal(a, self.bottom)

    def meet_source(self, a, b) -> list:
        """The source of each coordinate of meet(a, b), where a and b name
        the coordinates of the operands."""
        return [_PICK[op].format(a=x, b=y) for op, x, y in zip(self.meets, a, b)]

    def join_source(self, a, b) -> list:
        """The source of each coordinate of join(a, b), as meet_source."""
        return [_PICK[_DUAL[op]].format(a=x, b=y) for op, x, y in zip(self.meets, a, b)]

    def equal_source(self, a, b, tol: float = EPS) -> str:
        """The source of equal(a, b, tol), as meet_source."""
        return " and ".join(f"abs({x} - {y}) <= {tol!r}" for x, y in zip(a, b))


LATTICES = {
    FUZZY: Lattice(1.0, 0.0, _scalar_leq, min, max, _scalar_equal, _fuzzy_negate, ("min",)),
    IFS: Lattice((1.0, 0.0), (0.0, 1.0), _ifs_leq, _ifs_meet, _ifs_join, _pair_equal,
                 _ifs_negate, ("min", "max")),
    BIPOLAR_B: Lattice((1.0, 0.0), (0.0, 1.0), _ifs_leq, _ifs_meet, _ifs_join, _pair_equal,
                       _bipolar_negate, ("min", "max")),
    IVS: Lattice((1.0, 1.0), (0.0, 0.0), _ivs_leq, _ivs_meet, _ivs_join, _pair_equal,
                 _ivs_negate, ("min", "min")),
    BIPOLAR_A: Lattice((1.0, 1.0), (0.0, 0.0), _ivs_leq, _ivs_meet, _ivs_join, _pair_equal,
                       _bipolar_negate, ("min", "min")),
}


def lattice(system: str) -> Lattice:
    _check_system(system)
    return LATTICES[system]


# ----------------------------------------------------------------------
# Textual rendering: fuzzy `0.8`, pair `(0.8, 0.1)`, up to 9 decimals.
# ----------------------------------------------------------------------

def fmt_num(x: float) -> str:
    s = f"{x:.9f}".rstrip("0").rstrip(".")
    return s if s not in ("", "-0") else "0"


def fmt(v: Value) -> str:
    if isinstance(v, tuple):
        return f"({fmt_num(v[0])}, {fmt_num(v[1])})"
    return fmt_num(v)
