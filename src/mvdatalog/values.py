"""Truth values and their value systems.

Five value systems are supported.  A value is a plain float for the fuzzy
system and a pair (m1, m2) for the others:

  fuzzy      scalar in [0, 1]
  ifs        membership / non-membership pair, m1 + m2 <= 1
  ivs        membership interval, m1 <= m2
  bipolar_a  two independent fuzzy coordinates (order, meet, join act
             coordinate-wise like two fuzzy sets side by side)
  bipolar_b  two fuzzy coordinates with the second one evaluated on
             complemented values; its lattice ops coincide with the ifs ones

Each system is one declaration, its entry in `LATTICES`: the order of each
coordinate (its `meets`) and its negate, which define the lattice; the
constraint on its levels; its implication operators and the one its facts
carry; and, for bipolar_b, the complemented second coordinate.
Validation, operator compatibility and the operator tables read it there.

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


def _shape(lattice: Lattice, v) -> Optional[str]:
    """What a value of lattice must be when v is not: a scalar or a pair."""
    if len(lattice.meets) == 1:
        return "a scalar" if isinstance(v, tuple) else None
    return None if isinstance(v, tuple) and len(v) == 2 else "a pair"


def _checked(system: str, *values) -> Lattice:
    """The lattice of system, once system is known and each value has its
    shape (see `_shape`)."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown value system {system!r}")
    lattice = LATTICES[system]
    for v in values:
        shape = _shape(lattice, v)
        if shape is not None:
            raise ValueError(f"{system} system expects {shape}, got {v!r}")
    return lattice


def bottom(system: str) -> Value:
    return _checked(system).bottom


def top(system: str) -> Value:
    return _checked(system).top


def validate(system: str, v: Value) -> Optional[str]:
    """Return a violation description, or None when the value is valid.

    Violations are data, not faults: derived values of non-G2 operators may
    legitimately fall outside the ifs/ivs constraints and are reported as
    diagnostics by the evaluator.
    """
    lattice = _checked(system)
    shape = _shape(lattice, v)
    if shape is not None:
        return f"{system} value must be {shape}, got {v!r}"
    return None if lattice.valid(v) else _violation(lattice, v)


def validate_input(system: str, v: Value) -> Optional[str]:
    """Validity for *input* levels (facts, rule levels, proximity entries).

    Same as validate() except that bipolar inputs must additionally satisfy
    the ifs sum constraint; derived bipolar values are exempt from it.
    """
    err = validate(system, v)
    lattice = LATTICES[system]
    return err if err is not None or lattice.valid_input(v) else _violation(lattice, v)


def _violation(lattice: Lattice, v: Value) -> str:
    """Why v, a value of lattice's shape, is not valid_input in it."""
    if not isinstance(v, tuple):
        return f"value {fmt(v)} outside [0, 1]"
    if not all(-EPS <= m <= 1 + EPS for m in v):
        return f"pair {fmt(v)} has a coordinate outside [0, 1]"
    return lattice.constraint[1].format(v=fmt(v), sum=fmt_num(v[0] + v[1]))


def leq(system: str, a: Value, b: Value) -> bool:
    return _checked(system, a, b).leq(a, b)


def meet(system: str, a: Value, b: Value) -> Value:
    return _checked(system, a, b).meet(a, b)


def join(system: str, a: Value, b: Value) -> Value:
    return _checked(system, a, b).join(a, b)


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
    return _checked(system, a).negate(a)


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
    return _checked(system, a, b).equal(a, b, tol)


def is_bottom(system: str, a: Value) -> bool:
    return values_equal(system, a, bottom(system))


def lattice(system: str) -> Lattice:
    return _checked(system)


# ----------------------------------------------------------------------
# Bound lattices: the formulas behind the checked functions above, for
# callers that hold values of a known shape (every library evaluation path).
# Inputs are validated where they enter: the parser, build_kb, parse_level.
# ----------------------------------------------------------------------

# min(a, b) and max(a, b) as source: the builtins keep a on a tie, and so
# does each expression
_PICK = {"min": "{b} if {b} < {a} else {a}", "max": "{b} if {b} > {a} else {a}"}
_DUAL = {"min": "max", "max": "min"}
# a coordinate whose meet takes the min is ordered upwards, the other one
# downwards; each end and each comparison as the meet declares it
_TOP = {"min": 1.0, "max": 0.0}
_LEQ = {"min": "{a} <= {b} + " + repr(EPS), "max": "{a} >= {b} - " + repr(EPS)}


def _fuzzy_negate(a):
    return 1.0 - a


def _ifs_negate(a):
    return (a[1], a[0])


def _ivs_negate(a):
    return (1.0 - a[1], 1.0 - a[0])


def _bipolar_negate(a):
    return (1.0 - a[0], 1.0 - a[1])


class Lattice:
    """One value system, declared once, with its operations bound; none of
    them checks its input.  top, bottom, leq(a, b), meet(a, b), join(a, b),
    equal(a, b, tol=EPS), negate(a), valid(a), valid_input(a).

    meets declares, per coordinate of a value (a scalar has one), whether
    the meet takes the min or the max of that coordinate; the join takes
    the other, the order runs upwards where the meet takes the min, and top
    and bottom are the ends of that order.  leq_source, meet_source,
    join_source and equal_source write the operations from it as Python
    source over the names of the coordinates, and the bound leq, meet, join
    and equal are compiled from that source, as are the fan-out kernels
    that inline it (`kb._spread_source`: the meets of alpha, lambda_q and
    the argument lambdas, the join, the bottom and rise tests).  min(a, b) is
    written `b if b < a else a` and max(a, b) `b if b > a else a`, as the
    builtins decide ties.

    valid(a) holds when each coordinate is in [0, 1] and a meets
    constraint, up to EPS; valid_input(a), for input levels, holds it even
    when it is inputs_only.  constraint is a condition over the coordinates
    a0, a1 of a pair, as source, and the message of a pair that breaks it
    ({v} the pair, {sum} m1 + m2).  operators are the system's implication
    operators, fact_impl the one facts carry, and complemented marks a
    bipolar second coordinate read on complemented values (`implications`)."""

    __slots__ = ("meets", "negate", "operators", "fact_impl", "constraint", "complemented",
                 "top", "bottom", "leq", "meet", "join", "equal", "valid", "valid_input")

    def __init__(self, meets, negate, operators, fact_impl, constraint=None,
                 inputs_only=False, complemented=False):
        self.meets = meets
        self.negate = negate
        self.operators = operators
        self.fact_impl = fact_impl
        self.constraint = constraint
        self.complemented = complemented
        top = tuple(_TOP[op] for op in meets)
        bottom = tuple(_TOP[_DUAL[op]] for op in meets)
        self.top, self.bottom = (top, bottom) if len(meets) > 1 else (top[0], bottom[0])
        a, b = self.coordinates("a"), self.coordinates("b")
        unpack = f"    {self.value_source(a)}, {self.value_source(b)} = a, b\n"
        source = "".join(
            f"def {name}(a, b{extra}):\n{unpack}    return {body}\n"
            for name, extra, body in (
                ("leq", "", self.leq_source(a, b)),
                ("meet", "", self.value_source(self.meet_source(a, b))),
                ("join", "", self.value_source(self.join_source(a, b))),
                ("equal", f", tol={EPS!r}", self.equal_source(a, b, "tol"))))
        inside = [f"{-EPS!r} <= {x} <= 1 + {EPS!r}" for x in a]
        held = [constraint[0]] if constraint else []
        source += "".join(
            f"def {name}(a):\n    {self.value_source(a)} = a\n    return {' and '.join(body)}\n"
            for name, body in (("valid", inside + ([] if inputs_only else held)),
                               ("valid_input", inside + held)))
        namespace = {}
        exec(compile(source, "<lattice>", "exec"), namespace)
        self.leq, self.meet = namespace["leq"], namespace["meet"]
        self.join, self.equal = namespace["join"], namespace["equal"]
        self.valid, self.valid_input = namespace["valid"], namespace["valid_input"]

    def is_bottom(self, a: Value) -> bool:
        return self.equal(a, self.bottom)

    def coordinates(self, name: str) -> list:
        """The names of the locals that hold the coordinates of a value."""
        return [f"{name}{i}" for i in range(len(self.meets))]

    @staticmethod
    def value_source(coordinates) -> str:
        """The source of a value from (or a target for) its coordinates."""
        return coordinates[0] if len(coordinates) == 1 else f"({', '.join(coordinates)})"

    def leq_source(self, a, b) -> str:
        """The source of leq(a, b), where a and b name the coordinates of
        the operands."""
        return " and ".join(_LEQ[op].format(a=x, b=y) for op, x, y in zip(self.meets, a, b))

    def meet_source(self, a, b) -> list:
        """The source of each coordinate of meet(a, b), as leq_source."""
        return [_PICK[op].format(a=x, b=y) for op, x, y in zip(self.meets, a, b)]

    def join_source(self, a, b) -> list:
        """The source of each coordinate of join(a, b), as leq_source."""
        return [_PICK[_DUAL[op]].format(a=x, b=y) for op, x, y in zip(self.meets, a, b)]

    def equal_source(self, a, b, tol: str) -> str:
        """The source of equal(a, b, tol), as leq_source, where tol is the
        source of the tolerance."""
        return " and ".join(f"abs({x} - {y}) <= {tol}" for x, y in zip(a, b))


_FUZZY_OPERATORS = ("godel", "lukasiewicz", "kleene")
_BIPOLAR_OPERATORS = tuple((a, b) for a in _FUZZY_OPERATORS for b in _FUZZY_OPERATORS)
_SUM = f"a0 + a1 <= 1 + {EPS!r}"
_BIPOLAR_INPUT = (_SUM, "bipolar input {v} violates m1 + m2 <= 1 (sum {sum})")

LATTICES = {
    FUZZY: Lattice(("min",), _fuzzy_negate, _FUZZY_OPERATORS, "godel"),
    IFS: Lattice(("min", "max"), _ifs_negate, ("fk", "fl", "fg1", "fg2"), "fg2",
                 (_SUM, "ifs pair {v} violates m1 + m2 <= 1 (sum {sum})")),
    IVS: Lattice(("min", "min"), _ivs_negate, ("vk", "vl", "vg1", "vg2"), "vg2",
                 (f"a0 <= a1 + {EPS!r}", "ivs pair {v} violates m1 <= m2")),
    BIPOLAR_A: Lattice(("min", "min"), _bipolar_negate, _BIPOLAR_OPERATORS, ("godel", "godel"),
                       _BIPOLAR_INPUT, inputs_only=True),
    BIPOLAR_B: Lattice(("min", "max"), _bipolar_negate, _BIPOLAR_OPERATORS, ("godel", "godel"),
                       _BIPOLAR_INPUT, inputs_only=True, complemented=True),
}


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
