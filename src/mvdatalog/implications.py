"""Implication operators and their uncertainty-level functions.

Three fuzzy implications (godel, lukasiewicz, kleene) and their pair-valued
extensions are implemented.  For a rule with body level ``alpha`` and rule
level ``beta``, the level function returns the least head level ``gamma``
with I(alpha, gamma) >= beta, evaluated in the lattice order of the value
system.  The closed forms are:

  godel        f = min(a, b)
  lukasiewicz  f = max(0, a + b - 1)
  kleene       f = 0 if a + b <= 1 else b

  fk   (max(a2,g1), min(a1,g2))          f = (0 if a2>=b1 else b1,  1 if a1<=b2 else b2)
  fl   (min(1,a2+g1), max(0,a1+g2-1))    f = (max(0, b1-a2),        min(1, 1-a1+b2))
  fg1  godel ext., first-coordinate gate f = (min(a1,b1),           max(1-a1, b2))
  fg2  godel ext., pair gate             f = (min(a1,b1),           max(a2,b2))
  vk   (max(1-a2,g1), max(1-a1,g2))      f = (0 if 1-a2>=b1 else b1, 0 if 1-a1>=b2 else b2)
  vl   (min(1,1-a2+g1), min(1,1-a1+g2))  f = (max(0, a2+b1-1),      max(0, a1+b2-1))
  vg1  godel ext., first-coordinate gate f = (min(a1,b1),           min(a1, b2))
  vg2  godel ext., pair gate             f = (min(a1,b1),           min(a2,b2))

Every closed form is checked against a brute-force grid scan over the
implication table, the test-side oracle in tests/oracle.py.

A bipolar implication is an ordered pair of fuzzy implications; variant "a"
applies them to the two coordinates independently, variant "b" evaluates the
second coordinate on complemented values (mu' = 1 - mu).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from . import values as V
from .values import EPS

FUZZY_IMPLICATIONS = ("godel", "lukasiewicz", "kleene")
IFS_IMPLICATIONS = ("fk", "fl", "fg1", "fg2")
IVS_IMPLICATIONS = ("vk", "vl", "vg1", "vg2")
# implications whose derived levels always stay inside their system
ALWAYS_CLOSED = FUZZY_IMPLICATIONS + ("fg2", "vg2")

ImplId = Union[str, Tuple[str, str]]

# bipolar pairs with guaranteed ifs closure of derived levels (both variants)
CLOSED_BIPOLAR_PAIRS = (
    ("godel", "godel"),
    ("lukasiewicz", "lukasiewicz"),
    ("lukasiewicz", "godel"),
    ("kleene", "kleene"),
    ("lukasiewicz", "kleene"),
)


def is_compatible(impl: ImplId, system: str) -> bool:
    if system == V.FUZZY:
        return impl in FUZZY_IMPLICATIONS
    if system == V.IFS:
        return impl in IFS_IMPLICATIONS
    if system == V.IVS:
        return impl in IVS_IMPLICATIONS
    if system in (V.BIPOLAR_A, V.BIPOLAR_B):
        return (
            isinstance(impl, tuple)
            and len(impl) == 2
            and impl[0] in FUZZY_IMPLICATIONS
            and impl[1] in FUZZY_IMPLICATIONS
        )
    return False


def _require_compatible(impl: ImplId, system: str) -> None:
    if not is_compatible(impl, system):
        raise ValueError(f"implication {impl!r} is not valid for the {system} system")


@dataclass(frozen=True)
class LevelResult:
    """A computed head level plus whether it satisfies the system constraint."""

    value: V.Value
    closure_ok: bool


# ----------------------------------------------------------------------
# Implication tables
# ----------------------------------------------------------------------

def _fuzzy_implication(impl: str, a: float, g: float) -> float:
    if impl == "godel":
        return 1.0 if a <= g + EPS else g
    if impl == "lukasiewicz":
        return 1.0 if a <= g + EPS else 1.0 - a + g
    if impl == "kleene":
        return max(1.0 - a, g)
    raise ValueError(f"unknown fuzzy implication {impl!r}")


def _pair_implication(impl: str, a, g):
    a1, a2 = a
    g1, g2 = g
    if impl == "fk":
        return (max(a2, g1), min(a1, g2))
    if impl == "fl":
        return (min(1.0, a2 + g1), max(0.0, a1 + g2 - 1.0))
    if impl == "fg1":
        if a1 <= g1 + EPS:
            return (1.0, 0.0)
        if a2 >= g2 - EPS:
            return (g1, 0.0)
        return (g1, g2)
    if impl == "fg2":
        if a1 <= g1 + EPS and a2 >= g2 - EPS:
            return (1.0, 0.0)
        return (g1, g2)
    if impl == "vk":
        return (max(1.0 - a2, g1), max(1.0 - a1, g2))
    if impl == "vl":
        return (min(1.0, 1.0 - a2 + g1), min(1.0, 1.0 - a1 + g2))
    if impl == "vg1":
        # branch conditions re-derived through the ifs<->ivs conversion law:
        # the middle branch fires when the consequent's upper bound already
        # covers the antecedent's (g2 >= a2)
        if a1 <= g1 + EPS:
            return (1.0, 1.0)
        if g2 >= a2 - EPS:
            return (g1, 1.0)
        return (g1, g2)
    if impl == "vg2":
        if a1 <= g1 + EPS and a2 <= g2 + EPS:
            return (1.0, 1.0)
        return (g1, g2)
    raise ValueError(f"unknown pair implication {impl!r}")


def apply_implication(impl: ImplId, system: str, alpha: V.Value, gamma: V.Value) -> V.Value:
    """Evaluate I(alpha, gamma), branch-exactly per the operator table.

    For bipolar systems the pair (I1, I2) is applied coordinate-wise, with
    the variant-b second coordinate evaluated on complemented values and
    complemented back, so the model condition reads uniformly as
    leq(system, beta, apply_implication(...)).
    """
    _require_compatible(impl, system)
    if system == V.FUZZY:
        return _fuzzy_implication(impl, alpha, gamma)
    if system in (V.IFS, V.IVS):
        return _pair_implication(impl, alpha, gamma)
    i1, i2 = impl
    c1 = _fuzzy_implication(i1, alpha[0], gamma[0])
    if system == V.BIPOLAR_A:
        c2 = _fuzzy_implication(i2, alpha[1], gamma[1])
    else:
        c2 = 1.0 - _fuzzy_implication(i2, 1.0 - alpha[1], 1.0 - gamma[1])
    return (c1, c2)


# ----------------------------------------------------------------------
# Uncertainty-level functions (closed forms)
# ----------------------------------------------------------------------

# operator -> f(alpha, beta), the closed forms of the module docstring
_FUZZY_LEVELS = {
    "godel": lambda a, b: min(a, b),
    "lukasiewicz": lambda a, b: max(0.0, a + b - 1.0),
    "kleene": lambda a, b: 0.0 if a + b <= 1.0 + EPS else b,
}
_PAIR_LEVELS = {
    "fk": lambda a, b: (0.0 if a[1] >= b[0] - EPS else b[0],
                        1.0 if a[0] <= b[1] + EPS else b[1]),
    "fl": lambda a, b: (max(0.0, b[0] - a[1]), min(1.0, 1.0 - a[0] + b[1])),
    "fg1": lambda a, b: (min(a[0], b[0]), max(1.0 - a[0], b[1])),
    "fg2": lambda a, b: (min(a[0], b[0]), max(a[1], b[1])),
    "vk": lambda a, b: (0.0 if 1.0 - a[1] >= b[0] - EPS else b[0],
                        0.0 if 1.0 - a[0] >= b[1] - EPS else b[1]),
    "vl": lambda a, b: (max(0.0, a[1] + b[0] - 1.0), max(0.0, a[0] + b[1] - 1.0)),
    "vg1": lambda a, b: (min(a[0], b[0]), min(a[0], b[1])),
    "vg2": lambda a, b: (min(a[0], b[0]), min(a[1], b[1])),
}


def _fuzzy_bound(level):
    def bound(alpha, beta):
        return max(0.0, level(alpha, beta)), True
    return bound


def _pair_bound(level, system):
    def bound(alpha, beta):
        value = level(alpha, beta)
        return value, V.validate(system, value) is None
    return bound


def _bipolar_bound(level1, level2, system):
    # variant b evaluates the second coordinate on complemented values
    # (mu' = 1 - mu) and complements the result back
    complemented = system == V.BIPOLAR_B

    def bound(alpha, beta):
        c1 = max(0.0, level1(alpha[0], beta[0]))
        if complemented:
            c2 = 1.0 - max(0.0, level2(1.0 - alpha[1], 1.0 - beta[1]))
        else:
            c2 = max(0.0, level2(alpha[1], beta[1]))
        value = (c1, c2)
        return value, V.validate(system, value) is None
    return bound


# (operator, system) -> its level function, bound and unchecked:
# f(alpha, beta) -> (head level, closure_ok)
LEVEL_FUNCTIONS = {
    **{(impl, V.FUZZY): _fuzzy_bound(f) for impl, f in _FUZZY_LEVELS.items()},
    **{(impl, system): _pair_bound(_PAIR_LEVELS[impl], system)
       for system, impls in ((V.IFS, IFS_IMPLICATIONS), (V.IVS, IVS_IMPLICATIONS))
       for impl in impls},
    **{((id1, id2), system): _bipolar_bound(_FUZZY_LEVELS[id1], _FUZZY_LEVELS[id2], system)
       for system in (V.BIPOLAR_A, V.BIPOLAR_B)
       for id1 in FUZZY_IMPLICATIONS for id2 in FUZZY_IMPLICATIONS},
}


def bound_level(impl: ImplId, system: str):
    """The level function of one operator in one system, as in `level_fn`
    but bound once: f(alpha, beta) -> (head level, closure_ok), with no
    check of its input.  Raises ValueError when impl is not valid for the
    system."""
    try:
        return LEVEL_FUNCTIONS[(impl, system)]
    except (KeyError, TypeError):
        _require_compatible(impl, system)
        raise


def level_fn(impl: ImplId, system: str, alpha: V.Value, beta: V.Value) -> LevelResult:
    """Head level for body level ``alpha`` under rule level ``beta``.

    Fuzzy results carry the max(0, .) clamp of the consequence
    transformations; pair results may violate the ifs/ivs constraint for
    non-G2 operators, which is reported through closure_ok rather than
    clamped.
    """
    return LevelResult(*bound_level(impl, system)(alpha, beta))


def bipolar_level(variant: str, id1: str, id2: str, alpha, beta) -> LevelResult:
    """Bipolar head level: two separate fuzzy level computations.

    Variant "a" applies id2 to the raw second coordinates; variant "b"
    complements them first (mu' = 1 - mu) and complements the result back.
    """
    if variant not in ("a", "b"):
        raise ValueError(f"bipolar variant must be 'a' or 'b', got {variant!r}")
    for i in (id1, id2):
        if i not in FUZZY_IMPLICATIONS:
            raise ValueError(f"bipolar implications must be fuzzy, got {i!r}")
    system = V.BIPOLAR_A if variant == "a" else V.BIPOLAR_B
    return level_fn((id1, id2), system, alpha, beta)


def closure_check(impl: ImplId, alpha, beta) -> bool:
    """Sufficient condition for the derived level to stay inside the system.

    G2 needs no condition; the G1 gate is a1 > b1; the Kleene-Dienes and
    Lukasiewicz extensions need the body sum to dominate the rule sum (in the
    interval-valued mirror, a1 + b2 >= b1 + a2).  Fuzzy implications are
    always closed.  For a bipolar pair the condition is membership in the
    closed-pair list.  Diagnostics only; never affects evaluation.
    """
    if isinstance(impl, tuple):
        return tuple(impl) in CLOSED_BIPOLAR_PAIRS
    if impl in ALWAYS_CLOSED:
        return True
    if impl == "fg1" or impl == "vg1":
        return alpha[0] > beta[0] + EPS
    if impl in ("fk", "fl"):
        return alpha[0] + alpha[1] >= beta[0] + beta[1] - EPS
    if impl in ("vk", "vl"):
        return alpha[0] + beta[1] >= beta[0] + alpha[1] - EPS
    raise ValueError(f"unknown implication {impl!r}")
