"""Implication operators and their uncertainty-level functions.

Three fuzzy implications (godel, lukasiewicz, kleene) and their pair-valued
extensions are implemented.  For a rule with body level ``alpha`` and rule
level ``beta``, the level function returns the least head level ``gamma``
with I(alpha, gamma) >= beta, evaluated in the lattice order of the value
system; callers test with the lattice's `valid` whether it stays inside.
The closed forms are:

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

FUZZY_IMPLICATIONS = V.LATTICES[V.FUZZY].operators
IFS_IMPLICATIONS = V.LATTICES[V.IFS].operators
IVS_IMPLICATIONS = V.LATTICES[V.IVS].operators
# implications whose derived levels stay inside their system whenever the
# body level does (a body already outside it can still derive a level outside)
ALWAYS_CLOSED = FUZZY_IMPLICATIONS + ("fg2", "vg2")

ImplId = Union[str, Tuple[str, str]]

# bipolar pairs whose derived levels stay inside ifs for bodies inside it, both variants
CLOSED_BIPOLAR_PAIRS = (
    ("godel", "godel"),
    ("lukasiewicz", "lukasiewicz"),
    ("lukasiewicz", "godel"),
    ("kleene", "kleene"),
    ("lukasiewicz", "kleene"),
)


def is_compatible(impl: ImplId, system: str) -> bool:
    """Whether system declares impl among its operators."""
    try:
        return (impl, system) in LEVEL_FUNCTIONS
    except TypeError:  # an unhashable impl
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

# operator -> I(a, g), branch-exactly per the operator tables
_FUZZY_TABLE = {
    "godel": lambda a, g: 1.0 if a <= g + EPS else g,
    "lukasiewicz": lambda a, g: 1.0 if a <= g + EPS else 1.0 - a + g,
    "kleene": lambda a, g: max(1.0 - a, g),
}
_PAIR_TABLE = {
    "fk": lambda a, g: (max(a[1], g[0]), min(a[0], g[1])),
    "fl": lambda a, g: (min(1.0, a[1] + g[0]), max(0.0, a[0] + g[1] - 1.0)),
    "fg1": lambda a, g: ((1.0, 0.0) if a[0] <= g[0] + EPS else
                         (g[0], 0.0) if a[1] >= g[1] - EPS else (g[0], g[1])),
    "fg2": lambda a, g: ((1.0, 0.0) if a[0] <= g[0] + EPS and a[1] >= g[1] - EPS else
                         (g[0], g[1])),
    "vk": lambda a, g: (max(1.0 - a[1], g[0]), max(1.0 - a[0], g[1])),
    "vl": lambda a, g: (min(1.0, 1.0 - a[1] + g[0]), min(1.0, 1.0 - a[0] + g[1])),
    # branch conditions re-derived through the ifs<->ivs conversion law: the
    # middle branch fires when the consequent's upper bound already covers
    # the antecedent's (g2 >= a2)
    "vg1": lambda a, g: ((1.0, 1.0) if a[0] <= g[0] + EPS else
                         (g[0], 1.0) if g[1] >= a[1] - EPS else (g[0], g[1])),
    "vg2": lambda a, g: ((1.0, 1.0) if a[0] <= g[0] + EPS and a[1] <= g[1] + EPS else
                         (g[0], g[1])),
}


def apply_implication(impl: ImplId, system: str, alpha: V.Value, gamma: V.Value) -> V.Value:
    """Evaluate I(alpha, gamma), branch-exactly per the operator table.

    For bipolar systems the pair (I1, I2) is applied coordinate-wise, with
    the variant-b second coordinate evaluated on complemented values and
    complemented back, so the model condition reads uniformly as
    leq(system, beta, apply_implication(...)).
    """
    _require_compatible(impl, system)
    return IMPLICATIONS[(impl, system)](alpha, gamma)


# ----------------------------------------------------------------------
# Uncertainty-level functions (closed forms)
# ----------------------------------------------------------------------

# operator -> f(alpha, beta), the closed forms of the module docstring; the
# fuzzy ones with the max(0, .) clamp of the consequence transformations
_FUZZY_LEVELS = {
    "godel": lambda a, b: max(0.0, min(a, b)),
    "lukasiewicz": lambda a, b: max(0.0, a + b - 1.0),
    "kleene": lambda a, b: 0.0 if a + b <= 1.0 + EPS else max(0.0, b),
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


def _bipolar(f1, f2, complemented: bool):
    """f1 on the first coordinates of alpha and beta, f2 on the second ones;
    when complemented, on complemented values (mu' = 1 - mu), with the
    result complemented back."""
    if complemented:
        return lambda a, b: (f1(a[0], b[0]), 1.0 - f2(1.0 - a[1], 1.0 - b[1]))
    return lambda a, b: (f1(a[0], b[0]), f2(a[1], b[1]))


def _bind(impl: ImplId, lattice: V.Lattice):
    """(level function, implication) of an operator the lattice declares."""
    if isinstance(impl, tuple):
        return tuple(_bipolar(*(table[i] for i in impl), lattice.complemented)
                     for table in (_FUZZY_LEVELS, _FUZZY_TABLE))
    if len(lattice.meets) == 1:
        return _FUZZY_LEVELS[impl], _FUZZY_TABLE[impl]
    return _PAIR_LEVELS[impl], _PAIR_TABLE[impl]


_BOUND = {(impl, system): _bind(impl, lattice)
          for system, lattice in V.LATTICES.items() for impl in lattice.operators}
# (operator, system) -> its level function, bound and unchecked:
# f(alpha, beta) -> head level, tested by the caller with the lattice's valid
LEVEL_FUNCTIONS = {key: level for key, (level, _) in _BOUND.items()}
# (operator, system) -> I(alpha, gamma), bound and unchecked
IMPLICATIONS = {key: implication for key, (_, implication) in _BOUND.items()}


def bound_level(impl: ImplId, system: str):
    """The level function of one operator in one system, as in `level_fn`
    but bound once: f(alpha, beta) -> head level, with no check of its
    input or of the level; `V.Lattice.valid` tests the level.  Raises
    ValueError when impl is not valid for the system."""
    _require_compatible(impl, system)
    return LEVEL_FUNCTIONS[(impl, system)]


def level_fn(impl: ImplId, system: str, alpha: V.Value, beta: V.Value) -> LevelResult:
    """Head level for body level ``alpha`` under rule level ``beta``.

    Fuzzy results carry the max(0, .) clamp of the consequence
    transformations; a level outside the system's lattice is reported
    through closure_ok, the lattice's valid, rather than clamped.
    """
    value = bound_level(impl, system)(alpha, beta)
    return LevelResult(value, V.LATTICES[system].valid(value))


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


def always_closed(impl: ImplId) -> bool:
    """Whether the derived levels of impl stay inside its system for every
    body level inside it: the fuzzy implications, G2, and the closed bipolar
    pairs.  A body level already outside the lattice can still derive one
    outside, so the evaluator tests every derived level all the same."""
    if isinstance(impl, tuple):
        return tuple(impl) in CLOSED_BIPOLAR_PAIRS
    return impl in ALWAYS_CLOSED


def closure_check(impl: ImplId, alpha, beta) -> bool:
    """Sufficient condition for the derived level of a body level inside the
    lattice to stay inside the system.

    G2 needs no condition; the G1 gate is a1 > b1; the Kleene-Dienes and
    Lukasiewicz extensions need the body sum to dominate the rule sum (in the
    interval-valued mirror, a1 + b2 >= b1 + a2).  Fuzzy implications are
    always closed.  For a bipolar pair the condition is membership in the
    closed-pair list.  Diagnostics only; never affects evaluation.
    """
    if always_closed(impl):
        return True
    if isinstance(impl, tuple):
        return False
    if impl == "fg1" or impl == "vg1":
        return alpha[0] > beta[0] + EPS
    if impl in ("fk", "fl"):
        return alpha[0] + alpha[1] >= beta[0] + beta[1] - EPS
    if impl in ("vk", "vl"):
        return alpha[0] + beta[1] >= beta[0] + alpha[1] - EPS
    raise ValueError(f"unknown implication {impl!r}")
