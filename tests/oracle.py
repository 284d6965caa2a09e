"""Brute-force oracle for the uncertainty-level functions (test code).

The oracle never looks at the closed forms in `mvdatalog.implications`; it
evaluates the implication table on a gamma grid and extremizes.  Pair
tables are re-stated as numpy expressions so a whole grid can be scanned
per call; test suites cross-check the numpy tables against the scalar
ones.  The per-alpha scan curves are cached, which makes whole-grid
agreement sweeps cheap without changing any single oracle answer.

For pairs, the first coordinate takes the least g1 reaching beta1 with the
other coordinate free over the valid sub-grid, the second coordinate the
extremal g2 satisfying its own condition likewise (max for the ifs-like
order, min for the ivs-like one).
"""

from functools import lru_cache

import numpy as np

from mvdatalog import values as V
from mvdatalog.implications import ImplId, _require_compatible
from mvdatalog.values import EPS


def _grid(step: float) -> np.ndarray:
    n = int(round(1.0 / step))
    return np.round(np.linspace(0.0, 1.0, n + 1), 12)


def _fuzzy_implication_np(impl: str, a: float, g: np.ndarray) -> np.ndarray:
    if impl == "godel":
        return np.where(a <= g + EPS, 1.0, g)
    if impl == "lukasiewicz":
        return np.where(a <= g + EPS, 1.0, 1.0 - a + g)
    if impl == "kleene":
        return np.maximum(1.0 - a, g)
    raise ValueError(f"unknown fuzzy implication {impl!r}")


# ids whose I1 depends only on gamma1 and I2 only on gamma2; a partner
# coordinate of 0 or 1 always completes a valid pair, so their scan curves
# reduce to one dimension
_DECOUPLED = ("fk", "fl", "vk", "vl")


def _pair_implication_np(impl: str, a, g1, g2):
    """Implication table over gamma arrays; broadcasts like g1 op g2."""
    a1, a2 = a
    if impl == "fk":
        return np.maximum(a2, g1), np.minimum(a1, g2)
    if impl == "fl":
        return np.minimum(1.0, a2 + g1), np.maximum(0.0, a1 + g2 - 1.0)
    if impl == "fg1":
        case_a = a1 <= g1 + EPS
        case_b = ~case_a & (a2 >= g2 - EPS)
        return np.where(case_a, 1.0, g1), np.where(case_a | case_b, 0.0, g2)
    if impl == "fg2":
        case_a = (a1 <= g1 + EPS) & (a2 >= g2 - EPS)
        return np.where(case_a, 1.0, g1), np.where(case_a, 0.0, g2)
    if impl == "vk":
        return np.maximum(1.0 - a2, g1), np.maximum(1.0 - a1, g2)
    if impl == "vl":
        return np.minimum(1.0, 1.0 - a2 + g1), np.minimum(1.0, 1.0 - a1 + g2)
    if impl == "vg1":
        case_a = a1 <= g1 + EPS
        case_b = ~case_a & (g2 >= a2 - EPS)
        return np.where(case_a, 1.0, g1), np.where(case_a | case_b, 1.0, g2)
    if impl == "vg2":
        case_a = (a1 <= g1 + EPS) & (a2 <= g2 + EPS)
        return np.where(case_a, 1.0, g1), np.where(case_a, 1.0, g2)
    raise ValueError(f"unknown pair implication {impl!r}")


@lru_cache(maxsize=8)
def _valid_mask(system: str, step: float):
    g = _grid(step)
    if system == V.IFS:
        return g[:, None] + g[None, :] <= 1.0 + EPS
    return g[:, None] <= g[None, :] + EPS


@lru_cache(maxsize=4096)
def _pair_oracle_curves(impl: str, system: str, alpha, step: float):
    """Reduce the 2-D gamma grid to two 1-D threshold curves for one alpha.

    m1[i] = best reachable I1 at gamma1 = grid[i] over valid gamma2
    m2[j] = extremal I2 at gamma2 = grid[j] over valid gamma1
            (min for ifs: the condition is I2 <= b2; max for ivs: I2 >= b2)
    Both curves are nondecreasing, so thresholding them is a searchsorted.
    For the decoupled ids the meshes collapse to one dimension.
    """
    g = _grid(step)
    if impl in _DECOUPLED:
        i1, i2 = _pair_implication_np(impl, alpha, g, g)
        return g, i1, i2
    g1 = g[:, None]
    g2 = g[None, :]
    valid = _valid_mask(system, step)
    i1, i2 = _pair_implication_np(impl, alpha, g1, g2)
    i1 = np.broadcast_to(i1, valid.shape)
    i2 = np.broadcast_to(i2, valid.shape)
    m1 = np.max(i1, axis=1, where=valid, initial=-np.inf)
    if system == V.IFS:
        m2 = np.min(i2, axis=0, where=valid, initial=np.inf)
    else:
        m2 = np.max(i2, axis=0, where=valid, initial=-np.inf)
    return g, m1, m2


def _pair_oracle_from_curves(system: str, g, m1, m2, beta):
    b1, b2 = beta
    idx1 = int(np.searchsorted(m1, b1 - 1e-9, side="left"))
    f1 = g[idx1] if idx1 < len(g) else 0.0  # empty satisfying set: clamp to bottom coord
    if system == V.IFS:
        idx2 = int(np.searchsorted(m2, b2 + 1e-9, side="right")) - 1
        f2 = g[idx2] if idx2 >= 0 else 0.0
    else:
        idx2 = int(np.searchsorted(m2, b2 - 1e-9, side="left"))
        f2 = g[idx2] if idx2 < len(g) else 0.0
    return (float(f1), float(f2))


def oracle_level_fn(impl: ImplId, system: str, alpha: V.Value, beta: V.Value,
                    step: float = 0.001) -> V.Value:
    """Grid realization of the least gamma with I(alpha, gamma) >= beta.

    Fuzzy: scan the gamma grid upward, return the first hit (bottom-clamped
    when nothing qualifies, which cannot happen for the three operators).
    Pairs: scan the valid sub-grid coordinate-wise in the lattice order, see
    _pair_oracle_curves.  Bipolar: compose the fuzzy scans per variant.
    """
    if not (0.0 < step <= 0.01):
        raise ValueError("oracle step must be in (0, 0.01]")
    _require_compatible(impl, system)
    if system == V.FUZZY:
        return _fuzzy_oracle(impl, alpha, beta, step)
    if system in (V.IFS, V.IVS):
        g, m1, m2 = _pair_oracle_curves(impl, system, alpha, step)
        return _pair_oracle_from_curves(system, g, m1, m2, beta)
    i1, i2 = impl
    c1 = _fuzzy_oracle(i1, alpha[0], beta[0], step)
    if system == V.BIPOLAR_A:
        c2 = _fuzzy_oracle(i2, alpha[1], beta[1], step)
    else:
        c2 = 1.0 - _fuzzy_oracle(i2, 1.0 - alpha[1], 1.0 - beta[1], step)
    return (c1, c2)


def oracle_level_many(impl: ImplId, system: str, alpha: V.Value, betas, step: float = 0.001):
    """oracle_level_fn for one alpha and many betas, computing the scan
    curves once and thresholding each coordinate with one searchsorted.
    Answers are identical to per-beta oracle_level_fn calls."""
    if not (0.0 < step <= 0.01):
        raise ValueError("oracle step must be in (0, 0.01]")
    _require_compatible(impl, system)
    if system == V.FUZZY:
        return _fuzzy_oracle_many(impl, alpha, betas, step)
    if system in (V.IFS, V.IVS):
        g, m1, m2 = _pair_oracle_curves(impl, system, alpha, step)
        b1 = np.array([b[0] for b in betas])
        b2 = np.array([b[1] for b in betas])
        idx1 = np.searchsorted(m1, b1 - 1e-9, side="left")
        f1 = np.where(idx1 < len(g), g[np.minimum(idx1, len(g) - 1)], 0.0)
        if system == V.IFS:
            idx2 = np.searchsorted(m2, b2 + 1e-9, side="right") - 1
            f2 = np.where(idx2 >= 0, g[np.maximum(idx2, 0)], 0.0)
        else:
            idx2 = np.searchsorted(m2, b2 - 1e-9, side="left")
            f2 = np.where(idx2 < len(g), g[np.minimum(idx2, len(g) - 1)], 0.0)
        return [(float(x), float(y)) for x, y in zip(f1, f2)]
    i1, i2 = impl
    c1 = _fuzzy_oracle_many(i1, alpha[0], [b[0] for b in betas], step)
    if system == V.BIPOLAR_A:
        c2 = _fuzzy_oracle_many(i2, alpha[1], [b[1] for b in betas], step)
    else:
        c2 = [1.0 - c for c in
              _fuzzy_oracle_many(i2, 1.0 - alpha[1], [1.0 - b[1] for b in betas], step)]
    return list(zip(c1, c2))


@lru_cache(maxsize=4096)
def _fuzzy_oracle_curve(impl: str, alpha: float, step: float):
    g = _grid(step)
    return g, _fuzzy_implication_np(impl, alpha, g)


def _fuzzy_oracle(impl: str, alpha: float, beta: float, step: float) -> float:
    g, vals = _fuzzy_oracle_curve(impl, alpha, step)
    # the implication value is nondecreasing in gamma for all three operators
    idx = int(np.searchsorted(vals, beta - 1e-9, side="left"))
    if idx >= len(g):
        return 0.0
    return max(0.0, float(g[idx]))


def _fuzzy_oracle_many(impl: str, alpha: float, betas, step: float) -> list:
    """_fuzzy_oracle for one alpha and many betas, with one searchsorted."""
    g, vals = _fuzzy_oracle_curve(impl, alpha, step)
    idx = np.searchsorted(vals, np.array(betas, dtype=float) - 1e-9, side="left")
    return [0.0 if i >= len(g) else max(0.0, float(g[i])) for i in idx]
