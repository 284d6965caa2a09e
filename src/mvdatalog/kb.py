"""Background knowledge: proximity relations and the modified consequence.

A proximity relation is a reflexive, symmetric multivalued relation on
constants or on predicate symbols (a transitive one is a similarity).  A
knowledge base couples a program with two proximity relations and a
function set assigning each head functor a kb-extended uncertainty
function.  The modified transformation derives, for every applicable rule
head p(t1..tn) with level a, the synonym atoms q(s1..sn) at level
phi_p(a, lambda_q, lambda_s1, .., lambda_sn) for every q in the proximity
set of p and every s_i in the proximity set of t_i; facts take part as
empty-body rules, so the fact base itself is proximity-expanded.

Proximity file grammar (UTF-8, `#` comments):

    proxfile  := header? section+
    header    := "%system" systag "."
    section   := "%domain" ("terms"|"predicates") "." entry*
    entry     := ident "~" ident "=" level "."

Function-set file: lines `phi ident "/" arity "=" ("meet"|"meet-product"|"product") "."`.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from . import values as V
from .lang import ParseError, Program, _Parser, _SYSTEM_NAMES, ground
from .engine import EvalOrder, FixpointReport, Interpretation, _evaluate, _fired, _on_objects

PHI_MEET = "meet"
PHI_MEET_PRODUCT = "meet_product"
PHI_PRODUCT = "product"
_PHI_FILE_NAMES = {"meet": PHI_MEET, "meet-product": PHI_MEET_PRODUCT, "product": PHI_PRODUCT}


@dataclass
class ProximityRelation:
    """Symmetric map (symbol, symbol) -> value; diagonal is implicitly top."""

    domain: str                      # "terms" | "predicates"
    system: Optional[str] = None
    pairs: dict = field(default_factory=dict)   # canonical (min, max) key
    symbols: set = field(default_factory=set)
    # symbol -> {other symbol: value}, in pair insertion order; mirrors pairs
    neighbours: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.reindex()

    @staticmethod
    def _key(a: str, b: str):
        return (a, b) if a <= b else (b, a)

    def reindex(self) -> None:
        """Rebuild the neighbour map; call after replacing pairs."""
        self.neighbours = {}
        for (a, b), v in self.pairs.items():
            self.neighbours.setdefault(a, {})[b] = v
            self.neighbours.setdefault(b, {})[a] = v

    def set_pair(self, a: str, b: str, value) -> None:
        self.symbols.add(a)
        self.symbols.add(b)
        if a == b:
            return  # reflexive entries are implicit and fixed at top
        self.pairs[self._key(a, b)] = value
        # an overwritten pair keeps its place, in pairs and here alike
        self.neighbours.setdefault(a, {})[b] = value
        self.neighbours.setdefault(b, {})[a] = value

    def value_of(self, a: str, b: str, system: str):
        if a == b:
            return V.top(system)
        return self.pairs.get(self._key(a, b), V.bottom(system))


def validate_proximity(rel: ProximityRelation, system: str):
    """Stored off-diagonal values must be valid for the system; reflexivity
    is implicit (explicit non-top diagonal entries are rejected at parse
    time) and symmetry is enforced by the canonical pair key."""
    problems = []
    for (a, b), v in rel.pairs.items():
        err = V.validate_input(system, v)
        if err is not None:
            problems.append(f"proximity {a} ~ {b}: {err}")
    return problems


def is_similarity(rel: ProximityRelation, system: str) -> bool:
    """True when the relation is min-transitive over its mentioned symbols
    (absent pairs read as bottom)."""
    syms = sorted(rel.symbols)
    for x in syms:
        for y in syms:
            for z in syms:
                lhs = rel.value_of(x, z, system)
                rhs = V.meet(system, rel.value_of(x, y, system), rel.value_of(y, z, system))
                if not V.leq(system, rhs, lhs):
                    return False
    return True


def proximity_set(rel: ProximityRelation, d: str, system: str):
    """All (d_i, lambda_i) with R(d, d_i) above bottom: (d, top) first, then
    the others in the order their pairs were first set."""
    out = [(d, V.top(system))]
    for other, v in rel.neighbours.get(d, {}).items():
        if not V.is_bottom(system, v):
            out.append((other, v))
    return out


@dataclass
class BackgroundKnowledge:
    term_prox: ProximityRelation
    pred_prox: ProximityRelation

    @staticmethod
    def empty() -> "BackgroundKnowledge":
        return BackgroundKnowledge(ProximityRelation("terms"), ProximityRelation("predicates"))


@dataclass
class PhiSpec:
    """Functor -> phi id; unspecified functors default to meet."""

    by_functor: dict = field(default_factory=dict)   # (name, arity) -> phi id

    def phi_for(self, pred: str, arity: int) -> str:
        return self.by_functor.get((pred, arity), PHI_MEET)


@dataclass
class KnowledgeBase:
    bk: BackgroundKnowledge
    program: Program
    phi: PhiSpec
    # the restricted consequences `query.answer` computed on this knowledge
    # base, least recently used first; see `query._reused_consequence`
    _consequences: OrderedDict = field(default_factory=OrderedDict, init=False,
                                       repr=False, compare=False)


# ----------------------------------------------------------------------
# File parsing
# ----------------------------------------------------------------------

def parse_proximity_file(text: str):
    """Parse a proximity file into (term_prox, pred_prox, declared_system)."""
    p = _Parser(text)
    system = None
    if p.at("directive", "%system"):
        p.next()
        name = p.expect("ident")
        if name[1] not in _SYSTEM_NAMES:
            p.fail(f"unknown value system {name[1]!r}", name)
        system = _SYSTEM_NAMES[name[1]]
        p.expect("punct", ".")
    term_prox = ProximityRelation("terms", system)
    pred_prox = ProximityRelation("predicates", system)
    current = None
    while not p.at("eof"):
        if p.at("directive", "%domain"):
            p.next()
            which = p.expect("ident")
            if which[1] == "terms":
                current = term_prox
            elif which[1] == "predicates":
                current = pred_prox
            else:
                p.fail(f"%domain must be 'terms' or 'predicates', got {which[1]!r}", which)
            p.expect("punct", ".")
            continue
        if current is None:
            p.fail("proximity entries must follow a %domain directive")
        a = p.expect("ident")[1]
        p.expect("punct", "~")
        b = p.expect("ident")[1]
        eq = p.expect("punct", "=")
        lvl = p.level()
        p.expect("punct", ".")
        if a == b and system is not None and not V.values_equal(system, lvl, V.top(system)):
            p.fail(f"reflexive entry {a} ~ {a} must be the top element", eq)
        key = ProximityRelation._key(a, b)
        if a != b and key in current.pairs:
            old = current.pairs[key]
            if not (system is None or V.values_equal(system, old, lvl)) or old != lvl:
                p.fail(f"contradictory proximity entries for {a} ~ {b}", eq)
        current.set_pair(a, b, lvl)
    return term_prox, pred_prox, system


def parse_phi_file(text: str) -> PhiSpec:
    p = _Parser(text)
    spec = PhiSpec()
    while not p.at("eof"):
        kw = p.expect("ident")
        if kw[1] != "phi":
            p.fail(f"expected 'phi', found {kw[1]!r}", kw)
        name = p.expect("ident")[1]
        p.expect("punct", "/")
        arity = p.integer()
        eq = p.expect("punct", "=")
        which = p.expect("ident")
        if which[1] not in _PHI_FILE_NAMES:
            p.fail(f"unknown uncertainty function {which[1]!r}", which)
        p.expect("punct", ".")
        phi_id = _PHI_FILE_NAMES[which[1]]
        if spec.by_functor.setdefault((name, arity), phi_id) != phi_id:
            p.fail(f"contradictory uncertainty functions for {name}/{arity}", eq)
    return spec


def build_kb(program: Program, bk: Optional[BackgroundKnowledge] = None,
             phi: Optional[PhiSpec] = None) -> KnowledgeBase:
    """Assemble and validate a knowledge base around a parsed program."""
    bk = bk or BackgroundKnowledge.empty()
    phi = phi or PhiSpec()
    sys = program.system
    problems = []
    for rel in (bk.term_prox, bk.pred_prox):
        if rel.system is not None and rel.system != sys:
            problems.append(f"proximity file declares {rel.system}, program is {sys}")
        problems.extend(validate_proximity(rel, sys))
    # predicate proximity may only relate predicates of equal arity
    arities = program.predicates()
    for (a, b) in bk.pred_prox.pairs:
        if a in arities and b in arities and arities[a] != arities[b]:
            problems.append(f"predicate proximity {a} ~ {b} relates arities "
                            f"{arities[a]} and {arities[b]}")
    for (name, arity), phi_id in phi.by_functor.items():
        if phi_id == PHI_PRODUCT and sys != V.IVS:
            problems.append(f"phi {name}/{arity} = product is admissible only for ivs programs")
    if problems:
        raise ParseError("; ".join(problems))
    # drop bottom-valued proximity entries: they cannot produce stored atoms
    for rel in (bk.term_prox, bk.pred_prox):
        rel.pairs = {k: v for k, v in rel.pairs.items() if not V.is_bottom(sys, v)}
        rel.reindex()
    return KnowledgeBase(bk, program, phi)


# ----------------------------------------------------------------------
# kb-extended uncertainty functions
# ----------------------------------------------------------------------

def _pair_product(a, b):
    return (a[0] * b[0], a[1] * b[1])


def _scalar_product(a, b):
    return a * b


def _lambda_product(lambdas, product):
    """lambda_n * (.. * (lambda_2 * lambda_1)), for meet_product."""
    prod = lambdas[0]
    for lam in lambdas[1:]:
        prod = product(lam, prod)
    return prod


def _require_product_system(system: str) -> None:
    if system != V.IVS:
        raise ValueError("the product uncertainty function is only valid "
                         "in the interval-valued case")


def _phi_kernel(phi_id: str, system: str):
    """The pieces of one uncertainty function: (start, fold, fold_args).

    phi(alpha, lambda_pred, lambdas) is fold(start(alpha), lambda_pred)
    folded on with fold over fold_args(lambdas), or over lambdas themselves
    when fold_args is None.  meet folds with the lattice meet from
    top meet alpha (the operand order of the checked meet_all fold, so
    levels stay bit-for-bit the same); meet_product folds the same way over
    the argument lambdas' product; product multiplies everything
    (interval-valued programs only).
    """
    if phi_id == PHI_PRODUCT:
        _require_product_system(system)
        return (lambda alpha: alpha), _pair_product, None
    if phi_id != PHI_MEET and phi_id != PHI_MEET_PRODUCT:
        raise ValueError(f"unknown uncertainty function {phi_id!r}")
    lattice = V.lattice(system)
    meet, top = lattice.meet, lattice.top

    def start(alpha):
        return meet(top, alpha)

    if phi_id == PHI_MEET:
        return start, meet, None
    product = _scalar_product if system == V.FUZZY else _pair_product

    def fold_args(lambdas):
        # the pairwise product's neutral element is (1, 1), which is not the
        # ifs lattice top; fold the argument lambdas only
        return (_lambda_product(lambdas, product),) if lambdas else lambdas

    return start, meet, fold_args


def phi_apply(phi_id: str, system: str, alpha, lambda_pred, lambda_args):
    """Combine a derived level with proximity degrees.

    meet takes the lattice meet of all arguments; meet_product replaces the
    argument lambdas by their pairwise product; product multiplies
    everything (interval-valued programs only).  All three are identity at
    top and monotone in every argument.  The values are not shape-checked.
    """
    start, fold, fold_args = _phi_kernel(phi_id, system)
    out = fold(start(alpha), lambda_pred)
    for lam in lambda_args if fold_args is None else fold_args(lambda_args):
        out = fold(out, lam)
    return out


# ----------------------------------------------------------------------
# Modified consequence transformation
# ----------------------------------------------------------------------

class _Spread:
    """The proximity fan-out of derived heads, for one `consequence` call.

    The proximity set of each predicate and term symbol is fetched once.  A
    synonym of p(t1..tn) is q(s1..sn) with q over the proximity set of p,
    outermost, then each s_i over that of t_i, the first argument varying
    slowest.
    """

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self.system = kb.program.system
        self.pred_options = {}   # predicate -> (symbols, lambdas) of its proximity set
        self.term_options = {}   # constant name -> the same for it
        self.kernels = {}        # (pred, arity) -> `_phi_kernel` of its phi

    def _options(self, table, rel, symbol):
        options = table.get(symbol)
        if options is None:
            pairs = proximity_set(rel, symbol, self.system)
            options = table[symbol] = (tuple(d for d, _ in pairs), tuple(v for _, v in pairs))
        return options

    def widen(self, pred, names):
        """The (pred, names) of every synonym of pred(names), for `ground`,
        in synonym order."""
        term_prox, term_options = self.kb.bk.term_prox, self.term_options
        arg_names = [self._options(term_options, term_prox, n)[0] for n in names]
        qs, _ = self._options(self.pred_options, self.kb.bk.pred_prox, pred)
        return [(q, chosen) for q in qs for chosen in itertools.product(*arg_names)]

    def _kernel(self, functor):
        kernel = self.kernels.get(functor)
        if kernel is None:
            phi_id = self.kb.phi.phi_for(*functor)
            kernel = self.kernels[functor] = _phi_kernel(phi_id, self.system)
        return kernel

    def fire(self, head: int, alpha, levels) -> None:
        """Join every synonym of the interned head derived at level alpha
        into the working levels, interning the synonyms in their table.

        Each level is the one `phi_apply` gives, from the same kernel; the
        prefixes that synonyms share are computed once: start(alpha) per
        head, its fold with lambda_q per predicate synonym q, and the
        argument lambdas' transform per argument combination.
        """
        table = levels.table
        pred, key = table.entries[head]
        names = (key,) if isinstance(key, str) else key
        start, fold, fold_args = self._kernel((pred, len(names)))
        qs, lam_qs = self._options(self.pred_options, self.kb.bk.pred_prox, pred)
        term_prox, term_options = self.kb.bk.term_prox, self.term_options
        arg_options = [self._options(term_options, term_prox, n) for n in names]
        keys = (arg_options[0][0] if len(names) == 1
                else list(itertools.product(*(syns for syns, _ in arg_options))))
        lambdas = itertools.product(*(lams for _, lams in arg_options))
        lambdas = list(lambdas) if fold_args is None else [fold_args(lams) for lams in lambdas]
        head_start = start(alpha)
        starts = [fold(head_start, lam_q) for lam_q in lam_qs]
        ids_of, intern, join = table.ids, levels.intern, levels.join
        for q, prefix in zip(qs, starts):
            ids = ids_of.get(q)
            if ids is None:
                ids = ids_of[q] = {}
            for key, lams in zip(keys, lambdas):
                value = prefix
                for lam in lams:
                    value = fold(value, lam)
                aid = ids.get(key)
                join(intern(q, key) if aid is None else aid, value)


def _mod(spread: _Spread, instances, interp, diagnostics):
    """The kernel of `mod_nt_step`: every head fired is spread into interp."""
    fired = _fired(instances, interp, diagnostics)
    for head, alpha in fired:
        spread.fire(head, alpha, interp)
    return interp


def mod_nt_step(kb: KnowledgeBase, interp, rules=None,
                diagnostics: Optional[list] = None,
                spread: Optional[_Spread] = None):
    """One modified step: every applicable rule fires and its head is
    spread over the proximity sets of its predicate and arguments.  Every
    body is read before any head is spread.  Without a spread, one is built
    for this step alone.

    On GroundRules (by default the full grounding) and an Interpretation,
    the result is a copy of interp; the atoms are interned for the step
    alone.  `consequence` calls it on interned instances and its working
    `engine._Levels`, which it updates in place and returns."""
    if rules is None:
        universe = modified_universe(kb)
        rules = [g for rs in ground(kb.program, universe) for g in rs]
    if spread is None:
        spread = _Spread(kb)
    if isinstance(interp, Interpretation):
        return _on_objects(partial(_mod, spread), rules, interp, diagnostics)
    return _mod(spread, rules, interp, diagnostics)


def modified_universe(kb: KnowledgeBase):
    return set(kb.program.constants()) | set(kb.bk.term_prox.symbols)


def consequence(kb: KnowledgeBase, max_iters: int = 10000,
                order: Optional[EvalOrder] = None) -> FixpointReport:
    """Least fixed point of the modified transformation: the knowledge-base
    consequence.  Facts are proximity-expanded before any proper rule can
    fire, since they are always-applicable empty-body rules in the leading
    stratum.  Grounding keeps the instances whose body atoms are derivable
    when every derived head is widened over its synonyms.  One spread serves
    the widening and every step of the call; its synonyms are interned in
    the evaluation's atom table."""
    spread = _Spread(kb)

    def step(rules, interp, diagnostics):
        return mod_nt_step(kb, interp, rules, diagnostics, spread)

    return _evaluate(kb.program, order, max_iters, step, step, modified_universe(kb),
                     spread.widen)
