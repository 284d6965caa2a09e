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
from typing import Optional

from . import values as V
from .lang import (Atom, Constant, ParseError, Program, _Parser, _SYSTEM_NAMES,
                   ground)
from .engine import (EvalOrder, FixpointReport, Interpretation, applicable,
                     _head_level, _stratum_rule_lists, _sweep_to_fixpoint,
                     order_from_directive, stratify)

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
        if name.text not in _SYSTEM_NAMES:
            raise ParseError(f"unknown value system {name.text!r}", name.line, name.col)
        system = _SYSTEM_NAMES[name.text]
        p.expect("punct", ".")
    term_prox = ProximityRelation("terms", system)
    pred_prox = ProximityRelation("predicates", system)
    current = None
    while not p.at("eof"):
        if p.at("directive", "%domain"):
            p.next()
            which = p.expect("ident")
            if which.text == "terms":
                current = term_prox
            elif which.text == "predicates":
                current = pred_prox
            else:
                raise ParseError(f"%domain must be 'terms' or 'predicates', got {which.text!r}",
                                 which.line, which.col)
            p.expect("punct", ".")
            continue
        if current is None:
            p.fail("proximity entries must follow a %domain directive")
        a = p.expect("ident").text
        p.expect("punct", "~")
        b = p.expect("ident").text
        eq = p.expect("punct", "=")
        lvl = p.level()
        p.expect("punct", ".")
        if a == b and system is not None and not V.values_equal(system, lvl, V.top(system)):
            raise ParseError(f"reflexive entry {a} ~ {a} must be the top element",
                             eq.line, eq.col)
        key = ProximityRelation._key(a, b)
        if a != b and key in current.pairs:
            old = current.pairs[key]
            if not (system is None or V.values_equal(system, old, lvl)):
                raise ParseError(f"contradictory proximity entries for {a} ~ {b}", eq.line, eq.col)
            if old != lvl:
                raise ParseError(f"contradictory proximity entries for {a} ~ {b}", eq.line, eq.col)
        current.set_pair(a, b, lvl)
    return term_prox, pred_prox, system


def parse_phi_file(text: str) -> PhiSpec:
    p = _Parser(text)
    spec = PhiSpec()
    while not p.at("eof"):
        kw = p.expect("ident")
        if kw.text != "phi":
            raise ParseError(f"expected 'phi', found {kw.text!r}", kw.line, kw.col)
        name = p.expect("ident").text
        p.expect("punct", "/")
        arity = p.integer()
        p.expect("punct", "=")
        which = p.expect("ident")
        if which.text not in _PHI_FILE_NAMES:
            raise ParseError(f"unknown uncertainty function {which.text!r}", which.line, which.col)
        p.expect("punct", ".")
        spec.by_functor[(name, arity)] = _PHI_FILE_NAMES[which.text]
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


def phi_apply(phi_id: str, system: str, alpha, lambda_pred, lambda_args):
    """Combine a derived level with proximity degrees.

    meet takes the lattice meet of all arguments; meet_product replaces the
    argument lambdas by their pairwise product; product multiplies
    everything (interval-valued programs only).  All three are identity at
    top and monotone in every argument.  The values are not shape-checked.
    """
    if phi_id == PHI_PRODUCT:
        if system != V.IVS:
            raise ValueError("the product uncertainty function is only valid "
                             "in the interval-valued case")
        out = _pair_product(alpha, lambda_pred)
        for lam in lambda_args:
            out = _pair_product(out, lam)
        return out
    if phi_id == PHI_MEET_PRODUCT:
        # the pairwise product's neutral element is (1, 1), which is not the
        # ifs lattice top; fold the argument lambdas only
        if lambda_args:
            prod = lambda_args[0]
            for lam in lambda_args[1:]:
                prod = lam * prod if system == V.FUZZY else _pair_product(lam, prod)
            lambda_args = (prod,)
    elif phi_id != PHI_MEET:
        raise ValueError(f"unknown uncertainty function {phi_id!r}")
    lattice = V.lattice(system)
    meet = lattice.meet
    # top, then alpha, lambda_pred and the arguments: the operand order of
    # the checked meet_all fold, so levels stay bit-for-bit the same
    out = meet(meet(lattice.top, alpha), lambda_pred)
    for lam in lambda_args:
        out = meet(out, lam)
    return out


# ----------------------------------------------------------------------
# Modified consequence transformation
# ----------------------------------------------------------------------

class _Spread:
    """The proximity fan-out of derived heads, for one `consequence` call.

    The proximity set of each predicate and term symbol is fetched once, and
    each synonym atom is built once, keyed by (pred, argument names); atoms
    adopted through `share` (the ground atoms) are used as they are, so a
    synonym that is also a body atom is the same object.  A synonym of
    p(t1..tn) is q(s1..sn) with q over the proximity set of p, outermost,
    then each s_i over that of t_i, the first argument varying slowest.
    """

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self.system = kb.program.system
        self.pred_options = {}   # predicate -> (symbols, lambdas) of its proximity set
        self.term_options = {}   # constant name -> the same for it
        self.atoms = {}          # (pred, names) -> Atom
        self.constants = {}      # name -> Constant

    def share(self, rules) -> None:
        """Adopt the head and body atoms of these ground rules."""
        atoms = self.atoms
        for rule in rules:
            for atom in (rule.head, *(lit.atom for lit in rule.body)):
                atoms.setdefault((atom.pred, tuple(t.name for t in atom.args)), atom)

    def _options(self, table, rel, symbol):
        options = table.get(symbol)
        if options is None:
            pairs = proximity_set(rel, symbol, self.system)
            options = table[symbol] = (tuple(d for d, _ in pairs), tuple(v for _, v in pairs))
        return options

    def _synonyms(self, pred, names):
        """(q, lambda_q, (s_1, ..), (lambda_1, ..)) per synonym of pred(names)."""
        term_prox, term_options = self.kb.bk.term_prox, self.term_options
        args = [self._options(term_options, term_prox, n) for n in names]
        arg_names = [symbols for symbols, _ in args]
        arg_lambdas = [lambdas for _, lambdas in args]
        qs, lam_qs = self._options(self.pred_options, self.kb.bk.pred_prox, pred)
        for q, lam_q in zip(qs, lam_qs):
            for chosen, lambdas in zip(itertools.product(*arg_names),
                                       itertools.product(*arg_lambdas)):
                yield q, lam_q, chosen, lambdas

    def widen(self, pred, names):
        """The (pred, names) of every synonym of pred(names), for `ground`,
        in `_synonyms` order."""
        term_prox, term_options = self.kb.bk.term_prox, self.term_options
        arg_names = [self._options(term_options, term_prox, n)[0] for n in names]
        qs, _ = self._options(self.pred_options, self.kb.bk.pred_prox, pred)
        return [(q, chosen) for q in qs for chosen in itertools.product(*arg_names)]

    def _new_atom(self, pred, names) -> Atom:
        consts = self.constants
        args = tuple(consts.get(n) or consts.setdefault(n, Constant(n)) for n in names)
        self.atoms[(pred, names)] = atom = Atom(pred, args)
        return atom

    def fire(self, head: Atom, alpha, out: Interpretation) -> None:
        """Join every synonym of a head derived at level alpha into out."""
        system, atoms, join_in = self.system, self.atoms, out.join_in
        phi_id = self.kb.phi.phi_for(head.pred, len(head.args))
        for q, lam_q, chosen, lambdas in self._synonyms(head.pred, [t.name for t in head.args]):
            atom = atoms.get((q, chosen)) or self._new_atom(q, chosen)
            join_in(atom, phi_apply(phi_id, system, alpha, lam_q, lambdas))


def mod_nt_step(kb: KnowledgeBase, interp: Interpretation, rules=None,
                diagnostics: Optional[list] = None,
                spread: Optional[_Spread] = None) -> Interpretation:
    """One modified step: every applicable rule fires and its head is
    spread over the proximity sets of its predicate and arguments.  Without
    a spread, one is built for this step alone."""
    sys = kb.program.system
    if rules is None:
        universe = modified_universe(kb)
        rules = [g for rs in ground(kb.program, universe) for g in rs]
    if spread is None:
        spread = _Spread(kb)
    out = interp.copy()
    for rule in rules:
        body = applicable(rule, interp)
        if body is None:
            continue
        spread.fire(rule.head, _head_level(rule, body, diagnostics, sys), out)
    return out


def modified_universe(kb: KnowledgeBase):
    return set(kb.program.constants()) | set(kb.bk.term_prox.symbols)


def consequence(kb: KnowledgeBase, max_iters: int = 10000,
                order: Optional[EvalOrder] = None) -> FixpointReport:
    """Least fixed point of the modified transformation: the knowledge-base
    consequence.  Facts are proximity-expanded before any proper rule can
    fire, since they are always-applicable empty-body rules in the leading
    stratum.  Grounding keeps the instances whose body atoms are derivable
    when every derived head is widened over its synonyms.  One spread serves
    the widening and every step of the call."""
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    program = kb.program
    if order is None:
        if program.order_directive:
            order = order_from_directive(program.order_directive)
        else:
            order = stratify(program)
    diagnostics = list(order.warnings)

    spread = _Spread(kb)
    grounded = ground(program, modified_universe(kb), widen=spread.widen)
    spread.share(g for rules in grounded for g in rules)
    lists = _stratum_rule_lists(program, grounded, order)

    def step(rules, interp, diags):
        return mod_nt_step(kb, interp, rules, diags, spread)

    interp = Interpretation(program.system)
    strata_steps = [(rules, step) for rules in lists]
    interp, iterations, converged = _sweep_to_fixpoint(strata_steps, interp,
                                                       max_iters, diagnostics)
    return FixpointReport(interp, iterations, converged, diagnostics)
