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

import functools
import itertools
from collections import OrderedDict, defaultdict
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
    """Symmetric map (symbol, symbol) -> value; the diagonal is top.  An
    entry a ~ a given explicitly is kept in pairs, for `validate_proximity`
    to check, and is left out of the neighbour map."""

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
            if a == b:
                continue
            self.neighbours.setdefault(a, {})[b] = v
            self.neighbours.setdefault(b, {})[a] = v

    def set_pair(self, a: str, b: str, value) -> None:
        self.symbols.add(a)
        self.symbols.add(b)
        self.pairs[self._key(a, b)] = value
        if a == b:
            return  # the proximity set holds a itself at top
        # an overwritten pair keeps its place, in pairs and here alike
        self.neighbours.setdefault(a, {})[b] = value
        self.neighbours.setdefault(b, {})[a] = value

    def value_of(self, a: str, b: str, system: str):
        if a == b:
            return V.top(system)
        return self.pairs.get(self._key(a, b), V.bottom(system))


def validate_proximity(rel: ProximityRelation, system: str):
    """Stored values must be valid for the system, and an explicit diagonal
    entry must be top; reflexivity is otherwise implicit and symmetry is
    enforced by the canonical pair key."""
    problems = []
    for (a, b), v in rel.pairs.items():
        err = V.validate_input(system, v)
        if err is not None:
            problems.append(f"proximity {a} ~ {b}: {err}")
        elif a == b and not V.values_equal(system, v, V.top(system)):
            problems.append(f"reflexive entry {a} ~ {a} must be the top element")
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
    top = V.top(system) if system else None
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
        # the shape first: values_equal raises on a level of another shape
        if a == b and system is not None and (isinstance(lvl, tuple) != isinstance(top, tuple)
                                              or not V.values_equal(system, lvl, top)):
            p.fail(f"reflexive entry {a} ~ {a} must be the top element", eq)
        # parsed levels are exact, so a repeated pair contradicts when it differs
        if current.pairs.get(ProximityRelation._key(a, b), lvl) != lvl:
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
    # predicate proximity may only relate predicates of equal arity, so a
    # symbol outside the program takes the one arity of its neighbours in it
    arities = program.predicates()
    outside = {}    # symbol outside the program -> its first neighbour in it
    for (a, b) in bk.pred_prox.pairs:
        if a in arities and b in arities:
            if arities[a] != arities[b]:
                problems.append(f"predicate proximity {a} ~ {b} relates arities "
                                f"{arities[a]} and {arities[b]}")
        elif a in arities or b in arities:
            p, z = (a, b) if a in arities else (b, a)
            q = outside.setdefault(z, p)
            if arities[q] != arities[p]:
                problems.append(f"predicate proximity {q} ~ {z} and {p} ~ {z} give {z} "
                                f"arities {arities[q]} and {arities[p]}")
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


@functools.lru_cache(maxsize=16)
def _phi_kernel(phi_id: str, system: str):
    """The pieces of one uncertainty function: (start, fold, fold_args,
    kind), the same objects on every call.

    phi(alpha, lambda_pred, lambdas) is fold(start(alpha), lambda_pred)
    folded on with fold over fold_args(lambdas), or over lambdas themselves
    when fold_args is None; kind names fold, "meet" or "product".  meet
    folds with the lattice meet from top meet alpha (the operand order of
    the checked meet_all fold, so levels stay bit-for-bit the same);
    meet_product folds the same way over the argument lambdas' product;
    product multiplies everything (interval-valued programs only).
    """
    if phi_id == PHI_PRODUCT:
        _require_product_system(system)
        return (lambda alpha: alpha), _pair_product, None, "product"
    if phi_id != PHI_MEET and phi_id != PHI_MEET_PRODUCT:
        raise ValueError(f"unknown uncertainty function {phi_id!r}")
    lattice = V.lattice(system)
    meet, top = lattice.meet, lattice.top

    def start(alpha):
        return meet(top, alpha)

    if phi_id == PHI_MEET:
        return start, meet, None, "meet"
    product = _scalar_product if system == V.FUZZY else _pair_product

    def fold_args(lambdas):
        # the pairwise product's neutral element is (1, 1), which is not the
        # ifs lattice top; fold the argument lambdas only
        return (_lambda_product(lambdas, product),) if lambdas else lambdas

    return start, meet, fold_args, "meet"


def phi_apply(phi_id: str, system: str, alpha, lambda_pred, lambda_args):
    """Combine a derived level with proximity degrees.

    meet takes the lattice meet of all arguments; meet_product replaces the
    argument lambdas by their pairwise product; product multiplies
    everything (interval-valued programs only).  All three are identity at
    top and monotone in every argument.  The values are not shape-checked.
    """
    start, fold, fold_args, _ = _phi_kernel(phi_id, system)
    out = fold(start(alpha), lambda_pred)
    for lam in lambda_args if fold_args is None else fold_args(lambda_args):
        out = fold(out, lam)
    return out


# ----------------------------------------------------------------------
# Modified consequence transformation
# ----------------------------------------------------------------------

def _spread_source(lattice: V.Lattice, kind: str, n: int) -> str:
    """The source of the fan-out kernel of a shape: the lattice, the kind of
    fold ("meet" or "product") and the number n of lambdas it folds.  The
    kernel is called as

        kernel(run, entries, plans, plan, targets, intern, levels, log)

    for one run of fired (head id, alpha) of one predicate, with targets
    its (q, lambda_q, ids) per predicate synonym q, ids being q's map in
    the atom table.  For each head it reads the key from entries and the
    plan from plans, made by plan(key) when missing, and computes
    start(alpha).  Per target it folds lambda_q in, then, per synonym key
    of q, in order, with lambdas[k] the n lambdas of keys[k], it folds them
    in one by one, looks the atom q(key) up in ids, interning it through
    intern when it has no id, and joins the value into the working levels
    as `engine._Levels.join` does: a bottom value is dropped, and a join
    that does not rise by more than 1e-12 is dropped; a rise is stored in
    levels and its id appended to log.  Every coordinate of a value is a
    local, and meet, join and equal are written out from the lattice's
    declaration (`values.Lattice.meets`), so each level comes from the
    float operations of `phi_apply`, in the same order.
    """
    alpha, start, lam_q, prefix, value, old, new = (
        lattice.coordinates(name) for name in ("a", "s", "m", "p", "v", "o", "r"))
    lambdas = [lattice.coordinates(f"l{k}_") for k in range(n)]
    display = lattice.value_source
    top, bottom = ([repr(c) for c in (v if len(prefix) > 1 else (v,))]
                   for v in (lattice.top, lattice.bottom))

    def fold(x, y):
        return (lattice.meet_source(x, y) if kind == "meet"
                else [f"{a} * {b}" for a, b in zip(x, y)])

    lines = ["def kernel(run, entries, plans, plan, targets, intern, levels, log):",
             "    append = log.append",
             "    for head, alpha in run:",
             "        key = entries[head][1]",
             "        keys, lambdas, _ = plans.get(key) or plan(key)",
             f"        {display(alpha)} = alpha"]
    starts = fold(top, alpha) if kind == "meet" else alpha    # a product starts at alpha
    lines += [f"        {s} = {source}" for s, source in zip(start, starts)]
    lines += ["        for q, lam_q, ids in targets:",
              f"            {display(lam_q)} = lam_q"]
    lines += [f"            {p} = {source}" for p, source in zip(prefix, fold(start, lam_q))]
    lines.append("            get = ids.get")
    if n:
        lines.append(f"            for key, ({', '.join(map(display, lambdas))},) "
                     "in zip(keys, lambdas):")
    else:
        lines.append("            for key in keys:")
    current = prefix
    for lam in lambdas:
        lines += [f"                {v} = {u}" for v, u in zip(value, fold(current, lam))]
        current = value
    join = lattice.join_source(old, current)
    lines += ["                aid = get(key)",
              "                if aid is None:",
              "                    aid = intern(q, key)",
              f"                if {lattice.equal_source(current, bottom, repr(V.EPS))}:",
              "                    continue",
              "                old = levels[aid]",
              "                if old is None:",
              f"                    levels[aid] = {display(current)}",
              "                    append(aid)",
              "                    continue",
              f"                {display(old)} = old"]
    lines += [f"                {r} = {source}" for r, source in zip(new, join)]
    lines += [f"                if {lattice.equal_source(new, old, repr(1e-12))}:",
              "                    continue",
              f"                levels[aid] = {display(new)}",
              "                append(aid)"]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=64)
def _spread_kernel(system: str, kind: str, n: int):
    """The fan-out kernel of a shape (see `_spread_source`), compiled once
    per shape."""
    namespace = {}
    source = _spread_source(V.lattice(system), kind, n)
    exec(compile(source, "<spread kernel>", "exec"), namespace)
    return namespace["kernel"]


def _options(table, rel, system, symbol):
    """The (symbols, lambdas) of the proximity set of symbol, kept in table."""
    options = table.get(symbol)
    if options is None:
        pairs = proximity_set(rel, symbol, system)
        options = table[symbol] = (tuple(d for d, _ in pairs), tuple(v for _, v in pairs))
    return options


def _plan(term_options, plans, fold_args, key):
    """The plan of a head key (a name, or a tuple of names unless unary,
    as in `lang.AtomTable`), made and entered in plans."""
    names = (key,) if key.__class__ is str else key
    syms, lams = tuple(zip(*map(term_options, names))) or ((), ())
    combos = list(itertools.product(*syms))
    lambdas = itertools.product(*lams)
    lambdas = list(lambdas) if fold_args is None else list(map(fold_args, lambdas))
    plan = plans[key] = (syms[0] if len(names) == 1 else combos, lambdas, combos)
    return plan


class _Spread:
    """The proximity fan-out of derived heads, for one `consequence` call.

    The proximity set of each predicate and term symbol is fetched once.  A
    synonym of p(t1..tn) is q(s1..sn) with q over the proximity set of p,
    outermost, then each s_i over that of t_i, the first argument varying
    slowest.

    Each head predicate resolves its uncertainty function once, to a kernel
    compiled for the shape (system, kind of fold, number of lambdas folded
    per synonym; see `_spread_kernel`).  Each head key has a plan, made
    once and read by `widen` and `fire` alike: the keys of its argument
    synonyms, their lambdas after the function's fold_args, and their name
    tuples.  `fire` makes one kernel call per run of fired heads of one
    predicate.  `widen` makes one set of synonyms per predicate synonym and
    join run, without the names it returned before, so a spread serves one
    grounding.
    """

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self.system = kb.program.system
        self.arity = kb.program.predicates()
        # predicate, or constant name -> (symbols, lambdas) of its proximity set
        self.pred_options = partial(_options, {}, kb.bk.pred_prox, self.system)
        self.term_options = partial(_options, {}, kb.bk.term_prox, self.system)
        # head predicate -> (kernel, plans, plan, symbols, lambdas of its
        # proximity set), plan(key) making a missing plan
        self.heads = {}
        self.plans = {}          # fold_args -> {head key: (keys, lambdas, name tuples)}
        self.read = {lit.atom.pred for rule in kb.program.rules for lit in rule.body}
        self.returned = defaultdict(set)   # predicate -> the names widen returned for it

    def _head(self, pred):
        """The entry of a head predicate in heads, made on first use."""
        arity = self.arity[pred]
        _, _, fold_args, kind = _phi_kernel(self.kb.phi.phi_for(pred, arity), self.system)
        n = arity if fold_args is None else min(arity, 1)
        plans = self.plans.setdefault(fold_args, {})
        # the plan maker holds no reference to the spread, which would be a cycle
        head = self.heads[pred] = (_spread_kernel(self.system, kind, n), plans,
                                   partial(_plan, self.term_options, plans, fold_args),
                                   *self.pred_options(pred))
        return head

    def widen(self, pred, heads):
        """For `ground`: the (q, names) of every predicate synonym q of pred
        that a rule body reads, names being the set of the argument synonyms
        of the heads (name tuples of pred) that no earlier call returned
        for q."""
        _, plans, plan, qs, _ = self.heads.get(pred) or self._head(pred)
        synonyms = set()
        for key in (names[0] for names in heads) if self.arity[pred] == 1 else heads:
            synonyms.update((plans.get(key) or plan(key))[2])
        widened = [(q, synonyms - self.returned[q]) for q in qs if q in self.read]
        for q, fresh in widened:
            self.returned[q] |= fresh
        return [(q, fresh) for q, fresh in widened if fresh]

    def fire(self, pred, run, levels) -> None:
        """Join every synonym of each (head id, alpha) of run, interned heads
        of pred derived at level alpha, into the working levels, interning
        the synonyms in their table, with one kernel call.  Each level is
        the one `phi_apply` gives, from the same pieces in the same order."""
        kernel, plans, plan, qs, lam_qs = self.heads.get(pred) or self._head(pred)
        ids = levels.table.ids
        targets = [(q, lam_q, ids.setdefault(q, {})) for q, lam_q in zip(qs, lam_qs)]
        kernel(run, levels.table.entries, plans, plan, targets, levels.intern, levels.levels,
               levels.log)


def _mod(spread: _Spread, instances, interp, diagnostics):
    """The kernel of `mod_nt_step`: the heads fired are spread into interp
    in their order, one call per run of consecutive heads of a predicate."""
    entries = interp.table.entries
    for pred, run in itertools.groupby(_fired(instances, interp, diagnostics),
                                       lambda fired: entries[fired[0]][0]):
        spread.fire(pred, run, interp)
    return interp


def mod_nt_step(kb: KnowledgeBase, interp, rules=None,
                diagnostics: Optional[list] = None,
                spread: Optional[_Spread] = None):
    """One modified step: every applicable rule fires and its head is
    spread over the proximity sets of its predicate and arguments.  Every
    body is read before any head is spread.  Without a spread, one is built
    for this step alone.

    On GroundRules and an Interpretation, the result is a copy of interp;
    the atoms are interned for the step alone.  By default the rules are
    the instances of the full grounding whose body atoms are all in interp
    (`lang.ground` with present), the only ones that can fire.
    `consequence` calls it on interned instances and its working
    `engine._Levels`, which it updates in place and returns."""
    if rules is None:
        universe = modified_universe(kb)
        rules = [g for rs in ground(kb.program, universe, present=interp.entries) for g in rs]
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
