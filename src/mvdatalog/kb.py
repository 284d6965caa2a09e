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

Both files are read by the statement loop of `lang._Parser`: an entry on
one line by `_ENTRY_RE`, when it can be taken as it stands, and every
other statement, and every error, by the general parser.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from . import values as V
from .lang import _LEVEL_TAIL, ParseError, Program, _Parser, _tup, _written_level, ground
from .engine import EvalOrder, FixpointReport, Interpretation, _evaluate, _fired, _on_objects

PHI_MEET = "meet"
PHI_MEET_PRODUCT = "meet_product"
PHI_PRODUCT = "product"
_PHI_FILE_NAMES = {"meet": PHI_MEET, "meet-product": PHI_MEET_PRODUCT, "product": PHI_PRODUCT}


@dataclass
class ProximityRelation:
    """Symmetric map (symbol, symbol) -> value; the diagonal is top.
    `set_pair` is its one writer, on copies of the given `pairs=` and
    `symbols=`, so keys are canonical.  An entry a ~ a stays in pairs, for
    `validate_proximity`, not in neighbours."""

    domain: str                      # "terms" | "predicates"
    system: Optional[str] = None
    pairs: dict = field(default_factory=dict)   # canonical (min, max) key
    symbols: set = field(default_factory=set)
    # symbol -> {other symbol: value}, in pair insertion order, as set_pair left it
    neighbours: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        given, self.pairs, self.symbols = self.pairs, {}, set(self.symbols)
        for (a, b), value in given.items():
            self.set_pair(a, b, value)

    @staticmethod
    def _key(a: str, b: str):
        return (a, b) if a <= b else (b, a)

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
        lattice = V._checked(system)
        return lattice.top if a == b else self.pairs.get(self._key(a, b), lattice.bottom)


def validate_proximity(rel: ProximityRelation, system: str):
    """Stored values must be valid for the system, and an explicit diagonal
    entry must be top; reflexivity is otherwise implicit and symmetry is
    enforced by the canonical pair key."""
    problems = []
    lattice = V.LATTICES.get(system)     # validate_input rejects an unknown system
    for (a, b), v in rel.pairs.items():
        err = V.validate_input(system, v)
        if err is not None:
            problems.append(f"proximity {a} ~ {b}: {err}")
        elif a == b and not lattice.equal(v, lattice.top):
            problems.append(f"reflexive entry {a} ~ {a} must be the top element")
    return problems


def is_similarity(rel: ProximityRelation, system: str) -> bool:
    """True when the relation is min-transitive over its mentioned symbols
    (absent pairs read as bottom), computed on the lattice bound once."""
    lattice = V._checked(system, *(v for (a, b), v in rel.pairs.items() if a != b))
    syms = sorted(rel.symbols)
    value = {(x, y): rel.value_of(x, y, system) for x in syms for y in syms}
    return all(lattice.leq(lattice.meet(value[x, y], value[y, z]), value[x, z])
               for x in syms for y in syms for z in syms)


def proximity_set(rel: ProximityRelation, d: str, system: str):
    """All (d_i, lambda_i) with R(d, d_i) above bottom: (d, top) first, then
    the others in the order their pairs were first set."""
    neighbours = rel.neighbours.get(d, {})
    lattice = V._checked(system, *neighbours.values())
    return [(d, lattice.top)] + [(other, v) for other, v in neighbours.items()
                                  if not lattice.is_bottom(v)]


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
    # (key, index) of the search index `query.answer` and the search trees
    # read, which holds the cones and the restricted consequences too; see
    # `query._search_index`
    _search_index: Optional[tuple] = field(default=None, init=False, repr=False,
                                           compare=False)


# ----------------------------------------------------------------------
# File parsing
# ----------------------------------------------------------------------

# An entry `a ~ b = level.` of a proximity file on one line, with what
# follows it up to the next statement.  Each piece reads as
# `lang._TOKEN_RE` would read it, the level as in `lang._FACT_RE`, so the
# matched text has the tokens the general parser reads.
_IDENT = r"([A-Za-z][A-Za-z0-9_-]*)"
_ENTRY_RE = re.compile(rf"{_IDENT}[ \t]*~[ \t]*{_IDENT}[ \t]*" + _LEVEL_TAIL)


def parse_proximity_file(text: str):
    """Parse a proximity file into (term_prox, pred_prox, declared_system).

    After a %domain directive, an entry on one line is read by `_ENTRY_RE`
    alone when it relates two distinct symbols that its section has no
    pair for yet.  Directives, every other entry and every error are read
    by the general parser from the same offset."""
    p = _Parser(text)
    system = p.system()
    lattice = V.lattice(system) if system else None
    term_prox = ProximityRelation("terms", system)
    pred_prox = ProximityRelation("predicates", system)
    current = None

    def take_entry(m) -> bool:
        a, b, scalar, m1, m2 = m.groups()
        if current is None or a == b or ProximityRelation._key(a, b) in current.pairs:
            return False
        current.set_pair(a, b, _written_level(scalar, m1, m2))
        return True

    for t in p.statements(_ENTRY_RE, take_entry):
        if t[0] == "directive" and t[1] == "%domain":
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
        # the shape first: the bound equal reads a level of its lattice's shape
        if a == b and lattice and (V._shape(lattice, lvl) or not lattice.equal(lvl, lattice.top)):
            p.fail(f"reflexive entry {a} ~ {a} must be the top element", eq)
        # parsed levels are exact, so a repeated pair contradicts when it differs
        if current.pairs.get(ProximityRelation._key(a, b), lvl) != lvl:
            p.fail(f"contradictory proximity entries for {a} ~ {b}", eq)
        current.set_pair(a, b, lvl)
    return term_prox, pred_prox, system


def parse_phi_file(text: str) -> PhiSpec:
    """Parse a function-set file."""
    p = _Parser(text)
    spec = PhiSpec()
    for _ in p.statements():
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
    """Assemble a knowledge base around a parsed program after checking its
    inputs, which it never writes."""
    bk = bk or BackgroundKnowledge.empty()
    phi = phi or PhiSpec()
    sys = program.system
    problems = []
    for rel in (bk.term_prox, bk.pred_prox):
        mismatch = f"proximity file declares {rel.system}, program is {sys}"
        if rel.system not in (None, sys) and mismatch not in problems:
            problems.append(mismatch)
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
    return KnowledgeBase(bk, program, phi)


# ----------------------------------------------------------------------
# kb-extended uncertainty functions
# ----------------------------------------------------------------------

def _pair_product(a, b):
    return (a[0] * b[0], a[1] * b[1])


def _checked_phi(phi_id: str, system: str) -> str:
    """phi_id, when it names an uncertainty function admissible in system."""
    if phi_id == PHI_PRODUCT and system != V.IVS:
        raise ValueError("the product uncertainty function is only valid "
                         "in the interval-valued case")
    if phi_id not in _PHI_FILE_NAMES.values():
        raise ValueError(f"unknown uncertainty function {phi_id!r}")
    return phi_id


def phi_apply(phi_id: str, system: str, alpha, lambda_pred, lambda_args):
    """Combine a derived level with proximity degrees.

    meet takes the lattice meet of all arguments, from top meet alpha (the
    operand order of the checked meet_all fold); meet_product replaces the
    argument lambdas by their pairwise product, lambda_n * (.. * (lambda_2
    * lambda_1)); product multiplies everything (interval-valued programs
    only).  All three are identity at top and monotone in every argument.
    The values are not shape-checked.
    """
    if _checked_phi(phi_id, system) == PHI_PRODUCT:
        out = _pair_product(alpha, lambda_pred)
        for lam in lambda_args:
            out = _pair_product(out, lam)
        return out
    if phi_id == PHI_MEET_PRODUCT and lambda_args:
        # the pairwise product's neutral element is (1, 1), which is not the
        # ifs lattice top; fold the argument lambdas only
        prod = lambda_args[0]
        for lam in lambda_args[1:]:
            prod = lam * prod if system == V.FUZZY else _pair_product(lam, prod)
        lambda_args = (prod,)
    lattice = V.lattice(system)
    out = lattice.meet(lattice.meet(lattice.top, alpha), lambda_pred)
    for lam in lambda_args:
        out = lattice.meet(out, lam)
    return out


# ----------------------------------------------------------------------
# Modified consequence transformation
# ----------------------------------------------------------------------

_NESTED_LOOPS = 10     # the argument loops a fan-out kernel nests at most


def _spread_source(lattice: V.Lattice, phi_id: str, n: int) -> str:
    """The source of the fan-out kernel of a shape: the lattice, the
    uncertainty function (meet_product only for n > 1, where it differs
    from meet) and the arity n of the heads.  The kernel is called as

        kernel(run, entries, terms, targets, levels, log)

    for one run of fired (head id, alpha) of one predicate, with targets
    the (q, lambda_q, ids) of each pair (q, lambda_q) of the predicate's
    proximity set, ids being q's map in the atom table and entries its
    list of (pred, key).  For each head it reads the key from entries and
    each argument's (symbol, lambda) pairs from terms (an `_Options`), and
    computes start(alpha).  Each head lists the (key, lambdas) of its
    argument synonyms once, key being the tuple of their names, in one
    nested loop per argument, the first varying slowest: product keeps
    each argument lambda, and meet and meet_product fold them prefix by
    prefix into one.  Per target the kernel folds lambda_q into start,
    then walks the list: meet and meet_product meet that prefix with the
    fold, which is exact, as min and max are; product multiplies the
    prefix by each argument lambda in turn, in the operand order of
    `phi_apply`.  So every level is the one `phi_apply` gives.

    A synonym q(key) with no id in ids is interned in place, as the join
    kernels do: appended to entries, to levels at bottom and to ids.  Its
    value is then joined into levels as `engine._Levels.join` does: a
    bottom value is dropped, and a join that does not rise by more than
    1e-12 is dropped; a rise is stored and its id appended to log.  Every
    coordinate of a value is a local, and meet, join and equal are
    written out from the lattice's declaration (`values.Lattice.meets`).
    """
    alpha, start, lam_q, prefix, value, old, new = (
        lattice.coordinates(name) for name in ("a", "s", "m", "p", "v", "o", "r"))
    lambdas = [lattice.coordinates(f"l{k}_") for k in range(n)]
    folds = [lattice.coordinates(f"f{k}_") for k in range(n)]
    display = lattice.value_source
    top, bottom = ([repr(c) for c in (v if len(prefix) > 1 else (v,))]
                   for v in (lattice.top, lattice.bottom))
    multiply = phi_id == PHI_PRODUCT
    # one loop per argument; past _NESTED_LOOPS, one loop over the product of
    # the rest, so that Python's limit on nested blocks holds at any arity
    groups = [[k] for k in range(min(n, _NESTED_LOOPS - 1))]
    if n >= _NESTED_LOOPS:
        groups.append(range(_NESTED_LOOPS - 1, n))

    def fold(x, y):
        return [f"{a} * {b}" for a, b in zip(x, y)] if multiply else lattice.meet_source(x, y)

    def assign(pad, targets, sources):
        lines.extend(f"{pad}{t} = {s}" for t, s in zip(targets, sources))

    lines = ["def kernel(run, entries, terms, targets, levels, log):",
             "    append, grow = log.append, levels.append",
             "    for head, alpha in run:"]
    if n:
        lines.append(f"        {_tup(f'k{k}' for k in range(n))} = entries[head][1]")
        lines += [f"        _, pairs{k} = terms[k{k}]" for k in range(n)]
    lines.append(f"        {display(alpha)} = alpha")
    assign("        ", start, alpha if multiply else fold(top, alpha))  # a product starts at alpha
    # the lambdas listed with each key: each argument's for product, their fold otherwise
    listed = lambdas if multiply or n < 2 else [folds[-1]]
    pad = "        "
    lines += [f"{pad}synonyms = []", f"{pad}add = synonyms.append"]
    for group in groups:
        binds = [f"n{k}, {display(lambdas[k])}" for k in group]
        sources = [f"pairs{k}" for k in group]
        lines.append(f"{pad}for {binds[0]} in {sources[0]}:" if len(group) == 1 else
                     f"{pad}for ({'), ('.join(binds)}) in product({', '.join(sources)}):")
        pad += "    "
        for k in group:
            if k and not multiply:
                # meet_product multiplies each lambda in on the left, as phi_apply
                current = lambdas[0] if k == 1 else folds[k - 1]
                assign(pad, folds[k], fold(current, lambdas[k]) if phi_id != PHI_MEET_PRODUCT
                       else [f"{b} * {a}" for a, b in zip(current, lambdas[k])])
    fields = [c for lam in listed for c in lam]
    key = _tup(f"n{k}" for k in range(n))
    lines.append(f"{pad}add(({', '.join([key, *fields])},))")
    walk = f"{', '.join(['key', *fields])}, in synonyms"
    lines += ["        for q, lam_q, ids in targets:", f"            {display(lam_q)} = lam_q"]
    assign("            ", prefix, fold(start, lam_q))
    lines += ["            get = ids.get", f"            for {walk}:"]
    pad = "                "
    if multiply:
        # left to right: ((prefix * lambda_0) * lambda_1) ..
        assign(pad, value, [" * ".join(cs) for cs in zip(prefix, *listed)])
    elif listed:
        assign(pad, value, fold(prefix, listed[0]))
    else:
        value = prefix
    lines += [pad + line for line in (
        "aid = get(key)",
        "if aid is None:",
        "    aid = ids[key] = len(entries)",
        "    entries.append((q, key))",
        "    grow(None)",
        f"if {lattice.equal_source(value, bottom, repr(V.EPS))}:",
        "    continue",
        "old = levels[aid]",
        "if old is None:",
        f"    levels[aid] = {display(value)}",
        "    append(aid)",
        "    continue",
        f"{display(old)} = old",
        *(f"{r} = {source}" for r, source in zip(new, lattice.join_source(old, value))),
        f"if {lattice.equal_source(new, old, repr(1e-12))}:",
        "    continue",
        f"levels[aid] = {display(new)}",
        "append(aid)")]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=64)
def _spread_kernel(system: str, phi_id: str, n: int):
    """The fan-out kernel of a shape (see `_spread_source`), compiled once
    per shape."""
    namespace = {"product": itertools.product}
    source = _spread_source(V.lattice(system), phi_id, n)
    exec(compile(source, "<spread kernel>", "exec"), namespace)
    return namespace["kernel"]


class _Options(dict):
    """Symbol -> (symbols, pairs) of its proximity set in a relation, pairs
    being the (symbol, lambda) of `proximity_set` in its order and symbols
    their first items, made on first lookup: the one cache of proximity
    sets, kept by a `_Spread` for both relations, by `query._SearchIndex`
    for the predicates and by each search tree for the terms."""

    def __init__(self, rel: ProximityRelation, system: str):
        super().__init__()
        self.rel = rel
        self.system = system

    def __missing__(self, symbol):
        pairs = tuple(proximity_set(self.rel, symbol, self.system))
        options = self[symbol] = (tuple(d for d, _ in pairs), pairs)
        return options


class _Spread:
    """The proximity fan-out of derived heads, for one `consequence` call.

    The proximity set of each predicate and term symbol is fetched once, as
    its (symbol, lambda) pairs and their symbols (`_Options`).  A synonym
    of p(t1..tn) is q(s1..sn) with q over the proximity set of p,
    outermost, then each s_i over that of t_i, the first argument varying
    slowest.  Nothing is kept per head key: `widen` and the kernels walk
    the argument synonyms from the options each time.

    Each head predicate resolves its uncertainty function once, to a kernel
    compiled for the shape (system, function, arity; see `_spread_source`).
    `fire` makes one kernel call per run of fired heads of one predicate.
    `widen` maps heads to their synonyms and keeps nothing between calls:
    which names are new is the grounding's to tell.
    """

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self.system = kb.program.system
        self.arity = kb.program.predicates()
        self.preds = _Options(kb.bk.pred_prox, self.system)
        self.terms = _Options(kb.bk.term_prox, self.system)
        # head predicate -> (kernel, symbols, pairs of its proximity set)
        self.heads = {}

    def _head(self, pred):
        """The entry of a head predicate in heads, made on first use."""
        arity = self.arity[pred]
        phi_id = _checked_phi(self.kb.phi.phi_for(pred, arity), self.system)
        if phi_id == PHI_MEET_PRODUCT and arity < 2:
            phi_id = PHI_MEET        # the product of at most one lambda is that lambda
        head = self.heads[pred] = (_spread_kernel(self.system, phi_id, arity), *self.preds[pred])
        return head

    def widen(self, pred, heads):
        """For `ground`: one (q, names) per predicate synonym q of pred, all
        with the one set names of the argument synonyms of the heads (name
        tuples of pred), a head's being the product of its constants'
        symbol tuples.  Nothing is kept between calls."""
        _, qs, _ = self.heads.get(pred) or self._head(pred)
        synonyms, terms = set(), self.terms
        for names in heads:
            synonyms.update(itertools.product(*[terms[name][0] for name in names]))
        return [(q, synonyms) for q in qs]

    def fire(self, pred, run, levels) -> None:
        """Join every synonym of each (head id, alpha) of run, interned heads
        of pred derived at level alpha, into the working levels, with one
        call of pred's kernel, which lists each head's argument synonyms
        once, walks the list per pair (q, lambda_q) of pred's proximity set
        and interns a missing synonym in place in the levels' table.  Each
        level is the one `phi_apply` gives."""
        kernel, _, pairs = self.heads.get(pred) or self._head(pred)
        table = levels.table
        ids = table.ids
        targets = [(q, lam_q, ids.setdefault(q, {})) for q, lam_q in pairs]
        kernel(run, table.entries, self.terms, targets, levels.levels, levels.log)


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
                order: Optional[EvalOrder] = None, _universe=None) -> FixpointReport:
    """Least fixed point of the modified transformation: the knowledge-base
    consequence.  Facts are proximity-expanded before any proper rule can
    fire, since they are always-applicable empty-body rules in the leading
    stratum.  Grounding keeps the instances whose body atoms are derivable
    when every derived head is widened over its synonyms.  One spread serves
    the widening and every step of the call; its synonyms are interned in
    the evaluation's atom table.  A goal's restricted consequence passes
    the universe of the whole knowledge base as _universe."""
    spread = _Spread(kb)

    def step(rules, interp, diagnostics):
        return mod_nt_step(kb, interp, rules, diagnostics, spread)

    universe = modified_universe(kb) if _universe is None else _universe
    return _evaluate(kb.program, order, max_iters, step, step, universe, spread.widen)
