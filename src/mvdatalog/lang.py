"""Abstract syntax, concrete syntax, safety, Herbrand construction, grounding.

Program files are UTF-8 with `#` line comments:

    program   := header directive* clause*
    header    := "%system" ("fuzzy"|"ifs"|"ivs"|"bipolar-a"|"bipolar-b") "."
    directive := "%order" int ("," int)* "."          # 1-based rule indices
               | "%const" ident ("," ident)* "."      # uppercase constants
    clause    := fact | rule
    fact      := "fact" atom "=" level "."
    rule      := "rule" atom "<-" literal ("," literal)* ":" impl "," level "."
    literal   := ["not"] atom
    atom      := ident "(" term ("," term)* ")" | ident
    level     := number | "(" number "," number ")"
    impl      := ident | "(" ident "," ident ")"      # pair form only for bipolar

Identifiers starting with an uppercase letter are variables unless declared
with %const; everything else is a constant or predicate symbol.  Numbers are
read to at most nine decimal places and quantized there, so printing and
reparsing a program reproduces it exactly.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from . import values as V
from . import implications as Imp


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class SafetyError(ParseError):
    """A rule violates the safety conditions (strict mode)."""


# ----------------------------------------------------------------------
# Terms, atoms, literals, rules
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Constant:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class ProximityRef:
    """Stands for the proximity set of a constant; query-phase only."""

    name: str

    def __str__(self):
        return f"~{self.name}"


Term = Union[Variable, Constant, ProximityRef]


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple = ()

    def __str__(self):
        if not self.args:
            return self.pred
        return f"{self.pred}({', '.join(str(a) for a in self.args)})"

    def __hash__(self):
        # atoms key every interpretation and index: hash once per object
        try:
            return self._hash
        except AttributeError:
            value = hash((self.pred, self.args))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self):
        # string hashes differ between processes, so the cache is not pickled
        return {"pred": self.pred, "args": self.args}

    @property
    def functor(self):
        return (self.pred, len(self.args))

    def is_ground(self) -> bool:
        return all(isinstance(a, Constant) for a in self.args)

    def variables(self):
        return [a for a in self.args if isinstance(a, Variable)]


@dataclass(frozen=True)
class Literal:
    atom: Atom
    negated: bool = False

    def __str__(self):
        return f"not {self.atom}" if self.negated else str(self.atom)


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple = ()
    impl: object = "godel"
    level: object = 1.0
    line: int = field(default=0, compare=False)

    @property
    def is_fact(self) -> bool:
        return len(self.body) == 0

    def variables(self):
        seen = []
        for atom in [self.head] + [lit.atom for lit in self.body]:
            for v in atom.variables():
                if v not in seen:
                    seen.append(v)
        return seen


@dataclass
class Program:
    system: str
    rules: list
    declared_constants: frozenset = frozenset()
    order_directive: Optional[list] = None
    warnings: list = field(default_factory=list)

    def facts(self):
        """The empty-body rules, viewed as (atom, level) pairs."""
        return [(r.head, r.level) for r in self.rules if r.is_fact]

    def proper_rules(self):
        """Non-fact rules with their 1-based textual numbering."""
        out = []
        n = 0
        for pos, r in enumerate(self.rules):
            if not r.is_fact:
                n += 1
                out.append((n, pos, r))
        return out

    def predicates(self):
        """Map functor name -> arity over all rule heads and bodies."""
        arity = {}
        for r in self.rules:
            for atom in [r.head] + [lit.atom for lit in r.body]:
                arity[atom.pred] = len(atom.args)
        return arity

    def constants(self):
        out = set()
        for r in self.rules:
            for atom in [r.head] + [lit.atom for lit in r.body]:
                for t in atom.args:
                    if isinstance(t, Constant):
                        out.add(t.name)
        return out

    def has_negation(self) -> bool:
        return any(lit.negated for r in self.rules for lit in r.body)


# ----------------------------------------------------------------------
# Safety
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SafetyReport:
    unsafe_head_vars: tuple
    unsafe_negative_vars: tuple

    @property
    def ok(self) -> bool:
        return not self.unsafe_head_vars and not self.unsafe_negative_vars


def check_safety(rule: Rule) -> SafetyReport:
    """Head variables must occur in the body; negative-literal variables must
    occur in some positive literal."""
    body_vars = set()
    positive_vars = set()
    for lit in rule.body:
        for v in lit.atom.variables():
            body_vars.add(v)
            if not lit.negated:
                positive_vars.add(v)
    bad_head = tuple(sorted({v.name for v in rule.head.variables() if v not in body_vars}))
    bad_neg = set()
    for lit in rule.body:
        if lit.negated:
            for v in lit.atom.variables():
                if v not in positive_vars:
                    bad_neg.add(v.name)
    return SafetyReport(bad_head, tuple(sorted(bad_neg)))


# ----------------------------------------------------------------------
# Tokenizer / parser
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow><-)
  | (?P<num>\d+\.\d+|\d+|\.\d+)
  | (?P<directive>%[A-Za-z][A-Za-z0-9_-]*)
  | (?P<ident>[A-Za-z][A-Za-z0-9_-]*)
  | (?P<punct>[(),=.:~/])
    """,
    re.VERBOSE,
)

_SYSTEM_NAMES = {
    "fuzzy": V.FUZZY,
    "ifs": V.IFS,
    "ivs": V.IVS,
    "bipolar-a": V.BIPOLAR_A,
    "bipolar-b": V.BIPOLAR_B,
}
_SYSTEM_FILE_NAMES = {v: k for k, v in _SYSTEM_NAMES.items()}


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str):
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        tok = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, tok, line, m.start() - line_start + 1))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            line_start = m.start() + tok.rfind("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, declared_constants: Iterable[str] = ()):
        self.tokens = _tokenize(text)
        self.i = 0
        self.declared = set(declared_constants)

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def fail(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col)

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            self.fail(f"expected {want!r}, found {t.text!r}" if t.text else f"expected {want!r}, found end of input")
        return self.next()

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    # --- shared small pieces ---

    def number(self) -> float:
        t = self.expect("num")
        if "." in t.text and len(t.text.split(".", 1)[1]) > 9:
            raise ParseError("numbers carry at most 9 decimal places", t.line, t.col)
        return round(float(t.text), 9)

    def integer(self) -> int:
        t = self.expect("num")
        if not t.text.isdigit():
            raise ParseError(f"expected an integer, found {t.text!r}", t.line, t.col)
        return int(t.text)

    def level(self):
        if self.at("punct", "("):
            self.next()
            m1 = self.number()
            self.expect("punct", ",")
            m2 = self.number()
            self.expect("punct", ")")
            return (m1, m2)
        return self.number()

    def term(self) -> Term:
        t = self.expect("ident")
        if t.text in self.declared:
            return Constant(t.text)
        if t.text[0].isupper():
            return Variable(t.text)
        return Constant(t.text)

    def atom(self) -> Atom:
        t = self.expect("ident")
        pred = t.text
        args = ()
        if self.at("punct", "("):
            self.next()
            items = [self.term()]
            while self.at("punct", ","):
                self.next()
                items.append(self.term())
            self.expect("punct", ")")
            args = tuple(items)
        return Atom(pred, args)


def _default_impl(system: str):
    """Facts carry no operator in the syntax; the choice is invisible because
    every implemented level function maps (top, beta) to beta."""
    if system == V.FUZZY:
        return "godel"
    if system == V.IFS:
        return "fg2"
    if system == V.IVS:
        return "vg2"
    return ("godel", "godel")


def parse_program(text: str, safety: str = "strict") -> Program:
    """Parse a program file.

    safety="strict" rejects rules whose negative-literal variables lack a
    positive occurrence; safety="paper-examples" downgrades that to a
    warning, so self-negating rules like q(X, Y) <- not q(Y, X) still load.
    Unbound head variables are an error in both modes.
    """
    if safety not in ("strict", "paper-examples"):
        raise ValueError(f"unknown safety mode {safety!r}")
    p = _Parser(text)

    tok = p.expect("directive")
    if tok.text != "%system":
        raise ParseError("program must start with a %system header", tok.line, tok.col)
    name = p.expect("ident")
    sysname = name.text
    if sysname not in _SYSTEM_NAMES:
        raise ParseError(f"unknown value system {sysname!r}", name.line, name.col)
    system = _SYSTEM_NAMES[sysname]
    p.expect("punct", ".")

    rules = []
    order = None
    warnings = []
    arities = {}

    def note_arity(atom: Atom, tok_: _Token):
        old = arities.get(atom.pred)
        if old is not None and old != len(atom.args):
            raise ParseError(
                f"predicate {atom.pred!r} used with arity {len(atom.args)} but earlier with {old}",
                tok_.line, tok_.col)
        arities[atom.pred] = len(atom.args)

    while not p.at("eof"):
        t = p.peek()
        if t.kind == "directive" and t.text == "%const":
            p.next()
            while True:
                c = p.expect("ident")
                p.declared.add(c.text)
                if not p.at("punct", ","):
                    break
                p.next()
            p.expect("punct", ".")
            continue
        if t.kind == "directive" and t.text == "%order":
            p.next()
            order = [p.integer()]
            while p.at("punct", ","):
                p.next()
                order.append(p.integer())
            p.expect("punct", ".")
            continue
        if t.kind == "ident" and t.text == "fact":
            p.next()
            head_tok = p.peek()
            head = p.atom()
            note_arity(head, head_tok)
            p.expect("punct", "=")
            lvl = p.level()
            p.expect("punct", ".")
            _check_level(system, lvl, head_tok)
            if head.variables():
                raise ParseError(f"fact {head} is not ground", head_tok.line, head_tok.col)
            rules.append(Rule(head, (), _default_impl(system), lvl, head_tok.line))
            continue
        if t.kind == "ident" and t.text == "rule":
            p.next()
            head_tok = p.peek()
            head = p.atom()
            note_arity(head, head_tok)
            p.expect("arrow")
            body = []
            while True:
                negated = False
                if p.at("ident", "not"):
                    p.next()
                    negated = True
                atom_tok = p.peek()
                a = p.atom()
                note_arity(a, atom_tok)
                body.append(Literal(a, negated))
                if p.at("punct", ","):
                    p.next()
                    continue
                break
            p.expect("punct", ":")
            impl = _parse_impl(p, system)
            p.expect("punct", ",")
            lvl = p.level()
            p.expect("punct", ".")
            _check_level(system, lvl, head_tok)
            rule = Rule(head, tuple(body), impl, lvl, head_tok.line)
            report = check_safety(rule)
            if report.unsafe_head_vars:
                raise SafetyError(
                    f"unsafe rule: head variable(s) {', '.join(report.unsafe_head_vars)} "
                    f"do not occur in the body", head_tok.line, head_tok.col)
            if report.unsafe_negative_vars:
                msg = (f"rule at line {head_tok.line}: variable(s) "
                       f"{', '.join(report.unsafe_negative_vars)} occur only under negation")
                if safety == "strict":
                    raise SafetyError("unsafe rule: " + msg.split(": ", 1)[1],
                                      head_tok.line, head_tok.col)
                warnings.append("safety: " + msg)
            rules.append(rule)
            continue
        p.fail(f"expected 'fact', 'rule' or a directive, found {t.text!r}")

    prog = Program(system, rules, frozenset(p.declared), order, warnings)
    if order is not None:
        n = len(prog.proper_rules())
        if sorted(order) != list(range(1, n + 1)):
            raise ParseError(f"%order must be a permutation of 1..{n}, got {order}")
    return prog


def _parse_impl(p: _Parser, system: str):
    if p.at("punct", "("):
        tok = p.next()
        a = p.expect("ident").text
        p.expect("punct", ",")
        b = p.expect("ident").text
        p.expect("punct", ")")
        impl = (a, b)
        if not Imp.is_compatible(impl, system):
            raise ParseError(f"implication pair ({a}, {b}) is not valid for the {system} system",
                             tok.line, tok.col)
        return impl
    tok = p.expect("ident")
    impl = tok.text
    if not Imp.is_compatible(impl, system):
        raise ParseError(f"implication {impl!r} is not valid for the {system} system",
                         tok.line, tok.col)
    return impl


def _check_level(system: str, lvl, tok: _Token):
    err = V.validate_input(system, lvl)
    if err is not None:
        raise ParseError(f"invalid level: {err}", tok.line, tok.col)
    if V.is_bottom(system, lvl):
        raise ParseError(f"level {V.fmt(lvl)} must be above the bottom element", tok.line, tok.col)


# ----------------------------------------------------------------------
# Printing (round-trips through parse_program)
# ----------------------------------------------------------------------

def print_program(program: Program) -> str:
    lines = [f"%system {_SYSTEM_FILE_NAMES[program.system]}."]
    consts = sorted(program.declared_constants)
    if consts:
        lines.append(f"%const {', '.join(consts)}.")
    if program.order_directive:
        lines.append(f"%order {','.join(str(i) for i in program.order_directive)}.")
    for r in program.rules:
        if r.is_fact:
            lines.append(f"fact {r.head} = {V.fmt(r.level)}.")
        else:
            body = ", ".join(str(lit) for lit in r.body)
            impl = f"({r.impl[0]}, {r.impl[1]})" if isinstance(r.impl, tuple) else r.impl
            lines.append(f"rule {r.head} <- {body} : {impl}, {V.fmt(r.level)}.")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Herbrand universe / base and grounding
# ----------------------------------------------------------------------

def herbrand(program: Program, extra_constants: Iterable[str] = (),
             extra_predicates: Iterable = ()):
    """Universe and base, optionally extended with background-knowledge
    constants and predicates (extra_predicates: iterable of (name, arity))."""
    universe = set(program.constants()) | set(extra_constants)
    preds = dict(program.predicates())
    for name, arity in extra_predicates:
        if name in preds and preds[name] != arity:
            raise ValueError(f"predicate {name!r} arity conflict: {preds[name]} vs {arity}")
        preds[name] = arity
    consts = sorted(universe)
    base = set()
    for name, arity in preds.items():
        if arity == 0:
            base.add(Atom(name))
            continue
        for combo in itertools.product(consts, repeat=arity):
            base.add(Atom(name, tuple(Constant(c) for c in combo)))
    return universe, base


@dataclass(frozen=True)
class GroundRule:
    head: Atom
    body: tuple  # Literals, ground
    impl: object
    level: object
    rule_pos: int  # index into Program.rules


def substitute(atom: Atom, theta: dict) -> Atom:
    return Atom(atom.pred, tuple(theta.get(t, t) if isinstance(t, Variable) else t
                                 for t in atom.args))


class AtomTable:
    """Ground atoms interned to dense int ids, 0, 1, 2, .. in order of entry.

    An atom is entered by its predicate and key: the argument name of a
    unary atom and the tuple of argument names otherwise; the arity of a
    predicate is fixed, so the keys of one predicate never mix the two
    forms.  `Atom` objects are built only on request, once per id, and
    share their `Constant`s.
    """

    def __init__(self):
        self.ids = {}          # pred -> {key: id}
        self.entries = []      # id -> (pred, key)
        self._atoms = {}       # id -> Atom, as built by `atom` or given to `intern_atom`
        self._constants = {}   # name -> Constant

    def __len__(self):
        return len(self.entries)

    def add(self, pred, key) -> int:
        """Enter an atom that has no id yet; returns its id."""
        aid = len(self.entries)
        self.ids.setdefault(pred, {})[key] = aid
        self.entries.append((pred, key))
        return aid

    def intern_atom(self, atom: Atom) -> int:
        """The id of a ground Atom; `atom` returns this object for it."""
        key = _key(atom)
        aid = self.ids.get(atom.pred, {}).get(key)
        if aid is None:
            aid = self.add(atom.pred, key)
        self._atoms.setdefault(aid, atom)
        return aid

    def atom(self, aid: int) -> Atom:
        atom = self._atoms.get(aid)
        if atom is None:
            pred, key = self.entries[aid]
            consts = self._constants
            names = (key,) if isinstance(key, str) else key
            atom = self._atoms[aid] = Atom(pred, tuple(
                consts.get(n) or consts.setdefault(n, Constant(n)) for n in names))
        return atom


def _key(atom: Atom):
    """The key of a ground atom in an `AtomTable`."""
    args = atom.args
    return args[0].name if len(args) == 1 else tuple(t.name for t in args)


def _is_ground_fact(rule: Rule) -> bool:
    return not rule.body and not rule.head.variables()


class _Grounder:
    """Builds interned ground instances from per-rule templates.

    One grounder serves one `ground` call and enters every ground atom in
    its `AtomTable`.  A template reads an atom's key (as in `AtomTable`) off
    `combo + constants`, where combo is the substitution (one constant name
    per rule variable) and constants are the rule's own constant names.  An
    instance is the tuple (head id, body, level function, rule level, rule
    position): body holds the id of each positive body atom and the
    complement ~id of each negated one, and the level function is the
    rule's `implications.bound_level` in the grounder's system (without a
    system, the rule's implication itself).
    """

    def __init__(self, universe, system, table):
        self.names = sorted(universe)
        self.system = system
        self.table = table

    def _level_fn(self, rule: Rule):
        return Imp.bound_level(rule.impl, self.system) if self.system else rule.impl

    def fact(self, rule: Rule, rule_pos: int):
        """The one instance of a ground fact."""
        return [(self.table.intern_atom(rule.head), (), self._level_fn(rule), rule.level,
                 rule_pos)]

    def rule(self, rule: Rule, rule_pos: int, combos=None):
        """Instances for the given substitutions (tuples of constant names,
        one per rule variable); by default every one over the universe."""
        variables = rule.variables()
        if variables and not self.names:
            return []
        if combos is None:
            combos = itertools.product(self.names, repeat=len(variables))
        slot = {v: i for i, v in enumerate(variables)}
        rule_constants = []

        def key_of(atom):
            positions = []
            for t in atom.args:
                if isinstance(t, Variable):
                    positions.append(slot[t])
                else:
                    positions.append(len(variables) + len(rule_constants))
                    rule_constants.append(t.name)
            return operator.itemgetter(*positions) if positions else (lambda full: ())

        head_key = key_of(rule.head)
        body_keys = [key_of(lit.atom) for lit in rule.body]
        constants = tuple(rule_constants)
        table = self.table
        add = table.add
        head_pred = rule.head.pred
        head_ids = table.ids.setdefault(head_pred, {})
        body = [(body_key, table.ids.setdefault(lit.atom.pred, {}), lit.atom.pred, lit.negated)
                for body_key, lit in zip(body_keys, rule.body)]
        level_fn, level = None, rule.level
        out = []
        for combo in combos:
            if level_fn is None:
                level_fn = self._level_fn(rule)
            full = combo + constants
            key = head_key(full)
            head = head_ids.get(key)
            if head is None:
                head = add(head_pred, key)
            ids = []
            for body_key, pred_ids, pred, negated in body:
                key = body_key(full)
                aid = pred_ids.get(key)
                if aid is None:
                    aid = add(pred, key)
                ids.append(~aid if negated else aid)
            out.append((head, tuple(ids), level_fn, level, rule_pos))
        return out


def decode_instance(table: AtomTable, instance, impl) -> GroundRule:
    """The GroundRule an interned instance of `ground` stands for; impl is
    the implication of its rule."""
    head, body, _, level, rule_pos = instance
    atom = table.atom
    literals = tuple(Literal(atom(aid)) if aid >= 0 else Literal(atom(~aid), True)
                     for aid in body)
    return GroundRule(atom(head), literals, impl, level, rule_pos)


def _picker(positions):
    """Function reading the tuple of seq[i] for i in positions."""
    if not positions:
        return lambda seq: ()
    if len(positions) == 1:
        i = positions[0]
        return lambda seq: (seq[i],)
    return operator.itemgetter(*positions)


class _Relations:
    """Crisp relations: per predicate a set of argument-name tuples, with an
    index per pattern of bound argument positions, built on first use and
    kept up to date by `add`."""

    def __init__(self):
        self.rows = {}      # pred -> {name tuple}
        self.indexes = {}   # pred -> {positions: (pick, {key: [name tuple]})}

    def add(self, pred, names) -> bool:
        rows = self.rows.setdefault(pred, set())
        if names in rows:
            return False
        rows.add(names)
        for pick, index in self.indexes.get(pred, {}).values():
            index.setdefault(pick(names), []).append(names)
        return True

    def lookup(self, pred, positions, key):
        """The rows of pred whose values at positions equal key."""
        if not positions:
            return self.rows.get(pred, ())
        patterns = self.indexes.setdefault(pred, {})
        entry = patterns.get(positions)
        if entry is None:
            pick = _picker(positions)
            index = {}
            for names in self.rows.get(pred, ()):
                index.setdefault(pick(names), []).append(names)
            entry = patterns[positions] = (pick, index)
        return entry[1].get(key, ())


class _RuleJoin:
    """Joins over the body atoms of one rule, negated ones included.

    A binding is a list holding one constant name per rule variable (in
    `Rule.variables` order), then the rule's own constant names.  A plan
    visits the body atoms in a given order; each step looks its atom up by
    the positions already bound and binds the rest, so a binding reaches
    the end exactly when every body atom it names is in the relations.
    Variables that no body atom binds range over the whole universe.
    """

    def __init__(self, rule: Rule, universe: set, names: list):
        variables = rule.variables()
        slot = {v: i for i, v in enumerate(variables)}
        constants = []

        def slots(atom):
            out = []
            for t in atom.args:
                if isinstance(t, Variable):
                    out.append(slot[t])
                else:
                    out.append(len(variables) + len(constants))
                    constants.append(t.name)
            return out

        self.head_pred = rule.head.pred
        self.head_names = _picker(slots(rule.head))
        self.atoms = [(lit.atom.pred, slots(lit.atom)) for lit in rule.body]
        self.nvars = len(variables)
        self.constants = constants
        self.universe = universe
        self.names = names
        n = len(self.atoms)
        self.full_plan = self._plan(range(n))
        # semi-naive: atom i read from the delta first, the others after it
        self.delta_plans = [self._plan([i] + [k for k in range(n) if k != i])
                            for i in range(n)]

    def _plan(self, order):
        bound = set(range(self.nvars, self.nvars + len(self.constants)))
        steps = []
        for i in order:
            pred, slots = self.atoms[i]
            positions, sources, frees, repeats = [], [], [], []
            first = {}
            for pos, s in enumerate(slots):
                if s in bound:
                    positions.append(pos)
                    sources.append(s)
                elif s in first:
                    repeats.append((pos, first[s]))
                else:
                    first[s] = pos
                    frees.append((pos, s))
            bound.update(first)
            steps.append((pred, tuple(positions), _picker(sources), tuple(frees),
                          tuple(repeats)))
        rest = [s for s in range(self.nvars) if s not in bound]
        return steps, rest

    def solve(self, plan, relations, emit):
        """Call emit(binding) for every complete binding; step k of the plan
        reads relations[k]."""
        steps, rest = plan
        binding = [None] * self.nvars + self.constants
        universe = self.universe
        last = len(steps)

        def extend(k):
            if k == last:
                if not rest:
                    emit(binding)
                    return
                for combo in itertools.product(self.names, repeat=len(rest)):
                    for s, name in zip(rest, combo):
                        binding[s] = name
                    emit(binding)
                return
            pred, positions, probe, frees, repeats = steps[k]
            for row in relations[k].lookup(pred, positions, probe(binding)):
                if repeats and any(row[p] != row[q] for p, q in repeats):
                    continue
                for pos, s in frees:
                    name = row[pos]
                    if name not in universe:
                        break
                    binding[s] = name
                else:
                    extend(k + 1)

        extend(0)


def _derivable_substitutions(program: Program, names: list, widen):
    """Per rule, the ascending substitutions whose body atoms are all
    derivable (see `ground`), recorded as a semi-naive pass over crisp
    relations emits them; a ground fact has the one empty substitution."""
    universe = set(names)
    derivable = _Relations()
    rows = derivable.rows
    widened = set()
    # the atoms first derived in the current round, in order: a synonym that
    # is derivable already, or found earlier in the round, is dropped here
    found = {}
    substitutions = [set() for _ in program.rules]

    def derive(atom):
        if atom not in widened:
            widened.add(atom)
            for syn in widen(*atom):
                if syn[1] not in rows.get(syn[0], ()):
                    found[syn] = None

    def emitter(join, recorded):
        pred, head_names, nvars = join.head_pred, join.head_names, join.nvars

        def emit(binding):
            recorded.add(tuple(binding[:nvars]))
            derive((pred, head_names(binding)))
        return emit

    joins = []
    for rule, recorded in zip(program.rules, substitutions):
        if _is_ground_fact(rule):
            recorded.add(())
            derive((rule.head.pred, tuple(t.name for t in rule.head.args)))
            continue
        join = _RuleJoin(rule, universe, names)
        if join.atoms:
            joins.append((join, emitter(join, recorded)))
        else:
            join.solve(join.full_plan, [], emitter(join, recorded))
    while found:
        delta = _Relations()
        for pred, atom_names in found:
            derivable.add(pred, atom_names)
            delta.add(pred, atom_names)
        found.clear()
        for join, emit in joins:
            for i, (pred, _) in enumerate(join.atoms):
                if pred in delta.rows:
                    plan = join.delta_plans[i]
                    join.solve(plan, [delta] + [derivable] * (len(plan[0]) - 1), emit)
    return [sorted(recorded) for recorded in substitutions]


def ground_rule(rule: Rule, universe, rule_pos: int = 0):
    """All ground instances, ordered lexicographically by substitution (the
    rule's variables in first-occurrence order, constants sorted by name)."""
    table = AtomTable()
    return [decode_instance(table, g, rule.impl)
            for g in _Grounder(universe, None, table).rule(rule, rule_pos)]


def ground(program: Program, universe=None, widen=None, table=None):
    """Ground instances per rule, in rule order; equal ground atoms are
    shared across all of them.

    With an `AtomTable`, the one that `engine._evaluate` passes, every
    ground atom is interned in it and each instance is a tuple of its ids
    (see `_Grounder`); no `Atom`, `Literal` or `GroundRule` is built.
    Without one, the atoms are interned in a table of the call's own and
    each instance is decoded to its `GroundRule`.

    Without widen, every instance over the universe.  With widen, only the
    instances whose every body atom, negated ones included, is derivable:
    in the least set that holds the atoms widen(pred, names) returns for
    each fact head and for the head of each instance whose body atoms are
    derivable.  widen returns (pred, names) pairs, the head itself among
    them.  An instance with an underivable body atom is never applicable,
    so it changes no evaluation; the survivors keep their relative order.
    The crisp pass that finds the derivable atoms records each rule's
    substitutions as it goes, so no join is repeated to list them.
    """
    if universe is None:
        universe = program.constants()
    decode = table is None
    if decode:
        table = AtomTable()
    grounder = _Grounder(universe, None if decode else program.system, table)
    if widen is None:
        combos = [None] * len(program.rules)
    else:
        combos = _derivable_substitutions(program, grounder.names, widen)
    grounded = [grounder.fact(r, pos) if _is_ground_fact(r) else grounder.rule(r, pos, c)
                for (pos, r), c in zip(enumerate(program.rules), combos)]
    if not decode:
        return grounded
    return [[decode_instance(table, g, r.impl) for g in rules]
            for rules, r in zip(grounded, program.rules)]


# ----------------------------------------------------------------------
# Unification (function-free; proximity references act like constants,
# except that a constant unifies with its own proximity set)
# ----------------------------------------------------------------------

def _walk(t: Term, theta: dict) -> Term:
    while isinstance(t, Variable) and t in theta:
        t = theta[t]
    return t


def _terms_unify(a: Term, b: Term, theta: dict) -> bool:
    a = _walk(a, theta)
    b = _walk(b, theta)
    if a == b:
        return True
    if isinstance(a, Variable):
        theta[a] = b
        return True
    if isinstance(b, Variable):
        theta[b] = a
        return True
    if isinstance(a, Constant) and isinstance(b, ProximityRef):
        return a.name == b.name
    if isinstance(a, ProximityRef) and isinstance(b, Constant):
        return a.name == b.name
    return False


def unify(a: Atom, b: Atom) -> Optional[dict]:
    """Most general unifier of two atoms, or None."""
    if a.pred != b.pred or len(a.args) != len(b.args):
        return None
    theta: dict = {}
    for ta, tb in zip(a.args, b.args):
        if not _terms_unify(ta, tb, theta):
            return None
    # resolve chains so the substitution applies in one pass
    return {v: _walk(t, theta) for v, t in theta.items()}


def rename_apart(rule: Rule, suffix: str) -> Rule:
    theta = {v: Variable(f"{v.name}_{suffix}") for v in rule.variables()}
    head = substitute(rule.head, theta)
    body = tuple(Literal(substitute(l.atom, theta), l.negated) for l in rule.body)
    return Rule(head, body, rule.impl, rule.level, rule.line)
