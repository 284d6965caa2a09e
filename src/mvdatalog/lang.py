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

The parser reads tokens, each a tuple (kind, text, source offset), made by
one `_TOKEN_RE.finditer` pass as they are needed; a line is computed from
an offset for `Rule.line` and an error, a column only for an error.  A
`fact` statement written on one line is read without tokens: `_FACT_RE`,
matched at the `fact` keyword, reads it whole, and `parse_program` takes it
when it is valid as it stands.  Every other statement, and every fact with
an error, is read by the general parser from the same offset, so the
messages, lines and columns of errors are the general parser's.
"""

from __future__ import annotations

import bisect
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
    positive, negative = set(), set()
    for lit in rule.body:
        (negative if lit.negated else positive).update(
            t.name for t in lit.atom.args if isinstance(t, Variable))
    head = {t.name for t in rule.head.args if isinstance(t, Variable)}
    return SafetyReport(tuple(sorted(head - positive - negative)),
                        tuple(sorted(negative - positive)))


# ----------------------------------------------------------------------
# Tokenizer / parser
# ----------------------------------------------------------------------

# Whitespace and comments.  A token takes those that follow it, so the
# tokens of a text are consecutive matches from the end of its leading skip.
_SKIP = r"\s*(?:\#[^\n]*\s*)*"
_SKIP_RE = re.compile(_SKIP)
_TOKEN_RE = re.compile(
    r"""
    (?:(?P<ident>[A-Za-z][A-Za-z0-9_-]*)
      |(?P<num>\d+\.\d+|\d+|\.\d+)
      |(?P<punct>[(),=.:~/])
      |(?P<arrow><-)
      |(?P<directive>%[A-Za-z][A-Za-z0-9_-]*))
    """ + _SKIP,
    re.VERBOSE,
)

# A `fact` statement on one line, and what follows it up to the next
# statement.  The groups are the predicate, the argument text, and the
# scalar level or the two numbers of a pair; a number has at most nine
# decimals.  Each piece reads as `_TOKEN_RE` would read it, so the matched
# text has the tokens the general parser reads.
_FACT_NUMBER = r"(?:[0-9]+\.[0-9]{1,9}|[0-9]+|\.[0-9]{1,9})(?!\d)"
_FACT_RE = re.compile(
    r"""
    fact[ \t]+([A-Za-z][A-Za-z0-9_-]*)[ \t]*
    (?:\([ \t]*([A-Za-z][A-Za-z0-9_-]*(?:[ \t]*,[ \t]*[A-Za-z][A-Za-z0-9_-]*)*)[ \t]*\)[ \t]*)?
    =[ \t]*
    (?:(NUM)|\([ \t]*(NUM)[ \t]*,[ \t]*(NUM)[ \t]*\))
    [ \t]*\.(?!\d)
    """.replace("NUM", _FACT_NUMBER) + _SKIP,
    re.VERBOSE,
)

_NEWLINE_RE = re.compile("\n")

_SYSTEM_NAMES = {
    "fuzzy": V.FUZZY,
    "ifs": V.IFS,
    "ivs": V.IVS,
    "bipolar-a": V.BIPOLAR_A,
    "bipolar-b": V.BIPOLAR_B,
}
_SYSTEM_FILE_NAMES = {v: k for k, v in _SYSTEM_NAMES.items()}


def _tokens(text: str, pos: int = 0):
    """The tokens of text from offset pos, each a tuple (kind, text, offset),
    then one ("eof", "", len(text)); whitespace and comments are skipped.
    Raises a ParseError at the first character that starts no token."""
    pos = _SKIP_RE.match(text, pos).end()
    for m in _TOKEN_RE.finditer(text, pos):
        if m.start() != pos:
            break
        pos = m.end()
        kind = m.lastgroup
        yield kind, m[kind], m.start()
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", *_position(text, pos))
    yield "eof", "", pos


def _position(text: str, offset: int):
    """The 1-based (line, column) of an offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Parser:
    """Reads the tokens of one text, made as they are needed from a given
    offset; `tok` is the current token.  Lines are found by bisecting the
    text's newline offsets, and columns only for an error."""

    def __init__(self, text: str, declared_constants: Iterable[str] = ()):
        self.text = text
        self.declared = set(declared_constants)
        self.constants = _Constants()
        self._newlines = None
        self.seek(0)

    def seek(self, pos: int):
        """Read on from offset pos, which starts a token or is at the end."""
        self._stream = _tokens(self.text, pos)
        self.tok = next(self._stream)

    def next(self):
        t = self.tok
        self.tok = next(self._stream, t)  # past the end, eof repeats
        return t

    def line(self, offset: int) -> int:
        """The 1-based line of an offset."""
        if self._newlines is None:
            self._newlines = [m.start() for m in _NEWLINE_RE.finditer(self.text)]
        return bisect.bisect_left(self._newlines, offset) + 1

    def fail(self, message: str, tok=None, error=ParseError):
        """Raise error at tok, by default the current token.  The text is
        read to its end first, so that an unexpected character anywhere in
        it is reported instead, as when the whole text was tokenized first."""
        for _ in _tokens(self.text):
            pass
        raise error(message, *_position(self.text, (tok or self.tok)[2]))

    def expect(self, kind: str, text: Optional[str] = None):
        t = self.tok
        if t[0] != kind or (text is not None and t[1] != text):
            want = text or kind
            self.fail(f"expected {want!r}, found {t[1]!r}" if t[1] else f"expected {want!r}, found end of input")
        self.tok = next(self._stream, t)
        return t

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.tok
        return t[0] == kind and (text is None or t[1] == text)

    # --- shared small pieces ---

    def number(self) -> float:
        t = self.expect("num")
        if "." in t[1] and len(t[1].split(".", 1)[1]) > 9:
            self.fail("numbers carry at most 9 decimal places", t)
        return round(float(t[1]), 9)

    def integer(self) -> int:
        t = self.expect("num")
        if not t[1].isdigit():
            self.fail(f"expected an integer, found {t[1]!r}", t)
        return int(t[1])

    def level(self):
        if self.at("punct", "("):
            self.next()
            m1 = self.number()
            self.expect("punct", ",")
            m2 = self.number()
            self.expect("punct", ")")
            return (m1, m2)
        return self.number()

    def atom(self) -> Atom:
        pred = self.expect("ident")[1]
        if not self.at("punct", "("):
            return Atom(pred)
        args = []
        while True:
            self.next()  # the "(" or a ","
            name = self.expect("ident")[1]
            if name[0].isupper() and name not in self.declared:
                args.append(Variable(name))
            else:
                args.append(self.constants[name])
            if not self.at("punct", ","):
                break
        self.expect("punct", ")")
        return Atom(pred, tuple(args))


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

    A `fact` statement on one line is read by `_FACT_RE` alone, without
    tokens, when it is valid as it stands: a level valid in the system and
    above its bottom, with at most nine decimals, and constant arguments
    (under the %const directives read so far) in a predicate's one arity.
    Every other statement, and every error, is read by the general parser
    from the same offset.
    """
    if safety not in ("strict", "paper-examples"):
        raise ValueError(f"unknown safety mode {safety!r}")
    p = _Parser(text)

    tok = p.expect("directive")
    if tok[1] != "%system":
        p.fail("program must start with a %system header", tok)
    name = p.expect("ident")
    if name[1] not in _SYSTEM_NAMES:
        p.fail(f"unknown value system {name[1]!r}", name)
    system = _SYSTEM_NAMES[name[1]]
    p.expect("punct", ".")

    rules = []
    order = None
    warnings = []
    arities = {}
    fact_impl = _default_impl(system)
    declared = p.declared
    constants = p.constants

    def note_arity(atom: Atom, tok_):
        old = arities.get(atom.pred)
        if old is not None and old != len(atom.args):
            p.fail(f"predicate {atom.pred!r} used with arity {len(atom.args)} but earlier with {old}",
                   tok_)
        arities[atom.pred] = len(atom.args)

    pos = p.tok[2]
    while True:
        m = _FACT_RE.match(text, pos)
        if m is not None:
            pred, arg_text, scalar, m1, m2 = m.groups()
            names = arg_text.replace(" ", "").replace("\t", "").split(",") if arg_text else ()
            lvl = round(float(scalar), 9) if scalar else (round(float(m1), 9), round(float(m2), 9))
            if (_level_error(system, lvl) is None
                    and (not arg_text or arg_text.islower()
                         or all(n in declared or not n[0].isupper() for n in names))
                    and arities.setdefault(pred, len(names)) == len(names)):
                head = _ground_atom(pred, tuple(map(constants.__getitem__, names)))
                rules.append(Rule(head, (), fact_impl, lvl, p.line(pos)))
                pos = m.end()
                continue
        if p.tok[2] != pos:
            p.seek(pos)
        t = p.tok
        if t[0] == "eof":
            break
        if t[0] == "directive" and t[1] == "%const":
            p.next()
            while True:
                c = p.expect("ident")
                declared.add(c[1])
                if not p.at("punct", ","):
                    break
                p.next()
            p.expect("punct", ".")
        elif t[0] == "directive" and t[1] == "%order":
            p.next()
            order = [p.integer()]
            while p.at("punct", ","):
                p.next()
                order.append(p.integer())
            p.expect("punct", ".")
        elif t[0] == "ident" and t[1] == "fact":
            p.next()
            head_tok = p.tok
            head = p.atom()
            note_arity(head, head_tok)
            p.expect("punct", "=")
            lvl = p.level()
            p.expect("punct", ".")
            _check_level(p, system, lvl, head_tok)
            if head.variables():
                p.fail(f"fact {head} is not ground", head_tok)
            rules.append(Rule(head, (), fact_impl, lvl, p.line(head_tok[2])))
        elif t[0] == "ident" and t[1] == "rule":
            p.next()
            head_tok = p.tok
            head = p.atom()
            note_arity(head, head_tok)
            p.expect("arrow")
            body = []
            while True:
                negated = False
                if p.at("ident", "not"):
                    p.next()
                    negated = True
                atom_tok = p.tok
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
            _check_level(p, system, lvl, head_tok)
            line = p.line(head_tok[2])
            rule = Rule(head, tuple(body), impl, lvl, line)
            report = check_safety(rule)
            if report.unsafe_head_vars:
                p.fail(f"unsafe rule: head variable(s) {', '.join(report.unsafe_head_vars)} "
                       f"do not occur in the body", head_tok, SafetyError)
            if report.unsafe_negative_vars:
                msg = (f"rule at line {line}: variable(s) "
                       f"{', '.join(report.unsafe_negative_vars)} occur only under negation")
                if safety == "strict":
                    p.fail("unsafe rule: " + msg.split(": ", 1)[1], head_tok, SafetyError)
                warnings.append("safety: " + msg)
            rules.append(rule)
        else:
            p.fail(f"expected 'fact', 'rule' or a directive, found {t[1]!r}")
        pos = p.tok[2]

    prog = Program(system, rules, frozenset(declared), order, warnings)
    if order is not None:
        n = len(prog.proper_rules())
        if sorted(order) != list(range(1, n + 1)):
            raise ParseError(f"%order must be a permutation of 1..{n}, got {order}")
    return prog


def _parse_impl(p: _Parser, system: str):
    if p.at("punct", "("):
        tok = p.next()
        a = p.expect("ident")[1]
        p.expect("punct", ",")
        b = p.expect("ident")[1]
        p.expect("punct", ")")
        impl = (a, b)
        if not Imp.is_compatible(impl, system):
            p.fail(f"implication pair ({a}, {b}) is not valid for the {system} system", tok)
        return impl
    tok = p.expect("ident")
    impl = tok[1]
    if not Imp.is_compatible(impl, system):
        p.fail(f"implication {impl!r} is not valid for the {system} system", tok)
    return impl


def _level_error(system: str, lvl) -> Optional[str]:
    """Why lvl cannot be the level of a fact or rule, or None if it can."""
    err = V.validate_input(system, lvl)
    if err is not None:
        return f"invalid level: {err}"
    if V.LATTICES[system].is_bottom(lvl):
        return f"level {V.fmt(lvl)} must be above the bottom element"
    return None


def _check_level(p: _Parser, system: str, lvl, tok):
    err = _level_error(system, lvl)
    if err is not None:
        p.fail(err, tok)


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
    forms.  `Atom` objects are built only on request, once per id, with
    their hash set (`_ground_atom`), and share their `Constant`s.
    """

    def __init__(self):
        self.ids = {}          # pred -> {key: id}
        self.entries = []      # id -> (pred, key)
        self._atoms = {}       # id -> Atom, as built by `atoms` or given to `intern_atom`
        self._constants = _Constants()

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
        return self.atoms((aid,))[0]

    def atoms(self, ids) -> list:
        """The Atom of each id, in the order given."""
        built, entries = self._atoms, self.entries
        constant = self._constants.__getitem__
        out = []
        for aid in ids:
            atom = built.get(aid)
            if atom is None:
                pred, key = entries[aid]
                args = (constant(key),) if key.__class__ is str else tuple(map(constant, key))
                atom = built[aid] = _ground_atom(pred, args)
            out.append(atom)
        return out


class _Constants(dict):
    """Constant name -> `Constant`, made on first lookup."""

    def __missing__(self, name):
        constant = self[name] = Constant(name)
        return constant


def _ground_atom(pred: str, args: tuple) -> Atom:
    """Atom(pred, args) with the hash that `Atom.__hash__` caches on first
    use already set."""
    atom = Atom(pred, args)
    object.__setattr__(atom, "_hash", hash((pred, args)))
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
