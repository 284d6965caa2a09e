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
an offset for `Rule.line` and an error, a column only for an error.  Every
input file (program, proximity, function set) is read by one statement
loop, `_Parser.statements`, with the `%system` header and comma lists read
by `_Parser.system` and `_Parser.items`.  A `fact` statement written on one
line is read without tokens: `_FACT_RE`, matched at the statement's
offset, reads it whole, and `parse_program` takes it when it is valid as
it stands.  Every other statement, and every fact with an error, is read
by the general parser from the same offset, so the messages, lines and
columns of errors are the general parser's.

Grounding joins each rule's body atoms over crisp relations, the sets of
argument-name tuples of the atoms derived so far, in one semi-naive pass;
for a model check the relations hold the atoms present, and nothing is
derived; the full grounding runs each rule's plan that reads no atom.
Each join plan runs as a kernel compiled from Python source with one
nested loop per body atom and the plan's variables in locals
(`_kernel_source`), which interns the atoms of each instance in place and
stores the instance as it finds it; the heads it reports are widened
when it returns.  The source holds only the plan's shape, as integers,
so rules that differ only in their names share a kernel, kept in a
bounded cache for the life of the process.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Union

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
    """A rule or goal variable.  Like `ProximityRef` it is a frozen
    dataclass, equal only to its own class: as named tuples, `Variable("X")`,
    `Constant("X")` and `ProximityRef("X")` would all be ("X",), and `unify`,
    `query._pattern` and `query._TreeBuilder._fact_candidates` need them apart."""

    name: str

    def __str__(self):
        return self.name


class Constant(NamedTuple):
    """A constant symbol, the named tuple (name,): equal, hashed and ordered as that tuple."""

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


class Atom(NamedTuple):
    """An atom pred(args), the named tuple (pred, args): equal, hashed and
    ordered as that tuple.  It caches no hash, so a pickle read in a
    process with other string hashes hashes afresh there."""

    pred: str
    args: tuple = ()

    def __str__(self):
        if not self.args:
            return self.pred
        return f"{self.pred}({', '.join(str(a) for a in self.args)})"

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

    def order_error(self, order) -> Optional[str]:
        """What order, a list of rule numbers, must be, unless it is a
        permutation of the numbers 1..n of the n proper rules (None)."""
        n = len(self.proper_rules())
        if sorted(order) != list(range(1, n + 1)):
            return f"must be a permutation of 1..{n}"

    def predicates(self):
        """Map functor name -> arity over all rule heads and bodies; a
        predicate used with two arities is a ValueError."""
        arity = {}
        for r in self.rules:
            for atom in [r.head] + [lit.atom for lit in r.body]:
                if arity.setdefault(atom.pred, len(atom.args)) != len(atom.args):
                    raise ValueError(f"predicate {atom.pred!r} used with arities "
                                     f"{arity[atom.pred]} and {len(atom.args)}")
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

# `= level.` ending a statement on one line, and what follows it up to
# the next statement.  Its groups are the scalar level or the two numbers
# of a pair, which `_written_level` reads; a number, `_NUM`, has at most
# nine decimals.  Each piece reads as `_TOKEN_RE` would read it.
_NUM = r"(?:[0-9]+\.[0-9]{1,9}|[0-9]+|\.[0-9]{1,9})(?!\d)"
_LEVEL_TAIL = (r"=[ \t]*(?:(NUM)|\([ \t]*(NUM)[ \t]*,[ \t]*(NUM)[ \t]*\))[ \t]*\.(?!\d)"
               .replace("NUM", _NUM) + _SKIP)


def _written_level(scalar, m1, m2):
    return round(float(scalar), 9) if scalar else (round(float(m1), 9), round(float(m2), 9))


# A `fact` statement on one line, and what follows it up to the next
# statement.  The groups are the predicate, the argument text and those of
# the level, so the matched text has the tokens the general parser reads.
_FACT_RE = re.compile(
    r"""
    fact[ \t]+([A-Za-z][A-Za-z0-9_-]*)[ \t]*
    (?:\([ \t]*([A-Za-z][A-Za-z0-9_-]*(?:[ \t]*,[ \t]*[A-Za-z][A-Za-z0-9_-]*)*)[ \t]*\)[ \t]*)?
    """ + _LEVEL_TAIL,
    re.VERBOSE,
)

_NEWLINE_RE = re.compile("\n")

# a system's name in a program file: bipolar_a is written bipolar-a
_SYSTEM_NAMES = {system.replace("_", "-"): system for system in V.SYSTEMS}
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

    def end(self, message: str):
        """Fail with message unless the text is read to its end."""
        if self.tok[0] != "eof":
            self.fail(message)

    # --- what every file reader shares ---

    def statements(self, line_re=None, take=None):
        """The statements from the current token to the end of the text.
        At each statement's offset line_re, if given, is matched first, and
        take(match) reads the statement from the match and returns True, or
        returns False to leave it to the general parser.  For every other
        statement the parser is moved to its offset and its first token is
        yielded; the caller reads the statement's tokens before the next."""
        text, pos = self.text, self.tok[2]
        while True:
            if line_re is not None:
                m = line_re.match(text, pos)
                if m is not None and take(m):
                    pos = m.end()
                    continue
            if self.tok[2] != pos:
                self.seek(pos)
            if self.tok[0] == "eof":
                return
            yield self.tok
            pos = self.tok[2]

    def system(self) -> Optional[str]:
        """The value system of a `%system name.` header at the current
        token, read past; None when no header is there."""
        if not self.at("directive", "%system"):
            return None
        self.next()
        name = self.expect("ident")
        if name[1] not in _SYSTEM_NAMES:
            self.fail(f"unknown value system {name[1]!r}", name)
        self.expect("punct", ".")
        return _SYSTEM_NAMES[name[1]]

    def items(self, read) -> list:
        """What read() returns for each item of a comma list of at least one."""
        out = [read()]
        while self.at("punct", ","):
            self.next()
            out.append(read())
        return out

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
        self.next()
        args = self.items(self.term)
        self.expect("punct", ")")
        return Atom(pred, tuple(args))

    def term(self):
        name = self.expect("ident")[1]
        if name[0].isupper() and name not in self.declared:
            return Variable(name)
        return self.constants[name]


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
    system = p.system()
    if system is None:   # a first token that is no directive fails in expect
        p.fail("program must start with a %system header", p.expect("directive"))

    rules = []
    order = None
    warnings = []
    arities = {}
    fact_impl = V.LATTICES[system].fact_impl
    declared = p.declared
    constants = p.constants

    def note_arity(atom: Atom, tok_):
        old = arities.get(atom.pred)
        if old is not None and old != len(atom.args):
            p.fail(f"predicate {atom.pred!r} used with arity {len(atom.args)} but earlier with {old}",
                   tok_)
        arities[atom.pred] = len(atom.args)

    def take_fact(m) -> bool:
        pred, arg_text, scalar, m1, m2 = m.groups()
        names = arg_text.replace(" ", "").replace("\t", "").split(",") if arg_text else ()
        lvl = _written_level(scalar, m1, m2)
        if (_level_error(system, lvl) is None
                and (not arg_text or arg_text.islower()
                     or all(n in declared or not n[0].isupper() for n in names))
                and arities.setdefault(pred, len(names)) == len(names)):
            head = Atom(pred, tuple(map(constants.__getitem__, names)))
            rules.append(Rule(head, (), fact_impl, lvl, p.line(m.start())))
            return True
        return False

    def literal() -> Literal:
        negated = p.at("ident", "not")
        if negated:
            p.next()
        atom_tok = p.tok
        a = p.atom()
        note_arity(a, atom_tok)
        return Literal(a, negated)

    for t in p.statements(_FACT_RE, take_fact):
        if t[0] == "directive" and t[1] == "%const":
            p.next()
            declared.update(c[1] for c in p.items(lambda: p.expect("ident")))
            p.expect("punct", ".")
        elif t[0] == "directive" and t[1] == "%order":
            order_tok = p.next()
            order = p.items(p.integer)
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
            body = p.items(literal)
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

    prog = Program(system, rules, frozenset(declared), order, warnings)
    problem = order and prog.order_error(order)
    if problem:
        p.fail(f"%order {problem}, got {order}", order_tok)
    return prog


def _parse_impl(p: _Parser, system: str):
    tok = p.tok
    if p.at("punct", "("):
        p.next()
        a = p.expect("ident")[1]
        p.expect("punct", ",")
        b = p.expect("ident")[1]
        p.expect("punct", ")")
        impl = (a, b)
    else:
        impl = p.expect("ident")[1]
    if not Imp.is_compatible(impl, system):
        text = f"pair ({impl[0]}, {impl[1]})" if isinstance(impl, tuple) else repr(impl)
        p.fail(f"implication {text} is not valid for the {system} system", tok)
    return impl


def _level_error(system: str, lvl) -> Optional[str]:
    """Why lvl cannot be the level of a fact or rule, or None if it can."""
    err = V.validate_input(system, lvl)
    if err is not None:
        return f"invalid level: {err}"
    if V.lattice(system).is_bottom(lvl):
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

def herbrand(program: Program, extra_constants: Iterable[str] = ()):
    """Universe and base, the universe optionally extended with
    background-knowledge constants."""
    universe = set(program.constants()) | set(extra_constants)
    consts = sorted(universe)
    base = set()
    for name, arity in program.predicates().items():
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
    """Ground atoms numbered by dense int ids, 0, 1, 2, .. in order of entry.

    Each atom is keyed by its predicate and the tuple of its argument names,
    at every arity: the row format of the crisp relations and of the
    widening.  Atoms are entered by `intern_atom` or, in place, by the join
    kernels and the fan-out kernels (`kb._spread_source`).  The table holds
    no `Atom`: `atoms` builds new ones on request, on the table's shared
    `Constant`s.
    """

    def __init__(self):
        self.ids = {}          # pred -> {key: id}
        self.entries = []      # id -> (pred, key)
        self._constants = _Constants()

    def __len__(self):
        return len(self.entries)

    def intern_atom(self, atom: Atom) -> int:
        """The id of a ground Atom, entered when it has none."""
        key = _key(atom)
        ids = self.ids.setdefault(atom.pred, {})
        aid = ids.get(key)
        if aid is None:
            aid = ids[key] = len(self.entries)
            self.entries.append((atom.pred, key))
        return aid

    def atom(self, aid: int) -> Atom:
        return self.atoms((aid,))[0]

    def atoms(self, ids) -> list:
        """A new Atom for each id, in the order given."""
        entries, constant = self.entries, self._constants.__getitem__
        return [Atom(pred, tuple(map(constant, key)))
                for pred, key in map(entries.__getitem__, ids)]


class _Constants(dict):
    """Constant name -> `Constant`, made on first lookup."""

    def __missing__(self, name):
        constant = self[name] = Constant(name)
        return constant


def _key(atom: Atom) -> tuple:
    """The key of a ground atom in an `AtomTable`: its argument names."""
    return tuple(t.name for t in atom.args)


def _rule_slots(rule: Rule):
    """(nvars, constants, head, body) of a rule.  A slot is a rule variable
    (0, 1, .. in `Rule.variables` order) or, after them, one of the rule's
    own constants, whose names constants lists; head and body hold the slot
    of each argument of the head and of each body atom."""
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
        return tuple(out)

    head = slots(rule.head)
    body = [slots(lit.atom) for lit in rule.body]
    return len(variables), tuple(constants), head, body


def decode_instance(atom, instance, impl) -> GroundRule:
    """The GroundRule an interned instance of `ground` stands for: atom maps
    an id to its Atom, and impl is the implication of its rule."""
    head, body, _, level, rule_pos = instance
    literals = tuple(Literal(atom(aid)) if aid >= 0 else Literal(atom(~aid), True)
                     for aid in body)
    return GroundRule(atom(head), literals, impl, level, rule_pos)


class _Relations:
    """Crisp relations: per predicate a set of argument-name tuples, with an
    index per pattern of bound argument positions, built on first use and
    kept up to date by `extend`.  An index maps the name at its one
    position, or the tuple of names at its positions, to a list of rows."""

    def __init__(self):
        self.rows = defaultdict(set)       # pred -> {name tuple}
        self.indexes = defaultdict(dict)   # pred -> {positions: (pick, index)}

    def extend(self, pred, new):
        """Add rows that pred does not hold yet."""
        self.rows[pred] |= new
        for pick, index in self.indexes[pred].values():
            for names in new:
                key = pick(names)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [names]
                else:
                    bucket.append(names)

    def index(self, pred, positions):
        """The index of pred's rows on the (non-empty) positions."""
        patterns = self.indexes[pred]
        entry = patterns.get(positions)
        if entry is None:
            pick = operator.itemgetter(*positions)
            index = {}
            for names in self.rows[pred]:
                index.setdefault(pick(names), []).append(names)
            entry = patterns[positions] = (pick, index)
        return entry[1]


# How a join step treats an argument position: bind the slot's variable,
# check that the row holds the slot's value, or nothing, as the index
# lookup that found the row already matched it.
_BIND, _CHECK, _KEYED = 0, 1, 2
# Python nests at most 20 loops in one function; a kernel runs at most this
# many steps and hands its bindings on to a kernel for the steps after them.
_STEPS_PER_KERNEL = 16
# The parameters of a kernel after R and K (see `_kernel_source`).
_PARAMS = "universe, names, seen, new, E, A, I"


def _tup(items) -> str:
    """The source of a tuple display of the given item sources."""
    return "(" + "".join(f"{item}, " for item in items) + ")"


def _values(slots) -> str:
    """The source of the tuple of the locals of the given slots."""
    return _tup(f"v{s}" for s in slots)


@functools.lru_cache(maxsize=256)
def _kernel(shape, first: int = 0):
    """The join kernel of a plan shape (see `_kernel_source`), compiled
    once per shape and first step."""
    namespace = {"product": itertools.product}
    preset, steps = shape[:2]
    last = first + _STEPS_PER_KERNEL
    if last < len(steps):
        namespace["tail"] = _kernel((_tail_preset(preset, steps, first, last),) + shape[1:], last)
    exec(compile(_kernel_source(shape, first), "<join kernel>", "exec"), namespace)
    return namespace["kernel"]


def _tail_preset(preset, steps, first, last):
    """The slots bound after steps first .. last - 1."""
    bound = set(preset)
    for _, specs in steps[first:last]:
        bound.update(s for _, s in specs)
    return tuple(sorted(bound))


def _kernel_source(shape, first: int = 0) -> str:
    """The source of the join kernel of a plan shape, running its steps from
    first on.

    A shape is (preset, steps, rest, nvars, head, body, widening), integers
    and flags only: preset are the slots whose values the kernel is given
    (in K); each step is (key, specs), with the slots that make its index
    key (none for a scan of the rows) and one (action, slot) per argument
    position; rest are the slots of variables that no step binds, nvars the
    number of rule variables (slots 0 .. nvars - 1), head the slots of the
    head's arguments, body one (slots, negated) per body atom in textual
    order, and widening whether the kernel reports heads.  The kernel is
    called as

        kernel(R, K, universe, names, seen, new, E, A, I)

    with R the row set or index each step reads.  Each step is one loop,
    or a membership test when it binds no slot, with the value of each
    slot in a local; a name it binds must be in universe.  Variables in
    rest range over names.  A complete binding whose substitution (the
    tuple of variable values) is not in the dict seen is emitted: with
    widening, the head's names are added to the set new; the head and body
    atoms are interned in place by the tuple of their names, A holding the
    (pred, `AtomTable.ids` of pred) of each and E the table's `entries`,
    which a missing atom is appended to; and seen maps the substitution to
    (head id, body ids) + I, with ~id for a negated atom.  After `_STEPS_PER_KERNEL` steps the
    bindings go on to the kernel of the later steps, `tail`.
    """
    preset, steps, rest, nvars, head, body, widening = shape
    last = min(len(steps), first + _STEPS_PER_KERNEL)
    lines = [f"def kernel(R, K, {_PARAMS}):",
             f"    {_values(preset)} = K",
             f"    {_tup(f'r{k}' for k in range(first, last))} = R[{first}:{last}]"]
    atoms = [head] + [slots for slots, _ in body]
    if last == len(steps):
        lines += [f"    {_tup(f'(p{j}, i{j})' for j in range(len(atoms)))} = A",
                  "    fn, lvl, pos = I"]
    pad = "    "
    for k in range(first, last):
        key, specs = steps[k]
        if all(action == _KEYED for action, _ in specs):
            lines.append(f"{pad}if {_values(key)} in r{k}:")
        else:
            targets, tests, binds = [], [], []
            for pos, (action, slot) in enumerate(specs):
                if action == _BIND:
                    targets.append(f"v{slot}")
                    binds.append(f"v{slot} not in universe")
                elif action == _CHECK:
                    targets.append(f"x{pos}")
                    tests.append(f"x{pos} != v{slot}")
                else:
                    targets.append("_")
            source = (f"r{k}" if not key else
                      f"r{k}.get(v{key[0]}, ())" if len(key) == 1 else
                      f"r{k}.get({_values(key)}, ())")
            lines.append(f"{pad}for {_tup(targets)} in {source}:")
            if tests or binds:
                lines += [f"{pad}    if {' or '.join(tests + binds)}:", f"{pad}        continue"]
        pad += "    "
    if last < len(steps):
        bound = _values(_tail_preset(preset, steps, first, last))
        lines.append(f"{pad}tail(R, {bound}, {_PARAMS})")
        return "\n".join(lines) + "\n"
    keys = [_values(slots) for slots in atoms]
    if rest:
        lines.append(f"{pad}for {_values(rest)} in product(names, repeat={len(rest)}):")
        pad += "    "
    lines += [f"{pad}s = {_values(range(nvars))}", f"{pad}if s not in seen:"]
    pad += "    "
    if widening:
        lines += [f"{pad}h = {'s' if head == tuple(range(nvars)) else _values(head)}",
                  f"{pad}new.add(h)"]
        keys[0] = "h"
    for j, key in enumerate(keys):
        lines += [f"{pad}a{j} = i{j}.get({key})",
                  f"{pad}if a{j} is None:",
                  f"{pad}    a{j} = i{j}[{key}] = len(E)",
                  f"{pad}    E.append((p{j}, {key}))"]
    ids = _tup(f"~a{j}" if negated else f"a{j}" for j, (_, negated) in enumerate(body, 1))
    lines.append(f"{pad}seen[s] = (a0, {ids}, fn, lvl, pos)")
    return "\n".join(lines) + "\n"


class _RuleJoin:
    """Joins over the body atoms of one rule, negated ones included, and
    emits the rule's instances as it finds them.

    A slot is a rule variable or one of the rule's own constants (see
    `_rule_slots`).  A plan visits the body atoms in a given order; each
    step looks its atom up by the slots already bound and binds the rest,
    so a binding is complete exactly when every body atom it names is in
    the relations.  Variables that no body atom binds range over the whole
    universe, and so do all variables of the plan that reads no atom.  Each
    plan runs as a compiled kernel (`_kernel`), which sees the plan's shape
    only: no predicate, constant or variable name is in its source.  It
    emits into the dict seen, with atoms interned in table and tail the
    instance's (level function, rule level, rule position).  With widening,
    it reports the head of each instance in its set new, which `_instances`
    widens and empties.
    """

    def __init__(self, rule: Rule, universe: set, names: list, table: AtomTable, seen: dict,
                 tail: tuple, widening: bool = False):
        self.nvars, self.constants, head, body = _rule_slots(rule)
        self.pred = rule.head.pred
        self.atoms = [(lit.atom.pred, slots) for lit, slots in zip(rule.body, body)]
        self.emit = (head, tuple((slots, lit.negated) for lit, slots in zip(rule.body, body)),
                     widening)
        self.new = set()
        ids = table.ids
        atom_ids = tuple((pred, ids.setdefault(pred, {}))
                         for pred in [rule.head.pred] + [pred for pred, _ in self.atoms])
        self.args = (self.constants, universe, names, seen, self.new, table.entries, atom_ids,
                     tail)
        self.plans = {}

    def _shape(self, order):
        """(shape, lookups) of the plan visiting the atoms in order: the
        first step scans its rows, checking bound slots; a later step looks
        its rows up by the positions of its bound slots, or tests its row
        for membership when all are bound.  lookups holds each step's
        (pred, positions), with no positions where it reads the rows."""
        preset = tuple(range(self.nvars, self.nvars + len(self.constants)))
        bound = set(preset)
        steps, lookups = [], []
        for k, i in enumerate(order):
            pred, slots = self.atoms[i]
            specs, key, positions = [], [], []
            for pos, s in enumerate(slots):
                if s in bound and k:
                    specs.append((_KEYED, s))
                    key.append(s)
                    positions.append(pos)
                elif s in bound or s in slots[:pos]:
                    specs.append((_CHECK, s))
                else:
                    specs.append((_BIND, s))
            bound.update(slots)
            steps.append((tuple(key), tuple(specs)))
            lookups.append((pred, () if len(positions) == len(slots) else tuple(positions)))
        rest = tuple(s for s in range(self.nvars) if s not in bound)
        return (preset, tuple(steps), rest, self.nvars) + self.emit, lookups

    def solve(self, i, rows, relations: _Relations):
        """Run the plan that reads atom i first, from the row set rows, and
        the other atoms after it in textual order, from relations; with i
        None, the plan that reads no atom."""
        plan = self.plans.get(i)
        if plan is None:
            n = len(self.atoms)
            shape, lookups = self._shape([] if i is None else [i] + [k for k in range(n) if k != i])
            sources = [relations.index(pred, positions) if positions else relations.rows[pred]
                       for pred, positions in lookups[1:]]
            plan = self.plans[i] = (_kernel(shape), sources)
        kernel, sources = plan
        kernel((rows, *sources), *self.args)


def _level_fn(rule: Rule, system):
    """The rule's `implications.bound_level` in system (without one, its
    implication), or the ValueError that `_instances` raises if the rule
    has instances."""
    if system is None:
        return rule.impl
    try:
        return Imp.bound_level(rule.impl, system)
    except ValueError as error:
        return error


def _unwidened(pred, heads):
    """The plain engine's widening: the heads alone, merged by one set union."""
    return ((pred, heads),)


def _instances(program: Program, names: list, table: AtomTable, system, widen, present):
    """Per rule, the interned instances of `ground` in substitution order,
    each emitted by a join kernel as it finds it; a ground fact has the one
    instance of the empty substitution, its head interned by
    `AtomTable.intern_atom`.  Without widen and present, each rule runs its
    plan that reads no atom.  Otherwise one semi-naive pass over crisp
    relations runs the joins, and it alone keeps the pass's books.  The
    relations start from the heads of the facts and of the rules that read
    no atom, passed through widen, or from the ground atoms of present with
    their predicate's arity, which derive nothing.  The first round runs
    each join's first plan once over them.  Each later round joins the
    atoms first derived in the round before, as plain row sets per
    predicate, against all atoms derived so far: it runs only the plans
    that read a predicate of that delta, in rule and then atom order, so a
    round costs its delta.  When a join's run has reported heads, widen is
    called once on those not widened before, and of the names it returns,
    those of a predicate some join reads that the relations do not hold
    yet are merged into the next delta by one set union, so no row joins
    twice."""
    arity = program.predicates()   # a predicate used with two arities raises
    universe = set(names)
    relations = _Relations()
    widened = defaultdict(set)     # pred -> the heads already widened
    found = defaultdict(set)       # pred -> the atoms first derived in the current round
    heads = defaultdict(set)       # pred -> the heads of facts and of rules that read no atom
    full = widen is None and present is None
    seens = [{} for _ in program.rules]
    level_fns = [_level_fn(rule, system) for rule in program.rules]
    joins = []
    for pos, (rule, seen, level_fn) in enumerate(zip(program.rules, seens, level_fns)):
        if not rule.body and not rule.head.variables():
            seen[()] = (table.intern_atom(rule.head), (), level_fn, rule.level, pos)
            heads[rule.head.pred].add(_key(rule.head))
            continue
        join = _RuleJoin(rule, universe, names, table, seen, (level_fn, rule.level, pos),
                         widen is not None)
        if join.atoms and not full:
            joins.append(join)
        else:
            join.solve(None, None, relations)
            heads[join.pred] |= join.new
    readers = defaultdict(list)    # pred -> the (join, atom position) pairs reading it
    for j, join in enumerate(joins):
        for i, (pred, _) in enumerate(join.atoms):
            readers[pred].append((j, i))

    def flush(pred, new):
        """Widen the heads in new that pred has not widened yet into found,
        keeping the names that some join reads and the relations lack, and
        empty new."""
        done = widened[pred]
        new -= done
        if new:
            done |= new
            for q, synonyms in widen(pred, new):
                if q in readers:
                    fresh = synonyms - relations.rows[q]
                    if fresh:
                        found[q] |= fresh
        new.clear()

    if widen is not None:
        for pred, new in heads.items():
            flush(pred, new)
    elif present is not None:
        for atom in present:
            if arity.get(atom.pred) == len(atom.args) and atom.is_ground():
                found[atom.pred].add(_key(atom))
    first = True
    while found:
        delta, found = found, defaultdict(set)
        for pred, new in delta.items():
            relations.extend(pred, new)
        for j, i in sorted(pair for pred in delta for pair in readers.get(pred, ())
                           if not (first and pair[1])):
            join = joins[j]
            join.solve(i, delta[join.atoms[i][0]], relations)
            if join.new:
                flush(join.pred, join.new)
        first = False
    out = []
    for seen, level_fn in zip(seens, level_fns):
        if seen and isinstance(level_fn, ValueError):
            raise level_fn
        out.append([seen[s] for s in sorted(seen)])
    return out


def ground(program: Program, universe=None, widen=None, table=None, present=None):
    """Ground instances per rule, in rule order and then substitution order
    (the rule's variables in first-occurrence order); equal ground atoms
    are shared across all of them.

    With an `AtomTable`, the one that `engine._evaluate` passes, every
    ground atom is interned in it, in the order the joins find it, and
    each instance is the tuple (head id, body, level function, rule level,
    rule position): body holds the id of each positive body atom and the
    complement ~id of each negated one, and the level function, which
    returns the head level alone, is the rule's `implications.bound_level`;
    an implication not valid for the system is a ValueError only for a
    rule that has instances.  No `Atom`, `Literal` or `GroundRule` is
    built.  Without one, the atoms are interned in a table of the call's
    own and each instance is decoded to its `GroundRule`.

    Without widen, every instance over the universe.  With widen, only the
    instances whose every body atom, negated ones included, is derivable:
    in the least set that holds the atoms widen(pred, heads) returns for
    the fact heads and for the head of each instance whose body atoms are
    derivable.  heads is a set of name tuples of pred, and widen returns
    (q, set of name tuples) pairs, the heads themselves among them;
    grounding ignores the names its relations already hold and the names
    of predicates that no rule body reads.  An instance with an
    underivable body atom is never applicable, so it changes no
    evaluation; the survivors keep their relative order.

    With present (and no widen), an iterable of Atoms, only the instances
    whose every body atom, negated ones included, is among them: the
    instances that can fire in an interpretation holding those atoms.

    In every mode the join kernels build each instance as they find it
    (`_instances`).  A predicate used with two arities is a ValueError.
    """
    if universe is None:
        universe = program.constants()
    decode = table is None
    if decode:
        table = AtomTable()
    grounded = _instances(program, sorted(universe), table, None if decode else program.system,
                          widen, present)
    if not decode:
        return grounded
    atom = table.atoms(range(len(table))).__getitem__   # built once, so shared
    return [[decode_instance(atom, g, r.impl) for g in rules]
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

