"""The goal and level fast paths of `query` against the general parser.

`query.parse_goal` reads a goal by `query._GOAL_RE` and `query.parse_level`
a level by `query._LEVEL_RE`; a text either pattern rejects, a goal of the
wrong arity and a level invalid in its system go to the general parser.
On generated goals and levels, each must give what `reference_parse_goal`
and `reference_parse_level` give, the general parser alone with each arity
found by scanning the rules: an equal atom with arguments of the same
classes, an equal level, or a `ParseError` of the same text, line and
column."""

import dataclasses
import random

from mvdatalog import query
from mvdatalog import values as V
from mvdatalog.kb import BackgroundKnowledge, build_kb, parse_proximity_file
from mvdatalog.lang import Atom, Constant, Literal, ParseError, Rule, Variable, parse_program
from mvdatalog.query import parse_goal, parse_level

from conftest import load_workloads
from helpers import reference_parse_goal, reference_parse_level

GOAL_PROGRAM = """%system fuzzy.
%const M, Big-One.
fact p(a) = 0.5.
fact q(a, b) = 0.5.
fact z = 0.5.
fact a-b_c(a, M) = 0.5.
rule r(X) <- q(X, Y), p(Y) : godel, 0.9.
"""

# pp and x-y are named by the predicate proximity alone
GOAL_PROX = """%system fuzzy.
%domain predicates.
pp ~ q = 0.8.
x-y ~ p = 0.7.
"""

X, Y = Variable("X"), Variable("Y")

# the arity each predicate of GOAL_PROGRAM and GOAL_PROX takes, and names
# in no program or of no token
ARITIES = {"p": 1, "q": 2, "z": 0, "r": 1, "a-b_c": 2, "pp": 2, "x-y": 1}
PREDS = list(ARITIES) + ["zz", "Q", "p1", "é", "1"]
ARGS = ["a", "b", "X", "Y_1", "M", "Big-One", "big-one", "c-d", "x1"]
BAD_ARGS = ["_x", "1", "0.5", "٣", "é", "aé", ""]
SEPS = ["", "", " ", "\t", "\n", "  ", " # c, d(e)\n", "\t#\n  ", "\r\n"]
TAILS = [" ", "\n# end", " q", ".", ", r(a)", " )", "(", "()"]


def _outcome(parse, *args):
    """What a parser makes of a text, in a form that compares exactly."""
    try:
        got = parse(*args)
    except ParseError as error:
        return type(error), str(error), error.line, error.col
    if isinstance(got, Atom):
        return got, [type(t) for t in got.args]
    return got


def _goal_text(rng) -> str:
    """A goal from token pieces with whitespace and comments between them,
    most often in its predicate's arity: zero-arity goals, an empty `()`,
    a missing `)`, arguments of no name, trailing tokens."""
    sep = lambda: rng.choice(SEPS)
    pred = rng.choice(PREDS)
    count = ARITIES[pred] if pred in ARITIES and rng.random() < 0.6 else rng.randrange(4)
    text = sep() + pred
    if count or rng.random() < 0.3:
        args = (sep() + "," + sep()).join(rng.choice(BAD_ARGS if rng.random() < 0.05 else ARGS)
                                         for _ in range(count))
        text += sep() + "(" + sep() + args + sep() + (")" if rng.random() < 0.95 else "")
    return text + sep() + (rng.choice(TAILS) if rng.random() < 0.2 else "")


def _goal_programs():
    """The parsed program, with and without its knowledge base, and the same
    program with API-built rules that use p and w in a second arity, w's
    last occurrence in a body after its head."""
    program = parse_program(GOAL_PROGRAM)
    term_prox, pred_prox, _ = parse_proximity_file(GOAL_PROX)
    kb = build_kb(program, BackgroundKnowledge(term_prox, pred_prox))
    mixed = parse_program(GOAL_PROGRAM)
    mixed.rules += [Rule(Atom("p", (X, Y)), (Literal(Atom("q", (X, Y))),), "godel", 0.9),
                    Rule(Atom("w", (X,)), (Literal(Atom("w", (X, Y))),), "godel", 0.9)]
    return [(program, None), (program, kb), (mixed, None)]


class _MatchSpy:
    """Stands in for a fast-path pattern and counts the texts it matches."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.matched = 0

    def match(self, text):
        m = self.pattern.match(text)
        self.matched += m is not None
        return m


def test_goals_agree_with_the_general_parser(monkeypatch):
    rng = random.Random(39)
    texts = [_goal_text(rng) for _ in range(3000)] + [
        "p(a)", "p(M)", "p(Big-One)", "p(X)", "q(X,Y)", "z", " z ", "z()", "p()", "p(a) q",
        "p(1)", "p(a, )", "p(a", "p(a))", "r(X) # goal\n", "q(X, # a, b\nY)", "pp(X, Y)",
        "pp(X)", "x-y(a)", "x-y(a, b)", "w(X)", "w(X, Y)", "é(a)", "p(é)", "p(a٣)", ""]
    spy = _MatchSpy(query._GOAL_RE)
    monkeypatch.setattr(query, "_GOAL_RE", spy)
    outcomes = []
    for program, kb in _goal_programs():
        for text in texts:
            got = _outcome(parse_goal, text, program, kb)
            assert got == _outcome(reference_parse_goal, text, program, kb), (text, kb)
            outcomes.append(got)
    # the corpus reaches atoms, arity errors on texts the pattern reads, and
    # errors of the general parser's own
    atoms = sum(isinstance(got[0], Atom) for got in outcomes)
    arity = sum("arity" in str(got[1]) for got in outcomes)
    assert 0.2 * len(outcomes) < atoms < 0.8 * len(outcomes)
    assert arity > 100 and len(outcomes) - atoms - arity > 1000
    assert spy.matched > atoms


def _level_texts(rng, system):
    bottom, top = V.fmt(V.bottom(system)), V.fmt(V.top(system))
    fixed = [bottom, top, "0", "1", "0.5", "1.5", "2", ".5", "5.", "05", "0.123456789",
             "0.1234567891", "0.9999999999", "1.000000000", "(0.2, 0.3)", "(0.3, 0.2)",
             "(0.8, 0.3)", "(0.7, 0.2)", "(0, 1)", "(1, 0)", "(0, 0)", "(1, 1)", "(0.2,0.3)",
             "( 0.2 ,\n0.3 )", " 0.5 # c\n", "(0.1234567891, 0.5)", "(0.5, 0.123456789)",
             "1.", "(0.2,", ".5 .", "0.5 0.6", "(0.2, 0.3) x", "0.5.", "()", "(0.2)",
             "(0.2, 0.3, 0.4)", "-0.1", "1e3", "٣", "0.٣", ""]
    digits = lambda: "".join(rng.choice("0123456789")
                             for _ in range(rng.choice([1, 1, 2, 3, 9, 10, 11])))
    number = lambda: rng.choice("0000012") + rng.choice(["." + digits()] * 8 + ["", "."])
    sep = lambda: rng.choice(SEPS)
    drawn = [sep() + (number() if rng.random() < 0.4
                      else "(" + sep() + number() + sep() + "," + sep() + number() + sep() + ")")
             + sep() for _ in range(300)]
    return fixed + drawn


def test_levels_agree_with_the_general_parser(monkeypatch):
    rng = random.Random(39)
    spy = _MatchSpy(query._LEVEL_RE)
    monkeypatch.setattr(query, "_LEVEL_RE", spy)
    values = errors = 0
    for system in V.SYSTEMS:
        for text in _level_texts(rng, system):
            got = _outcome(parse_level, text, system)
            assert got == _outcome(reference_parse_level, text, system), (system, text)
            errors += isinstance(got, tuple) and got[0] is ParseError
            values += not (isinstance(got, tuple) and got[0] is ParseError)
    assert values > 200 and errors > 200
    assert spy.matched > values


def test_goal_arity_follows_edits_to_the_program():
    """Between two goals the program's rules are appended to, replaced in
    place and replaced as a list; each goal takes the arity of the rules
    as they stand.  The arities kept on a program change none of its
    comparison, repr or `asdict`."""
    program = parse_program(GOAL_PROGRAM)
    other = parse_program(GOAL_PROGRAM)
    texts = ["p(a)", "p(X, Y)", "q(X, Y)", "q(a)", "new(X)", "new(X, Y)", "z", "z(a)"]

    def outcomes():
        got = [_outcome(parse_goal, text, program) for text in texts]
        assert got == [_outcome(reference_parse_goal, text, program) for text in texts]
        parse_goal("p(a)", other)       # another program's goal between
        return got

    seen = [outcomes()]
    fresh = parse_program(GOAL_PROGRAM)
    assert (program, repr(program), dataclasses.asdict(program)) == (
        fresh, repr(fresh), dataclasses.asdict(fresh))
    program.rules.append(Rule(Atom("p", (X, Y)), (Literal(Atom("q", (X, Y))),), "godel", 0.9))
    seen.append(outcomes())
    program.rules[0] = dataclasses.replace(program.rules[0],
                                           head=Atom("new", (Constant("a"), Constant("b"))))
    seen.append(outcomes())
    program.rules = [Rule(Atom("z", (Constant("a"),)), (), "godel", 0.5),
                     Rule(Atom("new", (Constant("a"),)), (), "godel", 0.5)]
    seen.append(outcomes())
    assert all(before != after for before, after in zip(seen, seen[1:]))


def test_pool_goals_and_levels_take_the_fast_paths(monkeypatch):
    """Every goal and level of the query workload is read by its pattern."""
    W = load_workloads()
    texts = W.query_input(W.query_variant(1))
    program = parse_program(texts.program)
    goals, levels = _MatchSpy(query._GOAL_RE), _MatchSpy(query._LEVEL_RE)
    monkeypatch.setattr(query, "_GOAL_RE", goals)
    monkeypatch.setattr(query, "_LEVEL_RE", levels)
    monkeypatch.setattr(query, "_Parser", None)
    pool = W.query_goals()
    for goal_text, at_least in pool:
        assert parse_goal(goal_text, program) == reference_parse_goal(goal_text, program)
        if at_least is not None:
            assert parse_level(at_least, V.IVS) == reference_parse_level(at_least, V.IVS)
    assert goals.matched == len(pool)
    assert levels.matched == sum(at_least is not None for _, at_least in pool)
