import random
import re

import pytest

from mvdatalog import lang
from mvdatalog import values as V
from mvdatalog.lang import (Atom, Constant, ParseError, Program, ProximityRef,
                            Rule, SafetyError, Variable, check_safety, ground,
                            herbrand, parse_program, print_program, unify)

from conftest import DATA, load_program, load_workloads, read
from helpers import random_program


def test_parse_minimal_fact():
    prog = parse_program("%system fuzzy.\nfact p(a) = 0.8.\n")
    assert prog.system == V.FUZZY
    assert prog.facts() == [(Atom("p", (Constant("a"),)), 0.8)]


def test_parse_ex1(ex1):
    assert len(ex1.facts()) == 2
    impls = [r.impl for _, _, r in ex1.proper_rules()]
    assert impls == ["lukasiewicz", "godel", "kleene"]
    assert ex1.warnings  # rule 3 downgraded to a warning in paper-examples mode


def test_strict_mode_rejects_ex1():
    with pytest.raises(SafetyError):
        load_program("ex1.mvd", safety="strict")


def test_head_variable_safety_is_always_an_error():
    text = "%system fuzzy.\nrule s(X) <- q(Y) : godel, 0.5.\n"
    for mode in ("strict", "paper-examples"):
        with pytest.raises(SafetyError):
            parse_program(text, safety=mode)


def test_check_safety_reports():
    from mvdatalog.lang import Literal
    ok = Rule(Atom("q", (Variable("X"), Variable("Y"))),
              (Literal(Atom("p", (Variable("X"),))),
               Literal(Atom("r", (Variable("Y"),)))))
    assert check_safety(ok).ok
    neg = Rule(Atom("q", (Variable("X"), Variable("Y"))),
               (Literal(Atom("q", (Variable("Y"), Variable("X"))), negated=True),))
    rep = check_safety(neg)
    assert not rep.ok and rep.unsafe_negative_vars == ("X", "Y")
    unbound = Rule(Atom("p", (Variable("X"),)), ())
    assert check_safety(unbound).unsafe_head_vars == ("X",)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_program("%system fuzzy.\nfact p(a) = .\n")
    assert e.value.line == 2
    with pytest.raises(ParseError, match="value system"):
        parse_program("%system crisp.\n")
    with pytest.raises(ParseError, match="arity"):
        parse_program("%system fuzzy.\nfact p(a) = 0.5.\nfact p(a, b) = 0.5.\n")
    with pytest.raises(ParseError, match="not valid"):
        parse_program("%system fuzzy.\nfact p(a) = 0.5.\nrule q(X) <- p(X) : fk, 0.5.\n")
    with pytest.raises(ParseError, match="level"):
        parse_program("%system fuzzy.\nfact p(a) = 1.5.\n")
    with pytest.raises(ParseError, match="bottom"):
        parse_program("%system ifs.\nfact p(a) = (0, 1).\n")
    with pytest.raises(ParseError, match="ifs pair"):
        parse_program("%system ifs.\nfact p(a) = (0.8, 0.3).\n")
    with pytest.raises(ParseError, match="ground"):
        parse_program("%system fuzzy.\nfact p(X) = 0.5.\n")
    with pytest.raises(ParseError, match="permutation"):
        parse_program("%system fuzzy.\n%order 1,1.\nfact p(a) = 0.5.\n"
                      "rule q(X) <- p(X) : godel, 0.5.\nrule r(X) <- q(X) : godel, 0.5.\n")


def test_const_directive():
    prog = parse_program("%system fuzzy.\n%const M.\nfact p(M) = 0.5.\n"
                         "rule q(X) <- p(X) : godel, 0.5.\n")
    assert Constant("M") in prog.rules[0].head.args
    assert prog.rules[1].body[0].atom.args == (Variable("X"),)


def test_herbrand_ex1(ex1):
    universe, base = herbrand(ex1)
    assert universe == {"a", "b"}
    assert len(base) == 10  # p,r,s over 2 constants plus q over 4 pairs


def test_herbrand_empty_program():
    prog = parse_program("%system fuzzy.\n")
    assert herbrand(prog) == (set(), set())


def test_herbrand_with_extras(ex23_kb):
    universe, base = herbrand(ex23_kb.program,
                              extra_constants=ex23_kb.bk.term_prox.symbols)
    assert universe == {"B", "M", "V"}
    # li occurs only in the background knowledge; the consequence derives it
    from mvdatalog.kb import consequence
    atoms = {a.pred for a in consequence(ex23_kb).interpretation.entries}
    assert "li" in atoms


def test_ground_counts(ex12i):
    prog = parse_program("%system fuzzy.\nfact p(a) = 0.5.\nfact r(b) = 0.5.\n"
                         "rule q(X, Y) <- p(X), r(Y) : godel, 0.5.\n")
    grounded = ground(prog, {"a", "b"})
    assert [len(g) for g in grounded] == [1, 1, 4]
    rule2 = ex12i.rules[-1]
    from mvdatalog.lang import ground_rule
    assert len(ground_rule(rule2, {"a", "b", "c", "d", "e"})) == 125


def test_ground_instances_are_variable_free():
    rng = random.Random(11)
    for _ in range(20):
        prog = random_program(rng, rng.choice([V.FUZZY, V.IFS, V.IVS]))
        universe = prog.constants()
        total = 0
        for rules, rule in zip(ground(prog, universe), prog.rules):
            for g in rules:
                assert g.head.is_ground()
                assert all(lit.atom.is_ground() for lit in g.body)
            total += len(rules)
        expected = sum(max(1, len(universe)) ** len(r.variables()) if r.variables() else 1
                       for r in prog.rules)
        assert total == expected


def test_unify_cases():
    assert unify(Atom("li", (Constant("M"), Variable("X"))),
                 Atom("li", (Constant("M"), Constant("V")))) == {Variable("X"): Constant("V")}
    assert unify(Atom("p", (Constant("a"),)), Atom("p", (Constant("b"),))) is None
    assert unify(Atom("p", (Constant("c"),)), Atom("p", (ProximityRef("c"),))) == {}
    assert unify(Atom("p", (Constant("c"),)), Atom("p", (ProximityRef("d"),))) is None
    assert unify(Atom("p", (Constant("a"),)), Atom("q", (Constant("a"),))) is None
    # repeated variables must bind consistently
    assert unify(Atom("p", (Variable("X"), Variable("X"))),
                 Atom("p", (Constant("a"), Constant("b")))) is None
    theta = unify(Atom("p", (Variable("X"), Variable("X"))),
                  Atom("p", (Variable("Y"), Constant("a"))))
    assert theta[Variable("X")] == Constant("a")


def test_print_parse_round_trip():
    for name, mode in (("ex1.mvd", "paper-examples"), ("ex12i.mvd", "strict"),
                       ("ex12b.mvd", "strict"), ("ex23.mvd", "strict"),
                       ("ex17.mvd", "strict")):
        prog = load_program(name, mode)
        again = parse_program(print_program(prog), safety=mode)
        assert again.system == prog.system
        assert again.rules == prog.rules
        assert again.declared_constants == prog.declared_constants
    rng = random.Random(12)
    for _ in range(30):
        prog = random_program(rng, rng.choice(list(V.SYSTEMS)))
        again = parse_program(print_program(prog))
        assert again.rules == prog.rules


def test_number_precision():
    prog = parse_program("%system fuzzy.\nfact p(a) = 0.123456789.\n")
    assert prog.facts()[0][1] == 0.123456789
    with pytest.raises(ParseError, match="decimal"):
        parse_program("%system fuzzy.\nfact p(a) = 0.1234567891.\n")


def test_rules_carry_their_source_line():
    text = ("# a program\n%system fuzzy.\n\n# facts\nfact p(a) = 0.5.\n"
            "rule q(X) <-\n    p(X)\n    : godel, 0.5.\n"
            "fact p(b) = 0.6.  # trailing comment\n# comment\n\n"
            "fact\n  p(c) = 0.7.\nfact p(d) = 0.8.\r\nfact p(e) = 0.9.\r\n"
            "rule r(X) <- q(X) : godel, 0.5. fact p(f) = 1.\n")
    prog = parse_program(text)
    assert [str(r.head) for r in prog.rules] == [
        "p(a)", "q(X)", "p(b)", "p(c)", "p(d)", "p(e)", "r(X)", "p(f)"]
    assert [r.line for r in prog.rules] == [5, 6, 9, 13, 14, 15, 16, 16]


class _MatchSpy:
    """Stands in for `lang._FACT_RE` and counts the statements it matches."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.matched = 0

    def match(self, text, pos):
        m = self.pattern.match(text, pos)
        self.matched += m is not None
        return m


def _split_facts(text):
    """The text with every line that starts a `fact` statement broken after
    the keyword, a form the fact path never matches, and a map from the
    lines of that text back to the lines of the given one."""
    lines, back = [], {}
    for number, line in enumerate(text.split("\n"), 1):
        parts = ["fact", line[5:]] if line.startswith("fact ") else [line]
        for part in parts:
            lines.append(part)
            back[len(lines)] = number
    return "\n".join(lines), back


def _programs():
    W = load_workloads()
    texts = [W.closure_input(shape[0], variant).text
             for shape in W.CLOSURE_SHAPES for variant in range(W.VARIANTS)]
    texts += [W.proximity_input(shape[0], variant).program
              for shape in W.PROXIMITY_SHAPES for variant in range(W.VARIANTS)]
    texts += [W.query_input(variant).program for variant in range(W.VARIANTS)]
    texts += [path.read_text(encoding="utf-8") for path in sorted(DATA.glob("*.mvd"))]
    return texts


def test_fact_path_agrees_with_the_general_parser(monkeypatch):
    spy = _MatchSpy(lang._FACT_RE)
    monkeypatch.setattr(lang, "_FACT_RE", spy)
    for text in _programs():
        general_text, back = _split_facts(text)
        spy.matched = 0
        fast = parse_program(text, safety="paper-examples")
        assert spy.matched == len(fast.facts()) > 0
        # the fact path took them all: it alone builds atoms with their hash set
        assert all("_hash" in vars(r.head) for r in fast.rules if r.is_fact)
        general = parse_program(general_text, safety="paper-examples")
        assert spy.matched == len(fast.facts())
        assert general.system == fast.system
        assert general.rules == fast.rules
        assert [back[r.line] for r in general.rules] == [r.line for r in fast.rules]
        assert general.declared_constants == fast.declared_constants
        assert general.order_directive == fast.order_directive
        assert [re.sub(r"line (\d+)", lambda m: f"line {back[int(m[1])]}", w)
                for w in general.warnings] == fast.warnings
