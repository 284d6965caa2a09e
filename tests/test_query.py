import copy
import dataclasses
import pickle
import random
import sys

import pytest

from mvdatalog import query
from mvdatalog import values as V
from mvdatalog.engine import _item_key
from mvdatalog.lang import (Atom, Constant, Literal, Program, ProximityRef, Rule, Variable,
                            parse_program, unify)
from mvdatalog.kb import (PHI_MEET_PRODUCT, BackgroundKnowledge, build_kb, consequence,
                          parse_proximity_file)
from mvdatalog.query import (Goal, answer, build_tree, parse_goal, parse_level,
                             starting_facts)

from conftest import load_kb
from helpers import (random_bk, random_level, random_phi, random_program,
                     reference_build_tree, reference_starting_facts)

A = lambda p, *args: Atom(p, tuple(Constant(c) for c in args))


def kinds_by_depth(tree):
    out = {}
    for n in tree.walk():
        out.setdefault(n.depth, []).append(n.kind)
    return out


def test_tree_ex23(ex23_kb):
    goal = Goal(parse_goal("li(M, X)", ex23_kb.program))
    tree = build_tree(ex23_kb, goal)
    # level 1 holds the goal's proximity variants li and lo
    level1 = [n.atom.pred for n in tree.root.children]
    assert sorted(level1) == ["li", "lo"]
    # the li branch dies (no li rules or facts), the lo branch carries a body
    by_atom = {n.atom.pred: n for n in tree.root.children}
    assert [c.kind for c in by_atom["li"].children] == ["no"]
    body = by_atom["lo"].children[0]
    assert body.kind == "body" and body.connective == "and"
    members = sorted(lit.atom.pred for lit in body.literals)
    assert members == ["gc", "mu"]
    # proximity expands gc -> {gc, fv} and mu -> {mu, mf}
    for child in body.children:
        expanded = sorted(c.atom.pred for c in child.children)
        assert expanded in (["fv", "gc"], ["mf", "mu"])
    x0 = starting_facts(tree, ex23_kb.program)
    assert {str(a): v for a, v in x0} == {"fv(V)": (0.85, 0.9), "mf(M)": (0.7, 0.8)}


def test_tree_shape_invariants(ex23_kb, ex1):
    kb1 = build_kb(ex1)
    cases = [
        (ex23_kb, build_tree(ex23_kb, Goal(parse_goal("li(M, X)", ex23_kb.program)))),
        (kb1, build_tree(kb1, Goal(parse_goal("s(X)", ex1)))),
        (kb1, build_tree(kb1, Goal(parse_goal("q(X, Y)", ex1)))),
    ]
    for kb, tree in cases:
        program_facts = {a for a, _ in kb.program.facts()}
        for node in tree.walk():
            # AND connectives only at depth 2 mod 3
            if node.connective == "and" and node.children:
                assert node.depth % 3 == 2
            # every YES parent is a ground program fact
            if node.kind == "fact" and any(c.kind == "yes" for c in node.children):
                assert node.atom.is_ground()
                assert node.atom in program_facts


def test_all_no_for_unknown_predicate(ex1):
    kb = build_kb(ex1)
    tree = build_tree(kb, Goal(parse_goal("zz(X)", ex1)))
    assert starting_facts(tree, ex1) == []
    leaves = [n.kind for n in tree.walk() if not n.children and n.kind != "goal"]
    assert set(leaves) == {"no"}


def test_goal_that_is_a_fact(ex1):
    kb = build_kb(ex1)
    tree = build_tree(kb, Goal(parse_goal("p(a)", ex1)))
    x0 = starting_facts(tree, ex1)
    assert [(str(a), v) for a, v in x0] == [("p(a)", 0.8)]
    res = answer(kb, Goal(parse_goal("p(a)", ex1)))
    assert [(str(a), v) for a, v in res.answers] == [("p(a)", 0.8)]


def test_answer_ex23(ex23_kb):
    res = answer(ex23_kb, Goal(parse_goal("li(M, X)", ex23_kb.program)))
    got = {str(a): v for a, v in res.answers}
    assert set(got) == {"li(M, V)", "li(M, B)"}
    for v in got.values():
        assert abs(v[0] - 0.42) < 1e-9 and abs(v[1] - 0.56) < 1e-9


def test_answer_level_filter(ex23_kb):
    goal = Goal(parse_goal("li(M, V)", ex23_kb.program),
                parse_level("(0.9, 0.9)", V.IVS))
    assert answer(ex23_kb, goal).answers == []
    goal_ok = Goal(parse_goal("li(M, V)", ex23_kb.program),
                   parse_level("(0.4, 0.5)", V.IVS))
    assert len(answer(ex23_kb, goal_ok).answers) == 1


def test_answers_match_full_consequence(ex23_kb, ex1):
    """Goal-directed soundness on the golden examples: answer levels equal the
    full-consequence entries atom for atom."""
    cases = [
        (ex23_kb, "li(M, X)"),
        (build_kb(ex1), "s(X)"),
        (build_kb(ex1), "q(X, Y)"),
    ]
    for kb, goal_text in cases:
        full = consequence(kb).interpretation
        res = answer(kb, Goal(parse_goal(goal_text, kb.program)))
        assert res.answers, goal_text
        for atom, val in res.answers:
            assert V.values_equal(kb.program.system, val, full.entries[atom])


def test_query_restriction_is_economical(ex1):
    """Starting facts come from the program's fact base and the restricted
    fixed point never exceeds the full consequence."""
    kb = build_kb(ex1)
    fact_atoms = {a for a, _ in ex1.facts()}
    full = consequence(kb).interpretation
    for goal_text in ("s(X)", "q(X, Y)", "p(X)", "r(X)"):
        res = answer(kb, Goal(parse_goal(goal_text, ex1)))
        assert all(a in fact_atoms for a, _ in res.starting)
        assert res.report.interpretation.leq(full)


def test_negative_literal_expands_kernel(ex1):
    kb = build_kb(ex1)
    tree = build_tree(kb, Goal(parse_goal("q(X, Y)", ex1)))
    negated = [n for n in tree.walk() if n.note == "negated"]
    assert negated and all(n.atom.pred == "q" for n in negated)


def test_depth_limit_truncates():
    prog = parse_program(
        "%system fuzzy.\nfact p(a) = 0.9.\n"
        "rule q(X) <- p(X) : godel, 0.9.\n"
        "rule q(X) <- q(X) : godel, 0.8.\n")
    kb = build_kb(prog)
    tree = build_tree(kb, Goal(parse_goal("q(a)", prog)), depth_limit=3)
    assert tree.truncated
    with pytest.raises(ValueError):
        build_tree(kb, Goal(parse_goal("q(a)", prog)), depth_limit=2)
    # with the default limit the repeat marking cuts the recursion instead
    full_tree = build_tree(kb, Goal(parse_goal("q(a)", prog)))
    assert not full_tree.truncated
    assert any(n.repeated for n in full_tree.walk())
    res = answer(kb, Goal(parse_goal("q(a)", prog)))
    assert [(str(a), v) for a, v in res.answers] == [("q(a)", 0.9)]


def test_memoization_keeps_answers_complete(ex1):
    """The repeated q sub-goal of ex1 is not re-expanded, yet both
    facts are still harvested."""
    kb = build_kb(ex1)
    tree = build_tree(kb, Goal(parse_goal("s(X)", ex1)))
    assert any(n.repeated for n in tree.walk())
    x0 = {str(a) for a, _ in starting_facts(tree, ex1)}
    assert x0 == {"p(a)", "r(b)"}


def test_parse_goal_checks_arity(ex1):
    from mvdatalog.lang import ParseError
    with pytest.raises(ParseError, match="arity"):
        parse_goal("s(X, Y)", ex1)


def walk_rows(tree):
    """Every field of every node, in walk order, with its number of children."""
    return [(node.kind, node.depth, node.atom, node.literals, node.connective,
             node.repeated, node.note, len(node.children)) for node in tree.walk()]


def tree_rows(tree):
    return [(n.kind, n.depth, str(n.atom), n.literals, n.repeated, n.note)
            for n in tree.walk()]


def test_deep_tree_prints_copies_and_pickles():
    """A tree deeper than the recursion limit prints without its subtree,
    and deep-copies and pickles node for node."""
    n = 1500
    rules = "".join(f"rule p{i}(X) <- p{i + 1}(X) : godel, 0.9.\n" for i in range(n))
    prog = parse_program(f"%system fuzzy.\n{rules}fact p{n}(a) = 0.8.\n")
    tree = build_tree(build_kb(prog), Goal(parse_goal("p0(X)", prog)), depth_limit=100000)
    assert max(node.depth for node in tree.walk()) > sys.getrecursionlimit()
    assert repr(tree.root) == ("SearchNode(kind='goal', depth=0, atom=Atom(pred='p0', "
                               "args=(Variable(name='X'),)), children=1)")
    assert repr(tree).startswith(f"SearchTree(root={tree.root!r}, truncated=False")

    for copied in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert walk_rows(copied) == walk_rows(tree)
        assert (copied.truncated, copied.depth_limit) == (tree.truncated, tree.depth_limit)
        assert not {id(node) for node in copied.walk()} & {id(node) for node in tree.walk()}
        assert copied == tree
    # equality compares every node: one changed deep leaf tells the trees apart
    copied = copy.deepcopy(tree)
    leaf = list(copied.walk())[-1]
    leaf.note += "x"
    assert copied != tree and copied.root != tree.root


@pytest.mark.parametrize("depth_limit", [64, 4, 3])
def test_tree_matches_unfiltered_builder(ex1, ex23_kb, ex17_kb, depth_limit):
    """Skipping the rules of another head functor changes no node: the
    renamed variables, and with them the whole walk, stay the same."""
    cases = [(build_kb(ex1), ["s(X)", "q(X, Y)", "q(a, b)", "p(X)", "r(b)", "zz(X)"]),
             (ex23_kb, ["li(M, X)", "lo(X, Y)", "lo(M, V)", "fv(X)", "gc(B)"]),
             (ex17_kb, ["r(X)", "s(X)", "s(b)", "r(c)"])]
    for kb, goals in cases:
        for text in goals:
            goal = Goal(parse_goal(text, kb.program))
            tree = build_tree(kb, goal, depth_limit)
            reference = reference_build_tree(kb, goal, depth_limit)
            assert tree_rows(tree) == tree_rows(reference), text
            assert tree.truncated == reference.truncated


CONST_V0 = """%system fuzzy.
%const V0.
fact p(V0) = 0.9.
fact p(a) = 0.8.
rule s(X) <- p(V0), p(X) : godel, 1.0.
"""


def test_constant_named_like_a_variable_is_no_repeat():
    """With V0 declared a constant, the sub-goal p(X) is no variant of p(V0):
    it is expanded too, and harvests p(a)."""
    program = parse_program(CONST_V0)
    kb = build_kb(program)
    result = answer(kb, Goal(parse_goal("s(Y)", program)))
    assert [(str(a), v) for a, v in result.answers] == [("s(V0)", 0.9), ("s(a)", 0.8)]
    assert [str(a) for a, _ in result.starting] == ["p(V0)", "p(a)"]
    full = consequence(kb).interpretation
    assert result.answers == sorted(((a, v) for a, v in full.entries.items() if a.pred == "s"),
                                    key=_item_key)


# ----------------------------------------------------------------------
# Restricted consequences reused across the goals answered on one KB
# ----------------------------------------------------------------------

def outcome(result):
    """Everything an answer reports, with the fixed point in stored order."""
    report = result.report
    return (result.answers, result.starting, list(report.interpretation.entries.items()),
            report.iterations, report.converged, report.diagnostics)


@pytest.fixture
def count_consequences(monkeypatch):
    """The number of restricted consequences `answer` computes."""
    calls = []
    real = query.consequence

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(query, "consequence", counted)
    return calls


def random_inputs(seed):
    """A seeded program, background knowledge and phi: the system cycles
    through all five, negation alternates."""
    rng = random.Random(seed)
    system = V.SYSTEMS[seed % len(V.SYSTEMS)]
    program = random_program(rng, system, allow_negation=seed % 2 == 1)
    return program, random_bk(rng, program), random_phi(rng, program)


def random_term(rng, constants):
    """A variable (two names, so binary goals repeat one often), a constant
    (z is in no program), or a proximity reference, which only a goal built
    through the API holds."""
    draw = rng.random()
    if draw < 0.5:
        return Variable(rng.choice("XY"))
    if draw < 0.85:
        return Constant(rng.choice(constants))
    return ProximityRef(rng.choice(constants))


def random_goals(rng, program, count):
    constants = sorted(program.constants() | {"z"})
    functors = sorted(program.predicates().items()) + [("zz", 1)]
    goals = []
    for _ in range(count):
        pred, arity = rng.choice(functors)
        args = tuple(random_term(rng, constants) for _ in range(arity))
        level = random_level(rng, program.system) if rng.random() < 0.3 else None
        goals.append(Goal(Atom(pred, args), level))
    return goals


def test_answers_match_their_definition():
    """The answers are the fixed-point atoms that unify with the goal and
    reach its level, in `_item_key` order; the starting facts are the
    program facts harvested by the tree, levels joined over repeats."""
    for seed in range(60):
        kb = build_kb(*random_inputs(seed))
        program, system = kb.program, kb.program.system
        rng = random.Random(f"answers/{seed}")
        for goal in random_goals(rng, program, 10):
            result = answer(kb, goal)
            entries = sorted(result.report.interpretation.entries.items(), key=_item_key)
            assert result.answers == [
                (atom, value) for atom, value in entries
                if unify(goal.atom, atom) is not None
                and (goal.level is None or V.leq(system, goal.level, value))], (seed, goal)
            assert result.starting == reference_starting_facts(result.tree, program), (seed, goal)


def test_reused_consequences_match_fresh_knowledge_bases(count_consequences):
    answered = 0
    for seed in range(60):
        kb = build_kb(*random_inputs(seed))
        rng = random.Random(f"goals/{seed}")
        goals = random_goals(rng, kb.program, 5)
        for goal in goals + [rng.choice(goals) for _ in range(5)]:
            got = outcome(answer(kb, goal))
            fresh = build_kb(*random_inputs(seed))
            assert got == outcome(answer(fresh, goal)), (seed, goal)
            answered += 1
    # every fresh answer computes its consequence; the shared KBs reused some
    assert answered < len(count_consequences) < 2 * answered


STALE_PROGRAM = """%system bipolar-a.
fact p(a) = (0.8, 0.1).
fact p(b) = (0.6, 0.3).
fact e(a, b) = (0.7, 0.2).
rule q(X) <- p(X) : (godel, godel), (0.9, 0.05).
rule s(X) <- p(X) : (lukasiewicz, godel), (0.85, 0.1).
rule t(X, Y) <- e(X, Y), p(X) : (godel, kleene), (0.9, 0.05).
"""

STALE_PROX = """%system bipolar-a.
%domain terms.
a ~ b = (0.7, 0.2).
%domain predicates.
q ~ qq = (0.8, 0.1).
"""

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def stale_kb():
    program = parse_program(STALE_PROGRAM)
    # only buildable directly: Y is bound by no body atom, so it ranges over
    # the modified universe, which the term symbols extend
    program.rules.append(Rule(Atom("u", (X, Y)), (Literal(Atom("p", (X,))),),
                              ("godel", "godel"), (0.9, 0.05)))
    term_prox, pred_prox, _ = parse_proximity_file(STALE_PROX)
    return build_kb(program, BackgroundKnowledge(term_prox, pred_prox))


def _new_fact_level(kb):
    rules = kb.program.rules
    rules[0] = dataclasses.replace(rules[0], level=(0.5, 0.3))


# each case changes one thing the restricted consequence reads, and returns
# the max_iters of the next answer
STALENESS = {
    "fact": _new_fact_level,
    "term-pair": lambda kb: kb.bk.term_prox.set_pair("a", "b", (0.5, 0.4)),
    "term-symbol": lambda kb: kb.bk.term_prox.symbols.add("z"),
    "predicate-pair": lambda kb: kb.bk.pred_prox.set_pair("q", "qq", (0.4, 0.5)),
    "phi": lambda kb: kb.phi.by_functor.update({("e", 2): PHI_MEET_PRODUCT}),
    "system": lambda kb: setattr(kb.program, "system", V.BIPOLAR_B),
    "order": lambda kb: setattr(kb.program, "order_directive", [1, 2, 3, 4]),
    "max-iters": lambda kb: 1,
}


@pytest.mark.parametrize("case", list(STALENESS))
def test_changed_knowledge_base_is_never_served_stale(case):
    goal = Goal(Atom("t", (X, Y)))
    kb = stale_kb()
    before = outcome(answer(kb, goal))
    max_iters = STALENESS[case](kb) or 10000
    after = outcome(answer(kb, goal, max_iters=max_iters))
    fresh = stale_kb()
    STALENESS[case](fresh)
    assert after == outcome(answer(fresh, goal, max_iters=max_iters))
    assert after != before


def test_reused_consequence_is_isolated(count_consequences):
    goal = Goal(Atom("t", (X, Y)))
    kb = stale_kb()
    expected = outcome(answer(stale_kb(), goal))
    for _ in range(3):
        result = answer(kb, goal)
        assert outcome(result) == expected
        result.report.diagnostics.append("caller note")
        result.report.interpretation.join_in(Atom("zz", (Constant("a"),)), (1.0, 1.0))
    assert len(count_consequences) == 2


def test_truncation_note_only_for_the_truncated_goal(count_consequences):
    prog = parse_program("%system fuzzy.\nfact q(a) = 0.9.\n"
                         "rule q(X) <- q(X) : godel, 0.8.\n")
    kb = build_kb(prog)
    goal = Goal(parse_goal("q(X)", prog))
    note = "search tree truncated at depth 3; answers may be incomplete"
    for depth_limit in (64, 3, 64, 3, 3):
        result = answer(kb, goal, depth_limit)
        assert result.tree.truncated == (depth_limit == 3)
        assert [str(a) for a, _ in result.starting] == ["q(a)"]
        expected = [note] if depth_limit == 3 else []
        assert result.report.diagnostics == expected
    assert len(count_consequences) == 1


def test_reuse_table_is_bounded_least_recently_used(count_consequences):
    kb = stale_kb()
    goal = Goal(Atom("t", (X, Y)))
    bound = query._REUSED_CONSEQUENCES
    for max_iters in range(1, bound + 2):   # one more key than the table holds
        answer(kb, goal, max_iters=max_iters)
        answer(kb, goal, max_iters=1)       # the first key stays the most recently used
    assert len(kb._consequences) == bound
    assert len(count_consequences) == bound + 1
    answer(kb, goal, max_iters=1)           # still held, though inserted first
    assert len(count_consequences) == bound + 1
    answer(kb, goal, max_iters=2)           # evicted as the least recently used
    assert len(count_consequences) == bound + 2


# ----------------------------------------------------------------------
# The search index a knowledge base keeps for the trees of its goals
# ----------------------------------------------------------------------

def fact(atom, level, system=V.FUZZY):
    return Rule(atom, (), V.LATTICES[system].fact_impl, level)


def api_knowledge_base():
    """A program only the API builds: facts repeated, at other levels, and
    facts with variables, whose candidates (named after the variables) are
    no program facts; with term and predicate proximity."""
    a = Constant("a")
    program = Program(V.FUZZY, [
        fact(A("p", "a"), 0.5), fact(Atom("p", (X,)), 0.4), fact(A("p", "b"), 0.6),
        fact(A("p", "a"), 0.7),
        fact(Atom("e", (X, a)), 0.3), fact(A("e", "a", "b"), 0.9), fact(Atom("e", (X, X)), 0.2),
        fact(A("e", "a", "b"), 0.8), fact(A("e", "c", "c"), 0.6),
        Rule(Atom("q", (X,)), (Literal(Atom("p", (X,))),), "godel", 0.9),
        Rule(Atom("t", (X, Y)), (Literal(Atom("e", (X, Y))), Literal(Atom("q", (Y,)))),
             "godel", 0.8),
        Rule(Atom("t", (X, Y)), (Literal(Atom("e", (X, Z))), Literal(Atom("t", (Z, Y)))),
             "godel", 0.8),
        Rule(Atom("u", (X,)), (Literal(Atom("e", (X, X))), Literal(Atom("q", (X,)), True)),
             "godel", 0.7),
    ])
    term_prox, pred_prox, _ = parse_proximity_file(
        "%system fuzzy.\n%domain terms.\na ~ b = 0.8.\nb ~ c = 0.6.\n"
        "%domain predicates.\nq ~ qq = 0.9.\n")
    return build_kb(program, BackgroundKnowledge(term_prox, pred_prox))


def api_goals():
    pa, pb = ProximityRef("a"), ProximityRef("b")
    atoms = [Atom("q", (X,)), A("q", "a"), Atom("q", (pb,)), Atom("p", (X,)), A("p", "b"),
             Atom("p", (pa,)), Atom("e", (X, X)), Atom("e", (X, Constant("a"))),
             Atom("e", (pa, Y)), Atom("e", (pb, pb)), Atom("t", (X, Y)), Atom("t", (X, X)),
             Atom("t", (Constant("a"), Y)), Atom("u", (X,)), Atom("qq", (X,)), Atom("zz", (X,))]
    return [Goal(atom) for atom in atoms]


def assert_tree_matches_reference(kb, goal, depth_limit):
    tree = build_tree(kb, goal, depth_limit)
    reference = reference_build_tree(kb, goal, depth_limit)
    assert walk_rows(tree) == walk_rows(reference), goal
    assert tree.truncated == reference.truncated, goal
    expected = reference_starting_facts(reference, kb.program)
    assert reference_starting_facts(tree, kb.program) == expected, goal
    assert starting_facts(tree, kb.program) == expected, goal
    return tree


@pytest.mark.parametrize("depth_limit", [64, 4, 3])
def test_tree_matches_reference_on_random_and_api_built_programs(depth_limit):
    """Row for row, with the same truncation and the same starting facts as
    the reference builder and the walk definition: on seeded knowledge
    bases and goals (constants, repeated variables and proximity references
    in the goal), and on the API-built program with duplicate and
    non-ground facts."""
    for seed in range(80):
        kb = build_kb(*random_inputs(seed))
        rng = random.Random(f"trees/{seed}")
        for goal in random_goals(rng, kb.program, 8):
            assert_tree_matches_reference(kb, goal, depth_limit)
    kb = api_knowledge_base()
    for goal in api_goals():
        assert_tree_matches_reference(kb, goal, depth_limit)


def test_non_ground_facts_give_no_candidates():
    kb = api_knowledge_base()
    tree = build_tree(kb, Goal(Atom("p", (Y,))))
    candidates = [(str(n.atom), n.children[0].kind) for n in tree.walk() if n.kind == "fact"]
    assert candidates == [("p(a)", "yes"), ("p(X)", "no"), ("p(b)", "yes")]
    assert [(str(a), v) for a, v in starting_facts(tree, kb.program)] == [
        ("p(a)", 0.7), ("p(b)", 0.6)]


def test_copied_trees_keep_their_starting_facts():
    """A deep copy or a pickled copy of a tree carries the builder's harvest;
    a tree put together without it is walked for its starting facts."""
    kb = api_knowledge_base()
    for goal in api_goals():
        tree = build_tree(kb, goal)
        expected = reference_starting_facts(tree, kb.program)
        for copied in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree)),
                       query.SearchTree(copy.deepcopy(tree.root))):
            assert starting_facts(copied, kb.program) == expected, goal


def _append_rule(kb):
    kb.program.rules.append(Rule(Atom("t", (X, Y)), (Literal(Atom("e", (Y, X))),),
                                 ("godel", "godel"), (0.9, 0.05)))


# each case changes one thing the search index reads, or one it must not
# be fooled by
INDEX_CHANGES = {
    "append-fact": lambda kb: kb.program.rules.append(
        fact(A("p", "c"), (0.7, 0.2), V.BIPOLAR_A)),
    "append-rule": _append_rule,
    "fact-level": _new_fact_level,
    "predicate-pair": lambda kb: kb.bk.pred_prox.set_pair("t", "tt", (0.8, 0.1)),
    "term-pair": lambda kb: kb.bk.term_prox.set_pair("b", "c", (0.6, 0.3)),
    "term-symbol": lambda kb: kb.bk.term_prox.symbols.add("z"),
    "system": lambda kb: setattr(kb.program, "system", V.BIPOLAR_B),
}

INDEX_GOALS = [Goal(Atom("t", (X, Y))), Goal(Atom("t", (ProximityRef("a"), Y))),
               Goal(Atom("q", (ProximityRef("b"),))), Goal(Atom("p", (X,))),
               Goal(Atom("u", (X, Y)))]


def answered(kb):
    """Tree rows, starting facts and outcome of every index goal."""
    out = []
    for goal in INDEX_GOALS:
        result = answer(kb, goal)
        out.append((walk_rows(result.tree), result.starting, outcome(result)))
    return out


@pytest.mark.parametrize("case", list(INDEX_CHANGES))
def test_search_index_is_never_served_stale(case):
    kb = stale_kb()
    before = answered(kb)
    INDEX_CHANGES[case](kb)
    after = answered(kb)
    fresh = stale_kb()
    INDEX_CHANGES[case](fresh)
    assert after == answered(fresh)
    assert after != before


def test_search_index_starts_over_past_its_pattern_bound(monkeypatch):
    """Goals with ever new constants add patterns; past the bound the index
    is built again, and the answers do not change."""
    monkeypatch.setattr(query, "_INDEXED_PATTERNS", 4)
    kb = stale_kb()
    indexes = []
    for name in ("a", "b", "c", "d", "e", "f", "a"):
        goal = Goal(Atom("t", (Constant(name), Y)))
        fresh = stale_kb()
        assert outcome(answer(kb, goal)) == outcome(answer(fresh, goal)), name
        index = kb._search_index[1]
        if not any(index is seen for seen in indexes):
            indexes.append(index)
        # one goal's patterns more than the bound, at most
        assert len(index.candidates) <= 4 + len(fresh._search_index[1].candidates)
    assert len(indexes) > 1
