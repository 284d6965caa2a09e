"""Goal-directed evaluation.

The answer to a goal is computed in two stages.  First an AND/OR searching
tree is built top-down without any uncertainty levels, alternating
proximity-based and rule-based unification:

  depth 0        the goal; its ground arguments are replaced by their
                 proximity sets, its predicate ranges over its proximity set
  depth 3k+1     rule-based unification: bodies of rules whose head unifies
                 (proximity sets of terms acting as ordinary constants, a
                 constant unifying with its own proximity set), fact
                 candidates with proximity-set arguments expanded to their
                 members, or NO when nothing matches
  depth 3k+2     rule-body nodes (their children are in AND connection),
                 fact candidates (child YES when the ground instance is a
                 program fact, NO otherwise), or NO
  depth 3k, k>=1 proximity-based unification of the sub-goal predicate

The parents of YES are the required starting facts.  Second, the
knowledge-base consequence is grown from exactly those facts; every
fixed-point atom that unifies with the goal (and reaches the requested
level, when one is given) is an answer.

Negative body literals expand through their kernel atom.  Repeated
sub-goals (same atom up to variable renaming, same phase) are not
re-expanded: the repeat is marked on the node, which both cuts recursion
and keeps the harvested starting facts complete.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from . import values as V
from .lang import (Atom, Constant, ParseError, Program, ProximityRef, Rule,
                   Variable, _Parser, rename_apart, substitute, unify)
from .engine import FixpointReport, _item_key
from .kb import KnowledgeBase, consequence, proximity_set


@dataclass(frozen=True)
class Goal:
    atom: Atom
    level: Optional[object] = None


@dataclass
class SearchNode:
    kind: str                    # goal | subgoal | body | fact | yes | no
    depth: int
    atom: Optional[Atom] = None
    literals: tuple = ()         # body nodes: the instantiated literals
    connective: str = "or"       # connective joining this node's children
    children: list = field(default_factory=list)
    repeated: bool = False       # sub-goal already expanded elsewhere
    note: str = ""

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


@dataclass
class SearchTree:
    root: SearchNode
    truncated: bool = False
    depth_limit: int = 64

    def walk(self):
        return self.root.walk()


def _connective(depth: int) -> str:
    return "and" if depth % 3 == 2 else "or"


def _canonical(atom: Atom) -> str:
    """Atom with variables renamed in first-occurrence order, for memoing."""
    names = {}
    parts = []
    for t in atom.args:
        if isinstance(t, Variable):
            parts.append(names.setdefault(t, f"V{len(names)}"))
        elif isinstance(t, ProximityRef):
            parts.append(f"~{t.name}")
        else:
            parts.append(t.name)
    return f"{atom.pred}({','.join(parts)})"


class _TreeBuilder:
    def __init__(self, kb: KnowledgeBase, depth_limit: int):
        self.kb = kb
        self.program = kb.program
        self.system = kb.program.system
        self.depth_limit = depth_limit
        self.expanded = set()    # (canonical atom, phase)
        self.truncated = False
        self.fresh = 0
        self.proper = [(rule.head.functor, rule) for _, _, rule in self.program.proper_rules()]
        self.facts_by_pred = {}
        for atom, _ in self.program.facts():
            self.facts_by_pred.setdefault(atom.pred, []).append(atom)
        self.fact_atoms = {atom for atoms in self.facts_by_pred.values() for atom in atoms}

    def _cut(self, node: SearchNode) -> bool:
        if node.depth + 1 > self.depth_limit:
            node.children.append(SearchNode("no", node.depth + 1,
                                            note="depth limit reached"))
            self.truncated = True
            return True
        return False

    # --- the two unification phases ---

    def expand_goal(self, node: SearchNode) -> None:
        """First proximity-based unification: predicate over its proximity
        set, ground terms replaced by their proximity sets."""
        if self._cut(node):
            return
        args = tuple(ProximityRef(t.name) if isinstance(t, Constant) else t
                     for t in node.atom.args)
        for q, _ in proximity_set(self.kb.bk.pred_prox, node.atom.pred, self.system):
            child = SearchNode("subgoal", node.depth + 1, Atom(q, args),
                               connective=_connective(node.depth + 1))
            node.children.append(child)
            self.expand_rule_phase(child)

    def expand_prox_phase(self, node: SearchNode) -> None:
        """Depth 3k: the sub-goal predicate ranges over its proximity set."""
        if self._mark(node, "prox") or self._cut(node):
            return
        for q, _ in proximity_set(self.kb.bk.pred_prox, node.atom.pred, self.system):
            child = SearchNode("subgoal", node.depth + 1, Atom(q, node.atom.args),
                               connective=_connective(node.depth + 1))
            node.children.append(child)
            self.expand_rule_phase(child)

    def expand_rule_phase(self, node: SearchNode) -> None:
        """Depth 3k+1: unify with rule heads and with facts."""
        if self._mark(node, "rule") or self._cut(node):
            return
        depth = node.depth + 1
        functor = node.atom.functor
        for head_functor, rule in self.proper:
            # every rule takes a renaming number, but only the heads of this
            # functor are renamed: unify rejects the others unread
            self.fresh += 1
            if head_functor != functor:
                continue
            fresh = rename_apart(rule, f"r{self.fresh}")
            theta = unify(node.atom, fresh.head)
            if theta is None:
                continue
            literals = tuple(type(l)(substitute(l.atom, theta), l.negated)
                             for l in fresh.body)
            body = SearchNode("body", depth, atom=substitute(fresh.head, theta),
                              literals=literals, connective=_connective(depth))
            node.children.append(body)
            if not self._cut(body):
                for lit in literals:
                    child = SearchNode("subgoal", depth + 1, lit.atom,
                                       connective=_connective(depth + 1),
                                       note="negated" if lit.negated else "")
                    body.children.append(child)
                    self.expand_prox_phase(child)
        self._fact_candidates(node, depth)
        if not node.children:
            node.children.append(SearchNode("no", depth))

    def _fact_candidates(self, node: SearchNode, depth: int) -> None:
        """All member/binding combinations for the facts of this predicate;
        each candidate closes with YES exactly when it is a program fact."""
        facts = self.facts_by_pred.get(node.atom.pred, [])
        candidates = []
        seen = set()
        for fact in facts:
            if len(fact.args) != len(node.atom.args):
                continue
            theta = {}
            domains = []
            ok = True
            for t, c in zip(node.atom.args, fact.args):
                if isinstance(t, Constant):
                    if t != c:
                        ok = False
                        break
                    domains.append([t.name])
                elif isinstance(t, Variable):
                    if t in theta and theta[t] != c:
                        ok = False
                        break
                    theta[t] = c
                    domains.append([c.name])
                else:
                    members = [s for s, _ in
                               proximity_set(self.kb.bk.term_prox, t.name, self.system)]
                    domains.append(members)
            if not ok:
                continue
            for combo in itertools.product(*domains):
                if combo not in seen:
                    seen.add(combo)
                    candidates.append(Atom(node.atom.pred,
                                           tuple(Constant(c) for c in combo)))
        for cand in candidates:
            cnode = SearchNode("fact", depth, cand, connective=_connective(depth))
            node.children.append(cnode)
            if cand in self.fact_atoms:
                cnode.children.append(SearchNode("yes", depth + 1))
            else:
                cnode.children.append(SearchNode("no", depth + 1))

    def _mark(self, node: SearchNode, phase: str) -> bool:
        key = (_canonical(node.atom), phase)
        if key in self.expanded:
            node.repeated = True
            return True
        self.expanded.add(key)
        return False


def build_tree(kb: KnowledgeBase, goal: Goal, depth_limit: int = 64) -> SearchTree:
    if depth_limit < 3:
        raise ValueError("depth_limit must be at least 3")
    builder = _TreeBuilder(kb, depth_limit)
    root = SearchNode("goal", 0, goal.atom, connective=_connective(0))
    builder.expand_goal(root)
    return SearchTree(root, builder.truncated, depth_limit)


def starting_facts(tree: SearchTree, program: Program):
    """The ground facts parenting YES, with their program levels (joined
    over repeated facts)."""
    harvested = {node.atom for node in tree.walk()
                 if node.kind == "fact" and any(c.kind == "yes" for c in node.children)}
    levels = {}
    for atom, level in program.facts():
        if atom in harvested:
            old = levels.get(atom)
            levels[atom] = level if old is None else V.join(program.system, old, level)
    return sorted(levels.items(), key=_item_key)


def _restrict_to_facts(program: Program, kept) -> Program:
    """Keep the proper rules and only the fact rules for the given atoms."""
    kept_atoms = {atom for atom, _ in kept}
    rules = [r for r in program.rules if not r.is_fact or r.head in kept_atoms]
    return Program(program.system, rules, program.declared_constants,
                   program.order_directive, list(program.warnings))


# restricted consequences a knowledge base keeps for reuse
_REUSED_CONSEQUENCES = 32


def _copy_report(report: FixpointReport) -> FixpointReport:
    return FixpointReport(report.interpretation.copy(), report.iterations,
                          report.converged, list(report.diagnostics))


def _reused_consequence(kb: KnowledgeBase, restricted: KnowledgeBase,
                        max_iters: int) -> FixpointReport:
    """consequence(restricted, max_iters), reused across the goals answered
    on kb.  The key holds everything that call reads, so any change to the
    program, the background knowledge or phi misses the table; the table
    and every caller get copies of a stored report."""
    program, bk = restricted.program, restricted.bk
    key = (tuple(program.rules), program.system, tuple(program.order_directive or ()),
           max_iters, frozenset(bk.term_prox.symbols), tuple(bk.term_prox.pairs.items()),
           tuple(bk.pred_prox.pairs.items()), tuple(restricted.phi.by_functor.items()))
    table = kb._consequences
    stored = table.get(key)
    if stored is None:
        report = consequence(restricted, max_iters)
        table[key] = _copy_report(report)
        if len(table) > _REUSED_CONSEQUENCES:
            table.popitem(last=False)
        return report
    table.move_to_end(key)
    return _copy_report(stored)


@dataclass
class QueryResult:
    answers: list                 # [(ground Atom, value)] sorted
    starting: list                # the harvested starting facts
    tree: SearchTree
    report: FixpointReport


def answer(kb: KnowledgeBase, goal: Goal, depth_limit: int = 64,
           max_iters: int = 10000) -> QueryResult:
    """Grow the consequence from the harvested starting facts only, then
    read the goal's instances off the fixed point."""
    tree = build_tree(kb, goal, depth_limit)
    x0 = starting_facts(tree, kb.program)
    restricted = KnowledgeBase(kb.bk, _restrict_to_facts(kb.program, x0), kb.phi)
    report = _reused_consequence(kb, restricted, max_iters)
    # only atoms of the goal's functor can unify with it
    pred, arity = goal.atom.functor
    candidates = sorted(((atom, val) for atom, val in report.interpretation.entries.items()
                         if atom.pred == pred and len(atom.args) == arity), key=_item_key)
    answers = []
    for atom, val in candidates:
        if unify(goal.atom, atom) is None:
            continue
        if goal.level is not None and not V.leq(kb.program.system, goal.level, val):
            continue
        answers.append((atom, val))
    if tree.truncated:
        report.diagnostics.append(
            f"search tree truncated at depth {depth_limit}; answers may be incomplete")
    return QueryResult(answers, x0, tree, report)


def parse_goal(text: str, program: Program) -> Atom:
    """Goal syntax is a single atom; the program's declared constants keep
    their constant reading inside goals."""
    p = _Parser(text, program.declared_constants)
    atom = p.atom()
    if not p.at("eof"):
        p.fail("goal must be a single atom")
    arities = program.predicates()
    if atom.pred in arities and arities[atom.pred] != len(atom.args):
        raise ParseError(f"goal predicate {atom.pred!r} has arity {arities[atom.pred]}, "
                         f"goal uses {len(atom.args)}")
    return atom


def parse_level(text: str, system: str):
    p = _Parser(text)
    lvl = p.level()
    if not p.at("eof"):
        p.fail("trailing input after level")
    err = V.validate_input(system, lvl)
    if err is not None:
        raise ParseError(f"invalid level: {err}")
    return lvl
