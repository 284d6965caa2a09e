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
from .lang import (Atom, Constant, Literal, Program, ProximityRef, Variable, _Parser,
                   substitute, unify)
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
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def _rows(self) -> list:
        """The tree flat, in walk order: per node its fields, with the
        number of its children in place of the children."""
        return [(n.kind, n.depth, n.atom, n.literals, n.connective, n.repeated, n.note,
                 len(n.children)) for n in self.walk()]

    def __eq__(self, other):
        # over the rows: comparing does not recurse per level
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._rows() == other._rows()

    def __repr__(self):
        return (f"SearchNode(kind={self.kind!r}, depth={self.depth}, atom={self.atom!r}, "
                f"children={len(self.children)})")

    def __reduce__(self):
        # flat, in walk order: pickling and copying do not recurse per level
        return _unflatten, (self._rows(),)


def _unflatten(rows) -> SearchNode:
    """The tree whose nodes `SearchNode.__reduce__` lists: in reverse walk
    order, a node's children are the last subtrees built."""
    built = []
    for kind, depth, atom, literals, connective, repeated, note, n in reversed(rows):
        children = [built.pop() for _ in range(n)]
        built.append(SearchNode(kind, depth, atom, literals, connective, children, repeated, note))
    return built[0]


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
        # one pass over the rules: the proper rules by head functor, each
        # with its position among them, and the fact atoms by predicate
        self.proper, self.by_functor, self.facts_by_pred = 0, {}, {}
        for rule in self.program.rules:
            head = rule.head
            if rule.body:
                self.by_functor.setdefault(head.functor, []).append((self.proper, rule))
                self.proper += 1
            else:
                self.facts_by_pred.setdefault(head.pred, []).append(head)
        self.known = {}          # predicate -> {names: atom} of its ground facts
        self.variables = {}      # proper rule position -> its variables, once renamed

    def _cut(self, node: SearchNode) -> bool:
        if node.depth + 1 > self.depth_limit:
            node.children.append(SearchNode("no", node.depth + 1,
                                            note="depth limit reached"))
            self.truncated = True
            return True
        return False

    def expand(self, root: SearchNode) -> None:
        """Build the tree below the goal node root.  Each expand_* yields
        (expand_*, child) for every child to expand and resumes once that
        child's subtree is built; the stack of open expansions stands in
        for the call stack, so the depth of the tree is not bounded by it."""
        stack = [self.expand_prox_phase(root)]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
            else:
                expand, child = step
                stack.append(expand(child))

    # --- the two unification phases ---

    def expand_prox_phase(self, node: SearchNode):
        """Depth 3k: the sub-goal predicate ranges over its proximity set.
        At the goal (depth 0), which is never a repeat, its ground terms
        are also replaced by their proximity sets."""
        if (node.depth and self._mark(node, "prox")) or self._cut(node):
            return
        args = node.atom.args
        if node.depth == 0:
            args = tuple(ProximityRef(t.name) if isinstance(t, Constant) else t for t in args)
        for q, _ in proximity_set(self.kb.bk.pred_prox, node.atom.pred, self.system):
            child = SearchNode("subgoal", node.depth + 1, Atom(q, args),
                               connective=_connective(node.depth + 1))
            node.children.append(child)
            yield self.expand_rule_phase, child

    def expand_rule_phase(self, node: SearchNode):
        """Depth 3k+1: unify with rule heads and with facts."""
        if self._mark(node, "rule") or self._cut(node):
            return
        depth = node.depth + 1
        atom = node.atom
        # every proper rule takes a renaming number in turn, but only the
        # rules of this functor are renamed: unify would reject the others
        last = -1
        for pos, rule in self.by_functor.get(atom.functor, ()):
            self.fresh += pos - last
            last = pos
            variables = self.variables.get(pos)
            if variables is None:
                variables = self.variables[pos] = rule.variables()
            renaming = {v: Variable(f"{v.name}_r{self.fresh}") for v in variables}
            theta = unify(atom, substitute(rule.head, renaming))
            if theta is None:
                continue
            theta = {v: theta.get(r, r) for v, r in renaming.items()}
            literals = tuple(Literal(substitute(l.atom, theta), l.negated) for l in rule.body)
            body = SearchNode("body", depth, atom=substitute(rule.head, theta),
                              literals=literals, connective=_connective(depth))
            node.children.append(body)
            if not self._cut(body):
                for lit in literals:
                    child = SearchNode("subgoal", depth + 1, lit.atom,
                                       connective=_connective(depth + 1),
                                       note="negated" if lit.negated else "")
                    body.children.append(child)
                    yield self.expand_prox_phase, child
        self.fresh += self.proper - 1 - last
        self._fact_candidates(node, depth)
        if not node.children:
            node.children.append(SearchNode("no", depth))

    def _fact_candidates(self, node: SearchNode, depth: int) -> None:
        """All member/binding combinations for the facts of this predicate;
        each candidate closes with YES exactly when it is a program fact,
        and is then that fact's own atom."""
        pred, args = node.atom.pred, node.atom.args
        facts = self.facts_by_pred.get(pred)
        if not facts:
            return
        if pred not in self.known:
            self.known[pred] = {tuple(c.name for c in f.args): f for f in facts if f.is_ground()}
        known = self.known[pred]
        members = {t: [s for s, _ in proximity_set(self.kb.bk.term_prox, t.name, self.system)]
                   for t in args if isinstance(t, ProximityRef)}
        connective = _connective(depth)
        seen = set()
        for fact in facts:
            if len(fact.args) != len(args):
                continue
            theta = {}
            for t, c in zip(args, fact.args):
                if isinstance(t, Constant):
                    if t != c:
                        break
                elif isinstance(t, Variable) and theta.setdefault(t, c) != c:
                    break
            else:
                domains = [members[t] if isinstance(t, ProximityRef) else [c.name]
                           for t, c in zip(args, fact.args)]
                for combo in itertools.product(*domains):
                    if combo not in seen:
                        seen.add(combo)
                        fact_atom = known.get(combo)
                        cand = fact_atom or Atom(pred, tuple(Constant(n) for n in combo))
                        leaf = SearchNode("no" if fact_atom is None else "yes", depth + 1)
                        node.children.append(SearchNode("fact", depth, cand,
                                                        connective=connective, children=[leaf]))

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
    builder.expand(root)
    return SearchTree(root, builder.truncated, depth_limit)


def starting_facts(tree: SearchTree, program: Program):
    """The ground facts parenting YES, with their program levels (joined
    over repeated facts)."""
    harvested = {node.atom for node in tree.walk()
                 if node.kind == "fact" and any(c.kind == "yes" for c in node.children)}
    levels = {}
    for rule in program.rules:
        atom, level = rule.head, rule.level
        if not rule.body and atom in harvested:
            old = levels.get(atom)
            levels[atom] = level if old is None else V.join(program.system, old, level)
    return sorted(levels.items(), key=_item_key)


def _restrict_to_facts(program: Program, kept) -> Program:
    """Keep the proper rules and only the fact rules for the given atoms."""
    kept_atoms = {atom for atom, _ in kept}
    rules = [r for r in program.rules if r.body or r.head in kept_atoms]
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
    # the fixed point is ground, so an atom of the goal's functor unifies
    # with the goal when it has the names of the goal's constants and
    # proximity references, and repeats the goal's repeated variables
    pred, args = goal.atom.pred, goal.atom.args
    names = [(i, t.name) for i, t in enumerate(args) if not isinstance(t, Variable)]
    repeats = [(args.index(t), i) for i, t in enumerate(args)
               if isinstance(t, Variable) and args.index(t) != i]
    leq = None if goal.level is None else V._checked(kb.program.system, goal.level).leq
    answers = sorted(((atom, val) for atom, val in report.interpretation.entries.items()
                      if atom.pred == pred and len(atom.args) == len(args)
                      and all(atom.args[i].name == name for i, name in names)
                      and all(atom.args[i] == atom.args[j] for i, j in repeats)
                      and (leq is None or leq(goal.level, val))), key=_item_key)
    if tree.truncated:
        report.diagnostics.append(
            f"search tree truncated at depth {depth_limit}; answers may be incomplete")
    return QueryResult(answers, x0, tree, report)


def _last_arity(program: Program, pred: str):
    """The arity of pred's last occurrence, as `Program.predicates` has it."""
    for rule in reversed(program.rules):
        for lit in reversed(rule.body):
            if lit.atom.pred == pred:
                return len(lit.atom.args)
        if rule.head.pred == pred:
            return len(rule.head.args)


def parse_goal(text: str, program: Program) -> Atom:
    """Goal syntax is a single atom; the program's declared constants keep
    their constant reading inside goals."""
    p = _Parser(text, program.declared_constants)
    start = p.tok
    atom = p.atom()
    if not p.at("eof"):
        p.fail("goal must be a single atom")
    arity = _last_arity(program, atom.pred)
    if arity is not None and arity != len(atom.args):
        p.fail(f"goal predicate {atom.pred!r} has arity {arity}, "
               f"goal uses {len(atom.args)}", start)
    return atom


def parse_level(text: str, system: str):
    p = _Parser(text)
    start = p.tok
    lvl = p.level()
    if not p.at("eof"):
        p.fail("trailing input after level")
    err = V.validate_input(system, lvl)
    if err is not None:
        p.fail(f"invalid level: {err}", start)
    return lvl
