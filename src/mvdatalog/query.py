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

Every goal's tree reads one search index of its knowledge base, kept on it
and keyed on the program's rules, its value system and both proximity
relations: the proper rules by head functor, the facts by predicate, and,
filled as trees grow, the proximity sets met and the fact candidates of
each sub-goal pattern.  The builder records each fact it adds under YES on
the tree, so `starting_facts` reads that record and does not walk the tree.
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
    # the atoms of the fact nodes with a YES child, as the builder added them
    harvest: Optional[set] = field(default=None, repr=False, compare=False)

    def walk(self):
        return self.root.walk()


def _connective(depth: int) -> str:
    return "and" if depth % 3 == 2 else "or"


def _pattern(args) -> tuple:
    """The arguments with each variable replaced by the number of its first
    occurrence.  Two atoms of one predicate are variants exactly when their
    patterns are equal: a constant or a proximity reference stands for
    itself, so no constant is taken for a variable, whatever its name."""
    numbers = {}
    return tuple(numbers.setdefault(t, len(numbers)) if t.__class__ is Variable else t
                 for t in args)


class _SearchIndex:
    """What the search tree of every goal reads of one knowledge base: its
    proper rules by head functor, each with its position among them, and
    its fact atoms by predicate.  The tables filled as trees grow hold the
    variables of the rules renamed, for each predicate met the map from the
    names of a ground fact to its atom, the symbols of proximity sets, of
    predicates and of terms, and each sub-goal pattern's fact candidates as
    (candidate atom, is a program fact) pairs."""

    def __init__(self, program: Program):
        self.proper, self.rules, self.facts = 0, {}, {}
        for rule in program.rules:
            head = rule.head
            if rule.body:
                self.rules.setdefault(head.functor, []).append((self.proper, rule))
                self.proper += 1
            else:
                self.facts.setdefault(head.pred, []).append(head)
        self.variables = {}      # proper rule position -> its variables
        self.known = {}          # predicate -> {names: atom} of its ground facts
        self.synonyms = {}       # predicate -> the symbols of its proximity set
        self.members = {}        # term name -> the symbols of its proximity set
        self.candidates = {}     # (predicate, pattern) -> [(atom, is a program fact)]


# sub-goal patterns an index holds before it starts over: the patterns of
# goals with new constants would otherwise grow it without bound
_INDEXED_PATTERNS = 4096


def _search_index(kb: KnowledgeBase) -> _SearchIndex:
    """The search index of kb, kept on it.  It is rebuilt when what it reads
    has changed: the key holds the program's rules, its value system and
    the pairs of both proximity relations, so it is never served stale."""
    program, bk = kb.program, kb.bk
    key = (tuple(program.rules), program.system, tuple(bk.term_prox.pairs.items()),
           tuple(bk.pred_prox.pairs.items()))
    stored = kb._search_index
    if (stored is None or stored[0] != key
            or len(stored[1].candidates) > _INDEXED_PATTERNS):
        stored = kb._search_index = (key, _SearchIndex(program))
    return stored[1]


class _TreeBuilder:
    def __init__(self, kb: KnowledgeBase, depth_limit: int):
        self.kb = kb
        self.system = kb.program.system
        self.index = _search_index(kb)
        self.depth_limit = depth_limit
        self.expanded = set()    # (phase, predicate, pattern)
        self.truncated = False
        self.fresh = 0
        self.harvest = set()     # the fact atoms parenting YES

    def _cut(self, node: SearchNode) -> bool:
        if node.depth + 1 > self.depth_limit:
            node.children.append(SearchNode("no", node.depth + 1,
                                            note="depth limit reached"))
            self.truncated = True
            return True
        return False

    def _mark(self, node: SearchNode, key: tuple) -> bool:
        if key in self.expanded:
            node.repeated = True
            return True
        self.expanded.add(key)
        return False

    def expand(self, root: SearchNode) -> None:
        """Build the tree below the goal node root.  Each expand_* yields
        the expansion of every child to expand and resumes once that
        child's subtree is built; the stack of open expansions stands in
        for the call stack, so the depth of the tree is not bounded by it."""
        stack = [self.expand_prox_phase(root)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(child)

    # --- the two unification phases ---

    def expand_prox_phase(self, node: SearchNode):
        """Depth 3k: the sub-goal predicate ranges over its proximity set.
        At the goal (depth 0), which is never a repeat, its ground terms
        are also replaced by their proximity sets."""
        pred, args = node.atom.pred, node.atom.args
        if node.depth == 0:
            args = tuple(ProximityRef(t.name) if isinstance(t, Constant) else t for t in args)
        pattern = _pattern(args)
        if (node.depth and self._mark(node, ("prox", pred, pattern))) or self._cut(node):
            return
        synonyms = self.index.synonyms.get(pred)
        if synonyms is None:
            synonyms = self.index.synonyms[pred] = [
                q for q, _ in proximity_set(self.kb.bk.pred_prox, pred, self.system)]
        depth = node.depth + 1
        connective = _connective(depth)
        for q in synonyms:
            child = SearchNode("subgoal", depth, Atom(q, args), connective=connective)
            node.children.append(child)
            yield self.expand_rule_phase(child, pattern)

    def expand_rule_phase(self, node: SearchNode, pattern: tuple):
        """Depth 3k+1: unify with rule heads and with facts."""
        atom = node.atom
        pred = atom.pred
        if self._mark(node, ("rule", pred, pattern)) or self._cut(node):
            return
        depth = node.depth + 1
        # every proper rule takes a renaming number in turn, but only the
        # rules of this functor are renamed: unify would reject the others
        last = -1
        for pos, rule in self.index.rules.get((pred, len(pattern)), ()):
            self.fresh += pos - last
            last = pos
            variables = self.index.variables.get(pos)
            if variables is None:
                variables = self.index.variables[pos] = rule.variables()
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
                    yield self.expand_prox_phase(child)
        self.fresh += self.index.proper - 1 - last
        candidates = self.index.candidates.get((pred, pattern))
        if candidates is None:
            candidates = self.index.candidates[pred, pattern] = self._fact_candidates(
                pred, pattern)
        connective = _connective(depth)
        for cand, is_fact in candidates:
            if is_fact:
                self.harvest.add(cand)
            leaf = SearchNode("yes" if is_fact else "no", depth + 1)
            node.children.append(SearchNode("fact", depth, cand, connective=connective,
                                            children=[leaf]))
        if not node.children:
            node.children.append(SearchNode("no", depth))

    def _fact_candidates(self, pred: str, pattern: tuple) -> list:
        """All member/binding combinations for the facts of this predicate,
        as (candidate, is a program fact) pairs; a candidate that is a
        program fact is that fact's own atom.  A fact with variables (one
        built through the API) gives the candidate of its names, which is
        no program fact unless a ground fact has the same names."""
        facts = self.index.facts.get(pred)
        if not facts:
            return []
        known = self.index.known.get(pred)
        if known is None:
            known = self.index.known[pred] = {tuple(c.name for c in f.args): f
                                              for f in facts if f.is_ground()}
        for t in pattern:
            if isinstance(t, ProximityRef) and t.name not in self.index.members:
                self.index.members[t.name] = [
                    s for s, _ in proximity_set(self.kb.bk.term_prox, t.name, self.system)]
        out, seen = [], set()
        for fact in facts:
            if len(fact.args) != len(pattern):
                continue
            theta = {}
            for t, c in zip(pattern, fact.args):
                if t.__class__ is int:
                    if theta.setdefault(t, c) != c:
                        break
                elif isinstance(t, Constant) and t != c:
                    break
            else:
                domains = [self.index.members[t.name] if isinstance(t, ProximityRef)
                           else [c.name] for t, c in zip(pattern, fact.args)]
                for combo in itertools.product(*domains):
                    if combo not in seen:
                        seen.add(combo)
                        fact_atom = known.get(combo)
                        out.append((fact_atom or Atom(pred, tuple(Constant(n) for n in combo)),
                                    fact_atom is not None))
        return out


def build_tree(kb: KnowledgeBase, goal: Goal, depth_limit: int = 64) -> SearchTree:
    if depth_limit < 3:
        raise ValueError("depth_limit must be at least 3")
    builder = _TreeBuilder(kb, depth_limit)
    root = SearchNode("goal", 0, goal.atom, connective=_connective(0))
    builder.expand(root)
    return SearchTree(root, builder.truncated, depth_limit, builder.harvest)


def starting_facts(tree: SearchTree, program: Program):
    """The ground facts parenting YES, with their program levels (joined
    over repeated facts).  `build_tree` records these facts on the tree as
    it adds them; a tree without that record is walked for them."""
    harvested = tree.harvest
    if harvested is None:
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
