"""Goal-directed evaluation.

Every fixed-point atom of the consequence grown from the facts of the
goal predicate's cone alone that unifies with the goal (and reaches the
requested level, when one is given) is an answer.  The cone is the goal
predicate's proximity set and that of each body predicate, negated or not,
of every proper rule whose head predicate is in the cone.  It is closed
under every dependency of the modified transformation (body to head, head
to predicate synonym), so the restricted consequence equals the full one
on the goal's predicate.

Each goal also gets an AND/OR searching tree, grown the first time it is
read, top-down without any uncertainty levels, alternating proximity- and
rule-based unification:

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

The tree is a list of rows in walk order, each naming its parent's row,
so a tree of any depth compares, copies and pickles without recursion.
Negative body literals expand through their kernel atom.  Repeated
sub-goals (same atom up to variable renaming, same phase) are not
re-expanded: the repeat is marked on the row, which cuts recursion.
The depth limit bounds the tree alone; the answers do not depend on it.

Every goal reads one search index of its knowledge base, kept on it: the
facts and proper rules by head predicate, and, filled as goals are
answered, the predicates' proximity sets (a `kb._Options`), the cones
met, their starting facts and the restricted consequences.  A tree reads
the rules, the facts and those proximity sets off the index as it grows,
and those of terms off an `_Options` of its own; it keeps nothing but its
rows: it unifies each sub-goal with the renamed heads of its predicate's
rules, and finds the fact candidates of each sub-goal pattern anew, as
within one tree a pattern is expanded at most once per phase.

A goal and a level are each read by one regular expression, and by the
general parser when that rejects the text, the goal's arity or the level:
every error comes from the general parser.
"""

from __future__ import annotations

import itertools
import re
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import values as V
from .lang import (Atom, Constant, Literal, Program, ProximityRef, Variable, _NUM, _Parser,
                   _written_level, substitute, unify)
from .engine import FixpointReport, _item_key
from .kb import KnowledgeBase, _Options, consequence, modified_universe


@dataclass(frozen=True)
class Goal:
    atom: Atom
    level: Optional[object] = None


class SearchNode(NamedTuple):
    """One row of a search tree: its parent is the index of the row it
    hangs below, -1 at the goal, and it follows its parent in walk order."""
    parent: int
    kind: str                    # goal | subgoal | body | fact | yes | no
    depth: int
    atom: Optional[Atom] = None
    literals: tuple = ()         # body nodes: the instantiated literals
    connective: str = "or"       # connective joining this node's children
    repeated: bool = False       # sub-goal already expanded elsewhere
    note: str = ""


@dataclass
class SearchTree:
    """The rows of an AND/OR search tree in walk order (pre-order, a node's
    children in their order), the goal first.  A tree from `build_tree`
    holds its builder until its rows or its truncation are first read,
    which grows both into the tree's own dictionary and drops the builder."""
    nodes: list
    truncated: bool
    depth_limit: int = 64

    def __getattr__(self, name):
        # nodes and truncated have no class default: their first read comes here
        if name not in ("nodes", "truncated"):
            raise AttributeError(name)
        fields = self.__dict__
        fields["nodes"], fields["truncated"] = fields.pop("_builder").grow()
        return fields[name]

    def walk(self):
        return iter(self.nodes)

    def __getstate__(self):
        """A copy or a pickle holds the rows, never the knowledge base."""
        return {"nodes": self.nodes, "truncated": self.truncated,
                "depth_limit": self.depth_limit}


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
    """What every goal reads of one knowledge base: the fact atoms and the
    proper rules by head predicate, each rule with its position among the
    proper rules, and their count; then the tables filled as goals are
    answered: proximity sets, cones, the starting facts of each cone and
    the restricted consequences."""

    def __init__(self, kb: KnowledgeBase):
        self.rules, self.facts, self.proper = {}, {}, 0
        for rule in kb.program.rules:
            head = rule.head
            if rule.body:
                self.rules.setdefault(head.pred, []).append((self.proper, rule))
                self.proper += 1
            else:
                self.facts.setdefault(head.pred, []).append(head)
        self.preds = _Options(kb.bk.pred_prox, kb.program.system)   # proximity sets
        self.cones = {}          # predicate -> frozenset of the predicates of its cone
        self.starting = {}       # cone -> its `starting_facts`, never handed out
        # (fact predicates of a cone, max_iters) -> (report, atoms by functor),
        # least recently used first
        self.consequences = OrderedDict()

    def cone(self, pred: str) -> frozenset:
        """The predicates whose facts the consequence reads for the atoms of
        pred, as the module docstring defines them."""
        cone = self.cones.get(pred)
        if cone is None:
            cone, todo = set(), [pred]
            while todo:
                for q in self.preds[todo.pop()][0]:
                    if q not in cone:
                        cone.add(q)
                        for _, rule in self.rules.get(q, ()):
                            todo.extend(l.atom.pred for l in rule.body)
            cone = self.cones[pred] = frozenset(cone)
        return cone


# goal predicates a search index holds cones for before it starts over:
# goals on ever new predicates would otherwise grow it without bound
_INDEXED_CONES = 4096


def _search_index(kb: KnowledgeBase) -> _SearchIndex:
    """The search index of kb, kept on it.  It is rebuilt when what it or a
    restricted consequence reads has changed: the key holds the program's
    rules, system and `%order`, the term symbols, the pairs of both
    proximity relations and the function set."""
    program, bk = kb.program, kb.bk
    key = (tuple(program.rules), program.system, tuple(program.order_directive or ()),
           frozenset(bk.term_prox.symbols), tuple(bk.term_prox.pairs.items()),
           tuple(bk.pred_prox.pairs.items()), tuple(kb.phi.by_functor.items()))
    stored = kb._search_index
    if stored is None or stored[0] != key or len(stored[1].cones) > _INDEXED_CONES:
        stored = kb._search_index = (key, _SearchIndex(kb))
    return stored[1]


class _TreeBuilder:
    def __init__(self, kb: KnowledgeBase, goal: Atom, depth_limit: int):
        self.kb = kb
        self.goal = goal
        self.depth_limit = depth_limit
        self.nodes = []          # the rows, appended in walk order
        self.expanded = set()    # (phase, predicate, pattern)
        self.truncated = False
        self.fresh = 0

    def _cut(self, row: int, depth: int) -> bool:
        if depth + 1 > self.depth_limit:
            self.nodes.append(SearchNode(row, "no", depth + 1, note="depth limit reached"))
            self.truncated = True
            return True
        return False

    def grow(self) -> tuple:
        """The rows of the tree of the goal and whether the depth limit cut
        it.  A row is appended right before its subtree, so the rows come
        in walk order.  Each expand_* yields the expansion of every child to
        expand and resumes once that child's subtree is built; the stack of
        open expansions stands in for the call stack, so the depth of the
        tree is not bounded by it.  A sub-goal is marked repeated as its row
        is appended, and then not expanded.  The goal, whose ground terms
        are replaced by their proximity sets, is never a repeat.  The tree
        reads its rules and facts off the search index of the knowledge
        base as it stands now, and fetches the proximity set of each term
        once."""
        self.index = _search_index(self.kb)
        self.terms = _Options(self.kb.bk.term_prox, self.kb.program.system)
        goal = self.goal
        self.nodes.append(SearchNode(-1, "goal", 0, goal, (), _connective(0)))
        args = tuple(ProximityRef(t.name) if isinstance(t, Constant) else t for t in goal.args)
        stack = [self.expand_prox_phase(0, args, _pattern(args))]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(child)
        return self.nodes, self.truncated

    # --- the two unification phases ---

    def expand_prox_phase(self, row: int, args: tuple, pattern: tuple):
        """Depth 3k: the sub-goal predicate ranges over its proximity set."""
        nodes = self.nodes
        node = nodes[row]
        if self._cut(row, node.depth):
            return
        depth = node.depth + 1
        connective = _connective(depth)
        for q in self.index.preds[node.atom.pred][0]:
            key = ("rule", q, pattern)
            repeated = key in self.expanded
            nodes.append(SearchNode(row, "subgoal", depth, Atom(q, args), (), connective,
                                    repeated))
            if not repeated:
                self.expanded.add(key)
                yield self.expand_rule_phase(len(nodes) - 1, pattern)

    def expand_rule_phase(self, row: int, pattern: tuple):
        """Depth 3k+1: unify with rule heads and with facts."""
        nodes = self.nodes
        node = nodes[row]
        if self._cut(row, node.depth):
            return
        atom = node.atom
        pred = atom.pred
        depth = node.depth + 1
        # every proper rule takes a renaming number in turn, but only the
        # rules of this predicate are renamed: unify would reject the
        # others, as it does those of another arity, which only the API
        # builds.  A renamed variable's name holds "#", which no parsed
        # variable does.
        last = -1
        for pos, rule in self.index.rules.get(pred, ()):
            self.fresh += pos - last
            last = pos
            renaming = {v: Variable(f"{v.name}#r{self.fresh}") for v in rule.variables()}
            theta = unify(atom, substitute(rule.head, renaming))
            if theta is None:
                continue
            theta = {v: theta.get(r, r) for v, r in renaming.items()}
            literals = tuple(Literal(substitute(l.atom, theta), l.negated) for l in rule.body)
            nodes.append(SearchNode(row, "body", depth, substitute(rule.head, theta), literals,
                                    _connective(depth)))
            body = len(nodes) - 1
            if not self._cut(body, depth):
                connective = _connective(depth + 1)
                for lit in literals:
                    args = lit.atom.args
                    sub_pattern = _pattern(args)
                    key = ("prox", lit.atom.pred, sub_pattern)
                    repeated = key in self.expanded
                    nodes.append(SearchNode(body, "subgoal", depth + 1, lit.atom, (), connective,
                                            repeated, "negated" if lit.negated else ""))
                    if not repeated:
                        self.expanded.add(key)
                        yield self.expand_prox_phase(len(nodes) - 1, args, sub_pattern)
        self.fresh += self.index.proper - 1 - last
        connective = _connective(depth)
        for cand, is_fact in self._fact_candidates(pred, pattern):
            fact = len(nodes)
            nodes.append(SearchNode(row, "fact", depth, cand, (), connective))
            nodes.append(SearchNode(fact, "yes" if is_fact else "no", depth + 1))
        if len(nodes) == row + 1:
            nodes.append(SearchNode(row, "no", depth))

    def _fact_candidates(self, pred: str, pattern: tuple) -> list:
        """All member/binding combinations for the facts of this predicate,
        as (candidate, is a program fact) pairs; a candidate that is a
        program fact is that fact's own atom.  A fact with variables (one
        built through the API) gives the candidate of its names, which is
        no program fact unless a ground fact has the same names."""
        facts = self.index.facts.get(pred)
        if not facts:
            return []
        known = {tuple(c.name for c in f.args): f for f in facts if f.is_ground()}
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
                domains = [self.terms[t.name][0] if isinstance(t, ProximityRef)
                           else (c.name,) for t, c in zip(pattern, fact.args)]
                for combo in itertools.product(*domains):
                    if combo not in seen:
                        seen.add(combo)
                        fact_atom = known.get(combo)
                        out.append((fact_atom or Atom(pred, tuple(Constant(n) for n in combo)),
                                    fact_atom is not None))
        return out


def build_tree(kb: KnowledgeBase, goal: Goal, depth_limit: int = 64) -> SearchTree:
    """The search tree of goal on kb, grown the first time its rows or its
    truncation are read, from kb as it stands then."""
    if depth_limit < 3:
        raise ValueError("depth_limit must be at least 3")
    tree = SearchTree.__new__(SearchTree)     # nodes and truncated not set yet
    tree.__dict__.update(depth_limit=depth_limit,
                         _builder=_TreeBuilder(kb, goal.atom, depth_limit))
    return tree


def starting_facts(cone, program: Program, _index: Optional[_SearchIndex] = None):
    """The program facts of the cone's predicates, with their levels
    (joined over repeated facts), in `_item_key` order.  Given the search
    index of program's knowledge base, the list is computed once per cone
    and kept on the index, and each call gets a copy."""
    if _index is None:
        return _cone_facts(cone, program)
    stored = _index.starting.get(cone)
    if stored is None:
        stored = _index.starting[cone] = _cone_facts(cone, program)
    return list(stored)


def _cone_facts(cone, program: Program) -> list:
    join = V.lattice(program.system).join
    levels = {}
    for rule in program.rules:
        atom, level = rule.head, rule.level
        if not rule.body and atom.pred in cone:
            old = levels.get(atom)
            levels[atom] = level if old is None else join(old, level)
    return sorted(levels.items(), key=_item_key)


# restricted consequences a knowledge base keeps for reuse
_REUSED_CONSEQUENCES = 32


@dataclass
class QueryResult:
    answers: list                 # [(ground Atom, value)] sorted
    starting: list                # the facts of the goal predicate's cone
    tree: SearchTree              # grown the first time it is read
    report: FixpointReport


def answer(kb: KnowledgeBase, goal: Goal, depth_limit: int = 64,
           max_iters: int = 10000) -> QueryResult:
    """Grow the consequence from the facts of the goal predicate's cone
    only, then read the goal's instances off the fixed point.  The search
    tree is grown when it is first read; depth_limit bounds the tree alone."""
    tree = build_tree(kb, goal, depth_limit)
    index = _search_index(kb)
    cone = index.cone(goal.atom.pred)
    x0 = starting_facts(cone, kb.program, _index=index)
    # the restricted consequence: every proper rule and the facts of the
    # cone, so it is reused across the goals answered on kb whose cones have
    # the same fact predicates, with its atoms by functor in answer order;
    # the index is rebuilt when anything else it reads changes, and every
    # caller gets a copy of the stored report
    fact_preds = cone.intersection(index.facts)
    table, key = index.consequences, (fact_preds, max_iters)
    stored = table.get(key)
    if stored is None:
        program = kb.program
        kept = [r for r in program.rules if r.body or r.head.pred in fact_preds]
        restricted = Program(program.system, kept, program.declared_constants,
                             program.order_directive, list(program.warnings))
        # over kb's universe: a head variable no body atom binds ranges over
        # the constants of the facts outside the cone too
        report = consequence(KnowledgeBase(kb.bk, restricted, kb.phi), max_iters,
                             _universe=modified_universe(kb))
        by_functor = {}
        for item in report.interpretation.sorted_items():
            by_functor.setdefault(item[0].functor, []).append(item)
        stored = table[key] = (report, by_functor)
        if len(table) > _REUSED_CONSEQUENCES:
            table.popitem(last=False)
    else:
        table.move_to_end(key)
    report, by_functor = stored
    report = FixpointReport(report.interpretation.copy(), report.iterations,
                            report.converged, list(report.diagnostics))
    # the fixed point is ground, so an atom of the goal's functor unifies
    # with the goal when it has the names of the goal's constants and
    # proximity references, and repeats the goal's repeated variables
    answers = list(by_functor.get(goal.atom.functor, ()))
    args = goal.atom.args
    for i, t in enumerate(args):
        if not isinstance(t, Variable):
            answers = [item for item in answers if item[0].args[i].name == t.name]
        elif args.index(t) != i:
            j = args.index(t)
            answers = [item for item in answers if item[0].args[i] == item[0].args[j]]
    if goal.level is not None:
        leq = V._checked(kb.program.system, goal.level).leq
        answers = [item for item in answers if leq(goal.level, item[1])]
    return QueryResult(answers, x0, tree, report)


# A goal and a level as whole texts, each piece read as `lang._TOKEN_RE`
# reads it.  Between two pieces `_GAP` reads what `lang._SKIP` reads; its
# comment runs to the end of the line, so that no backtracking ends one
# early, at a `)` inside it.  The groups are a goal's predicate and argument
# text, and a level's scalar or the two numbers of its pair, which
# `lang._written_level` reads.
_GAP = r"\s*(?:\#[^\n]*(?![^\n])\s*)*"
_IDENT = r"[A-Za-z][A-Za-z0-9_-]*"
_GOAL_RE = re.compile(fr"{_GAP}({_IDENT}){_GAP}"
                      fr"(?:\({_GAP}({_IDENT}(?:{_GAP},{_GAP}{_IDENT})*){_GAP}\){_GAP})?\Z")
_ARG_RE = re.compile(fr"\#[^\n]*|({_IDENT})")    # the names of an argument text
_LEVEL_RE = re.compile(fr"{_GAP}(?:({_NUM})|\({_GAP}({_NUM}){_GAP},{_GAP}({_NUM}){_GAP}\))"
                       fr"{_GAP}\Z")

def _goal_arity(program: Program, pred: str, kb: Optional[KnowledgeBase]):
    """The arity of pred's last occurrence in program, as
    `Program.predicates` has it.  Given the knowledge base, a predicate that
    only its predicate proximity names takes the arity `kb.build_kb` gives
    it: that of its first neighbour in the program.  The arities are kept
    on the program with the rules they were read from, as an attribute and
    no field, so that `==`, `repr` and `asdict` of a Program never see them."""
    rules = tuple(program.rules)
    stored = getattr(program, "_goal_arities", None)
    if stored is None or stored[0] != rules:
        arities = {}
        for rule in rules:
            arities[rule.head.pred] = len(rule.head.args)
            for lit in rule.body:
                arities[lit.atom.pred] = len(lit.atom.args)
        stored = program._goal_arities = (rules, arities)
    arities = stored[1]
    arity = arities.get(pred)
    if arity is None and kb is not None:
        for q in kb.bk.pred_prox.neighbours.get(pred, ()):
            arity = arities.get(q)
            if arity is not None:
                break
    return arity


def parse_goal(text: str, program: Program, _kb: Optional[KnowledgeBase] = None) -> Atom:
    """Goal syntax is a single atom; the program's declared constants keep
    their constant reading inside goals.  The goal takes the arity
    `_goal_arity` finds for its predicate, given the knowledge base or not.
    A goal `_GOAL_RE` reads in that arity is built from the match; every
    other text, and every error, is read by the general parser."""
    m = _GOAL_RE.match(text)
    if m is not None:
        pred, arg_text = m.groups()
        declared = program.declared_constants
        args = tuple(Variable(n) if n[0].isupper() and n not in declared else Constant(n)
                     for n in _ARG_RE.findall(arg_text or "") if n)
        if _goal_arity(program, pred, _kb) in (None, len(args)):
            return Atom(pred, args)
    p = _Parser(text, program.declared_constants)
    start = p.tok
    atom = p.atom()
    p.end("goal must be a single atom")
    arity = _goal_arity(program, atom.pred, _kb)
    if arity is not None and arity != len(atom.args):
        p.fail(f"goal predicate {atom.pred!r} has arity {arity}, "
               f"goal uses {len(atom.args)}", start)
    return atom


def parse_level(text: str, system: str):
    """A level as its system's values are written.  A level `_LEVEL_RE`
    reads that is valid in the system is built from the match; every other
    text, and every error, is read by the general parser."""
    m = _LEVEL_RE.match(text)
    if m is not None:
        lvl = _written_level(*m.groups())
        if V.validate_input(system, lvl) is None:
            return lvl
    p = _Parser(text)
    start = p.tok
    lvl = p.level()
    p.end("trailing input after level")
    err = V.validate_input(system, lvl)
    if err is not None:
        p.fail(f"invalid level: {err}", start)
    return lvl
