"""Bottom-up evaluation: consequence transformations and fixed points.

Two step operators are provided.  The deterministic step applies every
applicable ground rule at once; the nondeterministic step applies the first
ground instance (in rule order, instances in substitution order) whose head
value strictly rises under the lattice join.  Both are inflationary: an
applicable rule is one whose body kernels are all present in the current
interpretation, and duplicate derivations of an atom merge by join.

Evaluation runs stratum by stratum to saturation and repeats the whole
sweep until a full pass changes nothing, so a converged report really is a
fixed point of the complete program.  Strata order rules so that predicates
consumed under negation are fully derived first; facts always form an
implicit leading stratum.  The sweep is semi-naive over the lattice: after
a stratum's first round, the step operators only see the ground instances
whose body holds an atom whose level rose, and a revisit in a later pass
sees only the atoms that stratum reads, which yields the same fixed point,
step count and diagnostics as rescanning every instance.  Only the
instances whose body atoms are all derivable are grounded at all (see
`lang.ground`, whose joins run as compiled kernels); no other instance can
ever be applicable, and `is_model` likewise checks only the instances whose
body atoms are all present in the interpretation.  `fixpoint` and
`kb.consequence` share this one evaluation path; they differ only in their
step operators and in how derived heads widen.

The path works on interned atoms.  Grounding enters every ground atom in
one `lang.AtomTable` as an int id and returns each instance as a tuple of
ids.  The working interpretation (`_Levels`) is a list of values indexed
by id, which the steps update in place, with a change log of the ids whose
level rose; proximity synonyms are interned into the same table as they
are derived.  `Atom` objects are built once, for the returned
`Interpretation`, in the order the atoms first rose.  Called on
GroundRules and an Interpretation, the step operators intern them on entry
and run the same kernels.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from . import values as V
from . import implications as Imp
from .lang import (Atom, AtomTable, Constant, GroundRule, Program, _key, decode_instance,
                   ground)


def _item_key(item):
    """Sort key of an (atom, value) item: predicate, then argument names."""
    atom = item[0]
    return (atom.pred, tuple(t.name for t in atom.args))


class Interpretation:
    """Finite map from ground atoms to truth values; absent means bottom.
    Bottom values are never stored."""

    def __init__(self, system: str, entries: Optional[dict] = None):
        self.system = system
        self.lattice = V.lattice(system)
        self.entries = dict(entries or {})

    def get(self, atom: Atom):
        return self.entries.get(atom)

    def copy(self) -> "Interpretation":
        return Interpretation(self.system, self.entries)

    def join_in(self, atom: Atom, value) -> bool:
        """Merge a derived value by lattice join; True when the entry rose.
        The value must have the system's shape; it is not checked here."""
        new = _raised(self.lattice, self.entries.get(atom), value)
        if new is None:
            return False
        self.entries[atom] = new
        return True

    def leq(self, other: "Interpretation") -> bool:
        """Pointwise order: every entry is dominated in the other."""
        lattice = self.lattice
        for atom, val in self.entries.items():
            o = other.entries.get(atom)
            if o is None:
                if not lattice.is_bottom(val):
                    return False
            elif not lattice.leq(val, o):
                return False
        return True

    def same_as(self, other: "Interpretation", tol: float = V.EPS) -> bool:
        if set(self.entries) != set(other.entries):
            return False
        equal = self.lattice.equal
        return all(equal(v, other.entries[a], tol) for a, v in self.entries.items())

    def sorted_items(self):
        return sorted(self.entries.items(), key=_item_key)

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        inner = ", ".join(f"{a} = {V.fmt(v)}" for a, v in self.sorted_items())
        return f"{{{inner}}}"


def _raised(lattice, old, value):
    """The join of a stored entry (None for bottom) with a derived value, or
    None when the entry would not rise."""
    if lattice.is_bottom(value):
        return None
    if old is None:
        return value
    new = lattice.join(old, value)
    return None if lattice.equal(new, old, 1e-12) else new


class _Levels:
    """The working interpretation of an evaluation, over the interned atoms
    of its `AtomTable`: levels[id] is the value of atom id, None for bottom,
    and log lists every id whose value rose, in order, so the first
    occurrences in the log are the atoms in order of first rise.  Seeds are
    (id, value) pairs stored (and logged) first."""

    def __init__(self, system: str, table: AtomTable, seeds=()):
        self.system = system
        self.lattice = V.lattice(system)
        self.table = table
        self.levels = [None] * len(table)
        self.log = []
        # the closure-violation notes in the diagnostics, from the first one on
        self.notes = None
        for aid, value in seeds:
            self.levels[aid] = value
            self.log.append(aid)

    def intern(self, pred, key) -> int:
        """Enter an atom that has no id yet, at bottom; returns its id."""
        self.levels.append(None)
        return self.table.add(pred, key)

    def store(self, aid: int, value) -> None:
        """Set the value of atom id, logging it as a rise."""
        self.levels[aid] = value
        self.log.append(aid)

    def join(self, aid: int, value) -> None:
        """Merge a derived value by lattice join, logging a rise."""
        new = _raised(self.lattice, self.levels[aid], value)
        if new is not None:
            self.store(aid, new)

    def interpretation(self) -> Interpretation:
        """The levels as an Interpretation, atoms in order of first rise."""
        ids = dict.fromkeys(self.log)
        interp = Interpretation(self.system)
        interp.entries = dict(zip(self.table.atoms(ids), map(self.levels.__getitem__, ids)))
        return interp


@dataclass
class EvalOrder:
    """Ordered partition of the proper (non-fact) rules into strata.
    Indices are the 1-based textual rule numbers."""

    strata: list
    warnings: list = field(default_factory=list)


@dataclass
class FixpointReport:
    interpretation: Interpretation
    iterations: int
    converged: bool
    diagnostics: list = field(default_factory=list)


# ----------------------------------------------------------------------
# Rule application
# ----------------------------------------------------------------------

def applicable(rule: GroundRule, interp: Interpretation):
    """Body value when every literal's kernel atom is present, else None.
    Negative literals contribute the complement of the stored value; an
    empty body evaluates to top.  The stored values have the system's
    shape, so the interpretation's bound lattice serves unchecked."""
    lattice, get = interp.lattice, interp.entries.get
    acc = lattice.top
    for lit in rule.body:
        val = get(lit.atom)
        if val is None:
            return None
        if lit.negated:
            val = lattice.negate(val)
        acc = lattice.meet(acc, val)
    return acc


def _note_closure_violation(interp: _Levels, head: int, value,
                            diagnostics: Optional[list]) -> None:
    """Record, once per evaluation, that a derived level left the lattice;
    the note and the head's Atom are built only here."""
    if diagnostics is None:
        return
    note = (f"closure violation: derived level {V.fmt(value)} for "
            f"{interp.table.atom(head)} is outside the {interp.system} lattice")
    if interp.notes is None:
        interp.notes = set(diagnostics)
    if note not in interp.notes:
        interp.notes.add(note)
        diagnostics.append(note)


def _body_level(body, levels, lattice):
    """`applicable` over interned atoms: the meet of the body's values (the
    complement for a negated id ~id), or None when one is bottom."""
    acc = lattice.top
    for aid in body:
        if aid >= 0:
            val = levels[aid]
            if val is None:
                return None
        else:
            val = levels[~aid]
            if val is None:
                return None
            val = lattice.negate(val)
        acc = lattice.meet(acc, val)
    return acc


def _fired(instances, interp: _Levels, diagnostics: Optional[list]):
    """(head id, level) of every applicable interned instance, in order."""
    levels, lattice = interp.levels, interp.lattice
    fired = []
    for head, body, level_fn, level, _ in instances:
        acc = _body_level(body, levels, lattice)
        if acc is not None:
            value, closed = level_fn(acc, level)
            if not closed:
                _note_closure_violation(interp, head, value, diagnostics)
            fired.append((head, value))
    return fired


def _on_objects(kernel, rules, interp: Interpretation, diagnostics: Optional[list],
                copy_unchanged: bool = True) -> Interpretation:
    """Apply an interned step kernel, kernel(instances, levels, diagnostics),
    to GroundRules and an Interpretation: intern the atoms of interp and of
    the rules, step, and return a copy of interp with every rise carried
    into it; without copy_unchanged, interp itself comes back when nothing
    rose."""
    table = AtomTable()
    seeds = [(table.intern_atom(atom), value) for atom, value in interp.entries.items()]
    bound = {}
    instances = []
    for rule in rules:
        level_fn = bound.get(rule.impl)
        if level_fn is None:
            level_fn = bound[rule.impl] = Imp.bound_level(rule.impl, interp.system)
        body = tuple(~table.intern_atom(lit.atom) if lit.negated else table.intern_atom(lit.atom)
                     for lit in rule.body)
        instances.append((table.intern_atom(rule.head), body, level_fn, rule.level,
                          rule.rule_pos))
    levels = _Levels(interp.system, table, seeds)
    start = len(levels.log)
    kernel(instances, levels, diagnostics)
    if len(levels.log) == start and not copy_unchanged:
        return interp
    out = interp.copy()
    atom = table.atom
    for aid in dict.fromkeys(levels.log[start:]):
        out.entries[atom(aid)] = levels.levels[aid]
    return out


def _dt(instances, interp: _Levels, diagnostics: Optional[list]) -> _Levels:
    """The kernel of `dt_step`."""
    fired = _fired(instances, interp, diagnostics)
    join = interp.join
    for head, level in fired:
        join(head, level)
    return interp


def _nt(instances, interp: _Levels, diagnostics: Optional[list]) -> _Levels:
    """The kernel of `nt_step`."""
    levels, lattice = interp.levels, interp.lattice
    for head, body, level_fn, level, _ in instances:
        acc = _body_level(body, levels, lattice)
        if acc is None:
            continue
        value, closed = level_fn(acc, level)
        raised = _raised(lattice, levels[head], value)
        if raised is None:
            continue
        # diagnostics come from the productive application only
        if not closed:
            _note_closure_violation(interp, head, value, diagnostics)
        interp.store(head, raised)
        return interp
    return interp


def dt_step(rules, interp, diagnostics: Optional[list] = None):
    """Parallel step: heads of all applicable rules, merged by join.  Every
    body is read before any head is joined.

    On GroundRules and an Interpretation, the result is a copy of interp;
    the atoms are interned for the step alone.  The sweep calls it on
    interned instances and its working `_Levels`, which it updates in place
    and returns."""
    if isinstance(interp, Interpretation):
        return _on_objects(_dt, rules, interp, diagnostics)
    return _dt(rules, interp, diagnostics)


def nt_step(rules, interp, diagnostics: Optional[list] = None):
    """Sequential step: the first rule instance that strictly increases the
    interpretation is applied; unchanged input means a (stratum) fixed point.

    On GroundRules and an Interpretation, the result is a copy of interp
    made only when something rises (interp itself comes back when nothing
    does).  The sweep calls it on interned instances and its working
    `_Levels`, which it updates in place and returns."""
    if isinstance(interp, Interpretation):
        return _on_objects(_nt, rules, interp, diagnostics, copy_unchanged=False)
    return _nt(rules, interp, diagnostics)


# ----------------------------------------------------------------------
# Stratification
# ----------------------------------------------------------------------

def stratify(program: Program) -> EvalOrder:
    """Evaluation order for the proper rules.

    Negation-free programs form a single stratum in textual order.  With
    negation, rules are grouped by strongly connected components of the
    produces/consumes graph and emitted in topological order (ties broken
    textually); a self-negating rule is its own stratum, and a negative
    cycle across distinct rules yields a warning with textual order inside
    the component.
    """
    proper = program.proper_rules()
    if not program.has_negation():
        return EvalOrder([[n for n, _, _ in proper]] if proper else [])

    heads = {n: r.head.pred for n, _, r in proper}
    readers = {}           # predicate -> the rules whose body reads it
    negated = set()        # (rule, predicate) read under negation
    for n, _, r in proper:
        for lit in r.body:
            readers.setdefault(lit.atom.pred, set()).add(n)
            if lit.negated:
                negated.add((n, lit.atom.pred))
    # edge b -> a: a consumes what b produces
    succs = {b: sorted(readers.get(heads[b], set()) - {b}) for b in heads}

    # Tarjan SCC, iterative, rules in textual order and successors ascending;
    # a visited rule is on the stack until it has a component
    index, low, stack, sccs, comp_of = {}, {}, [], [], {}
    for root in heads:
        if root in index:
            continue
        work = [(root, iter(succs[root]))]
        while work:
            v, it = work[-1]
            if v not in index:
                index[v] = low[v] = len(index)
                stack.append(v)
            for w in it:
                if w not in index:
                    work.append((w, iter(succs[w])))
                    break
                if w not in comp_of:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    comp_of.update(dict.fromkeys(comp, len(sccs)))
                    sccs.append(sorted(comp))

    # the condensation, and the components with a negative edge inside
    comp_succs = [set() for _ in sccs]
    cyclic = set()
    for b, out in succs.items():
        cb = comp_of[b]
        for a in out:
            if comp_of[a] != cb:
                comp_succs[cb].add(comp_of[a])
            elif (a, heads[b]) in negated:
                cyclic.add(cb)
    warnings = ["stratification: negative dependencies are cyclic across rules "
                f"{sccs[ci]}; using best-effort textual order" for ci in sorted(cyclic)]

    # Kahn over the condensation, smallest first rule wins ties
    indeg = Counter(cj for out in comp_succs for cj in out)
    ready = [(comp[0], ci) for ci, comp in enumerate(sccs) if not indeg[ci]]
    heapq.heapify(ready)
    order = []
    while ready:
        _, ci = heapq.heappop(ready)
        order.append(sccs[ci])
        for cj in comp_succs[ci]:
            indeg[cj] -= 1
            if not indeg[cj]:
                heapq.heappush(ready, (sccs[cj][0], cj))
    return EvalOrder(order, warnings)


def order_from_directive(indices) -> EvalOrder:
    """An explicit %order i,j,k. puts each listed rule in its own stratum."""
    return EvalOrder([[i] for i in indices])


# ----------------------------------------------------------------------
# Fixed points
# ----------------------------------------------------------------------

def _body_index(rules):
    """Atom id -> ascending positions of the interned instances whose body
    (positive or negated) holds it, once per literal."""
    index = {}
    for pos, rule in enumerate(rules):
        for aid in rule[1]:
            index.setdefault(aid if aid >= 0 else ~aid, []).append(pos)
    return index


def _touching(index, atoms):
    """Ascending positions of the rules whose body holds one of the atom ids."""
    out = set()
    for atom in atoms:
        out.update(index.get(atom, ()))
    return sorted(out)


def _parallel_rounds(rules, step_fn, index, todo, interp, iterations, max_iters,
                     diagnostics, log):
    """Saturate a parallel stratum in place.  Each round applies the step to
    the rules in todo only; the next round's todo are the rules whose body
    holds an atom the round raised.  Returns (iterations, converged)."""
    while True:
        if iterations >= max_iters:
            return iterations, False
        if not todo:
            return iterations, True
        sub = rules if len(todo) == len(rules) else [rules[pos] for pos in todo]
        start = len(log)
        step_fn(sub, interp, diagnostics)
        if len(log) == start:
            return iterations, True
        iterations += 1
        todo = _touching(index, log[start:])


def _sequential_steps(rules, step_fn, index, todo, interp, iterations, max_iters,
                      diagnostics, log):
    """Saturate a sequential stratum in place.  A step tries the candidate
    rules in ascending position, one at a time, and stops at the first that
    raises an atom; the rules whose body holds its head become candidates.
    Returns (iterations, converged)."""
    heap = list(todo)            # ascending, hence already a heap
    queued = bytearray(len(rules))
    for pos in heap:
        queued[pos] = 1
    while True:
        if iterations >= max_iters:
            return iterations, False
        start = len(log)
        while heap:
            pos = heapq.heappop(heap)
            queued[pos] = 0
            step_fn([rules[pos]], interp, diagnostics)
            if len(log) != start:
                break
        else:
            return iterations, True
        iterations += 1
        for touched in index.get(rules[pos][0], ()):
            if not queued[touched]:
                queued[touched] = 1
                heapq.heappush(heap, touched)


def _sweep_to_fixpoint(strata_steps, interp: _Levels, max_iters, diagnostics):
    """Saturate each (rules, step) stratum in order, repeat the sweep until a
    full pass is quiet.  Returns (interp, productive_steps, converged).

    The rules are interned instances, and every step is called as
    step(rules, interp, diagnostics), so it reads and updates the one
    working `_Levels` in place; its log records every atom whose value
    rose.  A rule's result depends only on its body atoms, and rising atoms
    never make a rule's contribution fall, so after a stratum's first visit
    only the rules whose body holds an atom raised since need another look.
    A revisit sees only the atoms it reads: each visit hands the atoms it
    raised to the visited strata whose bodies read their predicates (a
    reader list per predicate, not per body atom, saves allocations).  A
    visited stratum handed no atoms is skipped; this loses no report of the
    iteration limit, since the visit whose step reaches it reports it.  The
    sequential step `nt_step` is applied one candidate at a time in rule
    order, so it still applies the first rising instance of the full list;
    every other step is applied to the candidate sub-list in rule order.
    """
    log, entries = interp.log, interp.table.entries
    indexes = [None] * len(strata_steps)
    read_by = {}                             # predicate -> visited strata that read it
    missed = [[] for _ in strata_steps]      # atoms raised since a stratum's visit
    iterations = 0
    while True:
        pass_start = len(log)
        for k, (rules, step_fn) in enumerate(strata_steps):
            if indexes[k] is None:
                indexes[k] = _body_index(rules)
                for pred in {entries[aid][0] for aid in indexes[k]}:
                    read_by.setdefault(pred, []).append(k)
                todo = range(len(rules))
            elif missed[k]:
                todo = _touching(indexes[k], missed[k])
            else:
                continue                     # quiet: nothing it reads has risen
            start = len(log)
            saturate = _sequential_steps if step_fn is nt_step else _parallel_rounds
            iterations, converged = saturate(rules, step_fn, indexes[k], todo, interp,
                                             iterations, max_iters, diagnostics, log)
            if not converged:
                diagnostics.append(f"iteration limit reached ({max_iters})")
                return interp, iterations, False
            for aid in log[start:]:
                for j in read_by.get(entries[aid][0], ()):
                    missed[j].append(aid)
            missed[k] = []                   # it has seen what it raised
        if len(log) == pass_start:
            return interp, iterations, True


def _stratum_rule_lists(program: Program, grounded, order: EvalOrder):
    """Ground-rule lists per stratum: facts first, then the ordered strata."""
    fact_rules = [g for pos, r in enumerate(program.rules) if r.is_fact for g in grounded[pos]]
    pos_of = {n: pos for n, pos, _ in program.proper_rules()}
    lists = [fact_rules]
    for stratum in order.strata:
        rules = []
        for n in stratum:
            rules.extend(grounded[pos_of[n]])
        lists.append(rules)
    return lists


def _unwidened(pred, names):
    """Head widening for `ground`: the plain engine derives only the head."""
    return ((pred, names),)


def _evaluate(program: Program, order: Optional[EvalOrder], max_iters: int, fact_step, step,
              universe=None, widen=_unwidened) -> FixpointReport:
    """The evaluation path of `fixpoint` and `kb.consequence`: select the
    order (the %order directive, else stratify()), ground the derivable
    instances with heads widened by widen, interned in one `AtomTable`,
    then sweep the fact stratum with fact_step and every other stratum with
    step over a `_Levels` on that table.  Atoms are built for the result
    only."""
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if order is None:
        if program.order_directive:
            order = order_from_directive(program.order_directive)
        else:
            order = stratify(program)
    diagnostics = list(order.warnings)
    table = AtomTable()
    grounded = ground(program, universe, widen=widen, table=table)
    lists = _stratum_rule_lists(program, grounded, order)
    strata_steps = [(lists[0], fact_step)] + [(rules, step) for rules in lists[1:]]
    levels, iterations, converged = _sweep_to_fixpoint(
        strata_steps, _Levels(program.system, table), max_iters, diagnostics)
    return FixpointReport(levels.interpretation(), iterations, converged, diagnostics)


def fixpoint(program: Program, mode: str = "nondet", order: Optional[EvalOrder] = None,
             max_iters: int = 10000) -> FixpointReport:
    """Least fixed point of the program's consequence transformation.

    mode="det" iterates the parallel step, mode="nondet" the one-rule-at-a-
    time step.  A user order (the %order directive) overrides stratify().
    """
    if mode not in ("det", "nondet"):
        raise ValueError(f"mode must be 'det' or 'nondet', got {mode!r}")
    # the fact base has no bodies to race on; both modes load it in one
    # parallel step
    return _evaluate(program, order, max_iters, dt_step,
                     dt_step if mode == "det" else nt_step)


# ----------------------------------------------------------------------
# Model check
# ----------------------------------------------------------------------

def is_model(program: Program, interp: Interpretation, extra_constants=()):
    """Violated ground rules, as human-readable strings; empty means model.

    A ground rule checks I(alpha_body, alpha_head) >= beta in the lattice
    order whenever all its body kernels are present; rules with a missing
    kernel hold vacuously, so only the instances whose body atoms are all
    in interp are grounded (`lang.ground` with present), in rule and then
    substitution order.  They are interned, and the body and head levels
    read from a level list, as in the sweep; an instance is decoded to its
    atoms only to report a violation.  A rule's implication is bound once:
    grounding has checked it against the system for any rule that has
    instances.
    """
    sys = program.system
    lattice = V.lattice(sys)
    universe = set(program.constants()) | set(extra_constants)
    unground = set()    # the atoms of interp that are not ground
    for atom in interp.entries:
        for t in atom.args:
            universe.add(t.name)
            if not isinstance(t, Constant):
                unground.add(atom)
    table = AtomTable()
    grounded = ground(program, universe, table=table, present=interp.entries)
    levels = [None] * len(table)
    ids = table.ids
    for atom, value in interp.entries.items():
        aid = None if atom in unground else ids.get(atom.pred, {}).get(_key(atom))
        if aid is not None:
            levels[aid] = value
    violations = []
    for rule, instances in zip(program.rules, grounded):
        implication = Imp.IMPLICATIONS[(rule.impl, sys)] if instances else None
        for instance in instances:
            head, body, _, level, _ = instance
            acc = _body_level(body, levels, lattice)
            if acc is None:
                continue
            head_val = levels[head]
            if head_val is None:
                head_val = lattice.bottom
            lhs = implication(acc, head_val)
            if not lattice.leq(level, lhs):
                g = decode_instance(table, instance, rule.impl)
                violations.append(
                    f"rule instance {g.head} <- {', '.join(str(b) for b in g.body) or 'true'}: "
                    f"I({V.fmt(acc)}, {V.fmt(head_val)}) = {V.fmt(lhs)} "
                    f"is below the rule level {V.fmt(level)}")
    return violations
