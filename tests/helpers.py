"""Seeded generators for the randomized property suites, and the reference
implementations that the differential tests compare against."""

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional

from mvdatalog import implications as Imp
from mvdatalog import values as V
from mvdatalog.engine import (EvalOrder, FixpointReport, Interpretation, _item_key, _raised,
                              _stratum_rule_lists, _unwidened, applicable, order_from_directive)
from mvdatalog.lang import (Atom, Constant, GroundRule, Literal, Program, ProximityRef, Rule,
                            Variable, _Parser, ground, substitute, unify)
from mvdatalog.kb import (PHI_MEET, PHI_MEET_PRODUCT, PHI_PRODUCT,
                          BackgroundKnowledge, PhiSpec, ProximityRelation,
                          _pair_product, _Spread, modified_universe, proximity_set)

CONSTS = ["a", "b", "c", "d", "e", "f"]
PRED_POOL = [("p", 1), ("q", 1), ("r", 2), ("s", 2)]
VARS = [Variable("X"), Variable("Y"), Variable("Z")]

# recursion through these level functions walks a finite value set, so the
# generated programs always reach their fixed point (fl/vl are excluded:
# their level functions are not contractions, so recursive rules can walk
# through unboundedly many levels)
OPS = {
    V.FUZZY: ["godel", "lukasiewicz", "kleene"],
    V.IFS: ["fg2", "fg1", "fk"],
    V.IVS: ["vg2", "vg1", "vk"],
}
FUZZY_OPS = ["godel", "lukasiewicz", "kleene"]


def random_level(rng: random.Random, system: str):
    if system == V.FUZZY:
        return round(rng.uniform(0.05, 1.0), 2)
    if system == V.IVS:
        m1 = round(rng.uniform(0.0, 1.0), 2)
        m2 = round(rng.uniform(m1, 1.0), 2)
        if m1 == 0.0 and m2 == 0.0:
            m2 = 0.05
        return (m1, m2)
    m1 = round(rng.uniform(0.0, 1.0), 2)
    m2 = round(rng.uniform(0.0, 1.0 - m1), 2)
    if m1 == 0.0 and m2 == 1.0:
        m2 = 0.95
    return (m1, m2)


def random_impl(rng: random.Random, system: str):
    if system in (V.BIPOLAR_A, V.BIPOLAR_B):
        return (rng.choice(FUZZY_OPS), rng.choice(FUZZY_OPS))
    return rng.choice(OPS[system])


def random_program(rng: random.Random, system: str, allow_negation: bool = False) -> Program:
    # kept small on purpose: at most 4 predicates, 6 constants, 8 rules
    consts = rng.sample(CONSTS, rng.randint(2, 4))
    preds = rng.sample(PRED_POOL, rng.randint(2, 4))
    rules = []
    for _ in range(rng.randint(2, 4)):
        pred, arity = rng.choice(preds)
        args = tuple(Constant(rng.choice(consts)) for _ in range(arity))
        rules.append(Rule(Atom(pred, args), (), V.LATTICES[system].fact_impl,
                          random_level(rng, system)))
    for _ in range(rng.randint(1, 4)):
        rules.append(_random_rule(rng, preds, system, allow_negation))
    return Program(system, rules)


def write_constants(rng: random.Random, program: Program) -> Program:
    """The program with about half of its proper rules writing one of the
    program's constants in place of one of their body variables, in the
    head too, so every rule stays safe."""
    constants = sorted(program.constants())
    rules = []
    for rule in program.rules:
        if rule.body and rng.random() < 0.5:
            variables = list(dict.fromkeys(v for lit in rule.body for v in lit.atom.variables()))
            theta = {rng.choice(variables): Constant(rng.choice(constants))}
            rule = Rule(substitute(rule.head, theta),
                        tuple(Literal(substitute(lit.atom, theta), lit.negated)
                              for lit in rule.body), rule.impl, rule.level)
        rules.append(rule)
    return Program(program.system, rules)


def head_only_variables(rng: random.Random, program: Program,
                        allow_negation: bool = False) -> Program:
    """The program with two more rules that only the API builds: one head
    argument of each is a variable, W, that no body atom binds, so it
    ranges over the universe."""
    preds = sorted(program.predicates().items())
    rules = list(program.rules)
    for _ in range(2):
        rule = _random_rule(rng, preds, program.system, allow_negation)
        args = list(rule.head.args)
        args[rng.randrange(len(args))] = Variable("W")
        rules.append(Rule(Atom(rule.head.pred, tuple(args)), rule.body, rule.impl, rule.level))
    return Program(program.system, rules)


def _random_rule(rng: random.Random, preds, system: str, allow_negation: bool) -> Rule:
    # first body literal is positive and carries all the rule's variables,
    # which keeps every generated rule safe by construction
    bp, bar = rng.choice(preds)
    body_vars = VARS[:max(1, bar)]
    first = Literal(Atom(bp, tuple(body_vars[i % len(body_vars)] for i in range(bar))))
    body = [first]
    if rng.random() < 0.6:
        bp2, bar2 = rng.choice(preds)
        atom2 = Atom(bp2, tuple(rng.choice(body_vars) for _ in range(bar2)))
        negated = allow_negation and rng.random() < 0.4
        body.append(Literal(atom2, negated))
    hp, har = rng.choice(preds)
    head = Atom(hp, tuple(rng.choice(body_vars) for _ in range(har)))
    return Rule(head, tuple(body), random_impl(rng, system), random_level(rng, system))


def random_bk(rng: random.Random, program: Program) -> BackgroundKnowledge:
    system = program.system
    term_prox = ProximityRelation("terms", system)
    consts = sorted(program.constants() | {"z"})
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(consts, 2)
        term_prox.set_pair(a, b, random_level(rng, system))
    pred_prox = ProximityRelation("predicates", system)
    arities = program.predicates()
    same_arity = {}
    for name, ar in arities.items():
        same_arity.setdefault(ar, []).append(name)
    for names in same_arity.values():
        extra = names + [names[0] + "x"]  # one synonym outside the program
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(extra, 2)
            pred_prox.set_pair(a, b, random_level(rng, system))
    return BackgroundKnowledge(term_prox, pred_prox)


def random_phi(rng: random.Random, program: Program) -> PhiSpec:
    choices = ["meet", "meet_product"]
    if program.system == V.IVS:
        choices.append("product")
    spec = PhiSpec()
    for name, ar in program.predicates().items():
        if rng.random() < 0.7:
            spec.by_functor[(name, ar)] = rng.choice(choices)
    return spec


def relation_contents(rel: ProximityRelation) -> tuple:
    """What a proximity relation holds, in a form that compares exactly: the
    pairs and the neighbour map item by item in order.  `==` on relations
    reads neither order nor the neighbour map."""
    return (rel.domain, rel.system, list(rel.pairs.items()), rel.symbols,
            [(s, list(others.items())) for s, others in rel.neighbours.items()])


def check_table(table) -> None:
    """The kernels enter atoms without `AtomTable.intern_atom`: ids stay
    dense, each entry's id is the one its predicate's map holds, and every
    key, at every arity, is the tuple of the atom's argument names."""
    assert sum(map(len, table.ids.values())) == len(table.entries)
    for aid, (pred, key) in enumerate(table.entries):
        assert table.ids[pred][key] == aid
        assert key == tuple(t.name for t in table.atom(aid).args)


def grid(step: float = 0.05):
    n = int(round(1.0 / step))
    return [round(i * step, 10) for i in range(n + 1)]


def valid_pairs(system: str, step: float = 0.05):
    pts = grid(step)
    return [(a, b) for a in pts for b in pts if V.validate(system, (a, b)) is None]


def reference_sweep(strata_steps, interp, max_iters, diagnostics):
    """The full-rescan sweep that the delta-driven `engine._sweep_to_fixpoint`
    replaced, kept verbatim as the reference for differential tests.

    Saturate each (rules, step) stratum in order, repeat the sweep until a
    full pass is quiet.  Returns (interp, productive_steps, converged)."""
    iterations = 0
    while True:
        changed_in_pass = False
        for rules, step_fn in strata_steps:
            while True:
                if iterations >= max_iters:
                    diagnostics.append(f"iteration limit reached ({max_iters})")
                    return interp, iterations, False
                new = step_fn(rules, interp, diagnostics)
                if new.same_as(interp, tol=1e-12):
                    break
                interp = new
                iterations += 1
                changed_in_pass = True
        if not changed_in_pass:
            return interp, iterations, True


def reference_stratify(program: Program) -> EvalOrder:
    """The quadratic `engine.stratify` that the linear one replaced, kept
    verbatim as the reference for differential tests.

    Evaluation order for the proper rules.

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
    consumes = {}          # rule -> set of predicates in its body
    neg_consumes = {}      # rule -> predicates under negation
    for n, _, r in proper:
        consumes[n] = {lit.atom.pred for lit in r.body}
        neg_consumes[n] = {lit.atom.pred for lit in r.body if lit.negated}

    nodes = [n for n, _, _ in proper]
    succs = {n: set() for n in nodes}
    for b in nodes:  # edge b -> a: a consumes what b produces
        for a in nodes:
            if a != b and heads[b] in consumes[a]:
                succs[b].add(a)

    # Tarjan SCC, iterative
    index = {}
    low = {}
    onstack = {}
    stack = []
    sccs = []
    counter = [0]

    def strongconnect(v0):
        work = [(v0, iter(sorted(succs[v0])))]
        index[v0] = low[v0] = counter[0]
        counter[0] += 1
        stack.append(v0)
        onstack[v0] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    onstack[w] = True
                    work.append((w, iter(sorted(succs[w]))))
                    advanced = True
                    break
                elif onstack.get(w):
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))

    for n in nodes:
        if n not in index:
            strongconnect(n)

    comp_of = {}
    for ci, comp in enumerate(sccs):
        for n in comp:
            comp_of[n] = ci

    warnings = []
    for comp in sccs:
        if len(comp) > 1:
            cyclic_negative = any(
                heads[b] in neg_consumes[a]
                for a in comp for b in comp if a != b)
            if cyclic_negative:
                warnings.append(
                    "stratification: negative dependencies are cyclic across rules "
                    f"{comp}; using best-effort textual order")

    # Kahn over the condensation, smallest first rule wins ties
    comp_succs = {i: set() for i in range(len(sccs))}
    indeg = {i: 0 for i in range(len(sccs))}
    for b in nodes:
        for a in succs[b]:
            cb, ca = comp_of[b], comp_of[a]
            if cb != ca and ca not in comp_succs[cb]:
                comp_succs[cb].add(ca)
                indeg[ca] += 1
    ready = sorted((min(sccs[i]), i) for i in indeg if indeg[i] == 0)
    order = []
    while ready:
        _, i = ready.pop(0)
        order.append(sccs[i])
        for j in sorted(comp_succs[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append((min(sccs[j]), j))
        ready.sort()
    return EvalOrder(order, warnings)


def _note_closure_violation(rule: GroundRule, value, diagnostics: Optional[list],
                            system: str) -> None:
    if diagnostics is None:
        return
    note = (f"closure violation: derived level {V.fmt(value)} for "
            f"{rule.head} is outside the {system} lattice")
    if note not in diagnostics:
        diagnostics.append(note)


def _head_level(rule: GroundRule, body_value, diagnostics: Optional[list], system: str):
    value = Imp.bound_level(rule.impl, system)(body_value, rule.level)
    if not V.lattice(system).valid(value):
        _note_closure_violation(rule, value, diagnostics, system)
    return value


def _fired(rules, interp: Interpretation, diagnostics: Optional[list]):
    """(head, level) of every applicable rule, in rule order."""
    system = interp.system
    fired = []
    for rule in rules:
        body = applicable(rule, interp)
        if body is not None:
            fired.append((rule.head, _head_level(rule, body, diagnostics, system)))
    return fired


def reference_dt_step(rules, interp: Interpretation,
                      diagnostics: Optional[list] = None) -> Interpretation:
    """The parallel step on GroundRules and Interpretations that the
    interned kernel of `engine.dt_step` replaced, kept verbatim (with its
    linear scan for a repeated closure-violation note) as the reference for
    differential tests; the out parameter, which no caller passes any more,
    is left out.

    Parallel step: heads of all applicable rules, merged by join into a
    copy of interp, which is returned.  Every body is read from interp
    before any head is joined."""
    fired = _fired(rules, interp, diagnostics)
    out = interp.copy()
    join_in = out.join_in
    for head, level in fired:
        join_in(head, level)
    return out


def reference_nt_step(rules, interp: Interpretation,
                      diagnostics: Optional[list] = None) -> Interpretation:
    """The sequential step that the interned kernel of `engine.nt_step`
    replaced, kept verbatim as the reference for differential tests; the
    changes are that the rise test and the store, once methods of
    `Interpretation` that wrote a change log too, are spelled out here, and
    that the out parameter, which no caller passes any more, is left out.

    Sequential step: the first rule instance that strictly increases the
    interpretation is applied; unchanged input means a (stratum) fixed point.
    The rising head is stored into a copy of interp made only then, which
    is returned (interp itself comes back when nothing rises)."""
    system = interp.system
    for rule in rules:
        body = applicable(rule, interp)
        if body is None:
            continue
        value = Imp.bound_level(rule.impl, system)(body, rule.level)
        raised = _raised(interp.lattice, interp.entries.get(rule.head), value)
        if raised is None:
            continue
        # diagnostics come from the productive application only
        if not V.lattice(system).valid(value):
            _note_closure_violation(rule, value, diagnostics, system)
        out = interp.copy()
        out.entries[rule.head] = raised
        return out
    return interp


def reference_evaluate(program: Program, fact_step, step, max_iters: int = 10000,
                       universe=None, widen=None) -> FixpointReport:
    """`engine._evaluate` on objects: the same order selection (by
    `reference_stratify`) and stratum lists, over the GroundRule lists
    `lang.ground` returns without a table, swept by `reference_sweep` with
    the given reference steps.  widen=None grounds every instance over the
    universe."""
    if program.order_directive:
        order = order_from_directive(program.order_directive)
    else:
        order = reference_stratify(program)
    diagnostics = list(order.warnings)
    lists = _stratum_rule_lists(program, ground(program, universe, widen=widen), order)
    strata_steps = [(lists[0], fact_step)] + [(rules, step) for rules in lists[1:]]
    interp, iterations, converged = reference_sweep(
        strata_steps, Interpretation(program.system), max_iters, diagnostics)
    return FixpointReport(interp, iterations, converged, diagnostics)


def reference_fixpoint(program: Program, mode: str = "nondet", max_iters: int = 10000,
                       pruned: bool = True) -> FixpointReport:
    """`engine.fixpoint` by `reference_evaluate`; pruned=False grounds every
    instance."""
    step = reference_dt_step if mode == "det" else reference_nt_step
    return reference_evaluate(program, reference_dt_step, step, max_iters,
                              widen=_unwidened if pruned else None)


def reference_consequence(kb, max_iters: int = 10000, pruned: bool = True) -> FixpointReport:
    """`kb.consequence` by `reference_evaluate` and `reference_mod_nt_step`;
    pruned=False grounds every instance over the modified universe."""
    def step(rules, interp, diagnostics):
        return reference_mod_nt_step(kb, interp, rules, diagnostics)

    return reference_evaluate(kb.program, step, step, max_iters, modified_universe(kb),
                              _Spread(kb).widen if pruned else None)


def reference_is_model(program: Program, interp, extra_constants=()):
    """`engine.is_model` over the full grounding, kept as the reference for
    the model check that grounds only the instances it can apply."""
    sys = program.system
    lattice = V.lattice(sys)
    universe = set(program.constants()) | set(extra_constants)
    for atom in interp.entries:
        for t in atom.args:
            universe.add(t.name)
    violations = []
    for rules in ground(program, universe):
        for g in rules:
            body = applicable(g, interp)
            if body is None:
                continue
            head_val = interp.get(g.head)
            if head_val is None:
                head_val = lattice.bottom
            lhs = Imp.apply_implication(g.impl, sys, body, head_val)
            if not lattice.leq(g.level, lhs):
                violations.append(
                    f"rule instance {g.head} <- {', '.join(str(b) for b in g.body) or 'true'}: "
                    f"I({V.fmt(body)}, {V.fmt(head_val)}) = {V.fmt(lhs)} "
                    f"is below the rule level {V.fmt(g.level)}")
    return violations


def reference_mod_nt_step(kb, interp, rules=None, diagnostics=None, spread=None):
    """The modified step that the per-call spreader `kb._Spread` replaced,
    kept verbatim (with its checked, meet_all-based phi) as the reference
    for differential tests; spread is accepted and ignored.

    One modified step: every applicable rule fires and its head is
    spread over the proximity sets of its predicate and arguments."""
    sys = kb.program.system
    if rules is None:
        universe = modified_universe(kb)
        rules = [g for rs in ground(kb.program, universe) for g in rs]
    new = interp.copy()
    for rule in rules:
        body = applicable(rule, interp)
        if body is None:
            continue
        alpha = _head_level(rule, body, diagnostics, sys)
        _reference_expand_head(kb, rule.head, alpha, new)
    return new


def _reference_expand_head(kb, head, alpha, out):
    sys = kb.program.system
    phi_id = kb.phi.phi_for(head.pred, len(head.args))
    for q, lam_q, chosen in _reference_synonyms(kb, head.pred, [t.name for t in head.args]):
        value = _reference_phi_apply(phi_id, sys, alpha, lam_q, [lam for _, lam in chosen])
        out.join_in(Atom(q, tuple(Constant(s) for s, _ in chosen)), value)


def _reference_synonyms(kb, pred, names):
    """Every synonym of pred(names) as (q, lambda_q, ((s_1, lambda_1), ..)):
    q over the proximity set of pred, outermost, then each s_i over that of
    names[i], the first argument varying slowest."""
    sys = kb.program.system
    pred_options = proximity_set(kb.bk.pred_prox, pred, sys)
    arg_options = [proximity_set(kb.bk.term_prox, n, sys) for n in names]
    for q, lam_q in pred_options:
        for chosen in itertools.product(*arg_options):
            yield q, lam_q, chosen


def _reference_phi_apply(phi_id, system, alpha, lambda_pred, lambda_args):
    if phi_id == PHI_MEET:
        return V.meet_all(system, [alpha, lambda_pred] + list(lambda_args))
    if phi_id == PHI_MEET_PRODUCT:
        # the pairwise product's neutral element is (1, 1), which is not the
        # ifs lattice top; fold the argument lambdas only
        args = [alpha, lambda_pred]
        if lambda_args:
            prod = lambda_args[0]
            for lam in lambda_args[1:]:
                prod = lam * prod if system == V.FUZZY else _pair_product(lam, prod)
            args.append(prod)
        return V.meet_all(system, args)
    if phi_id == PHI_PRODUCT:
        if system != V.IVS:
            raise ValueError("the product uncertainty function is only valid "
                             "in the interval-valued case")
        out = _pair_product(alpha, lambda_pred)
        for lam in lambda_args:
            out = _pair_product(out, lam)
        return out
    raise ValueError(f"unknown uncertainty function {phi_id!r}")


def rename_apart(rule: Rule, suffix: str) -> Rule:
    """The rule with each variable V renamed to V#suffix, a name no parsed
    variable has."""
    theta = {v: Variable(f"{v.name}#{suffix}") for v in rule.variables()}
    head = substitute(rule.head, theta)
    body = tuple(Literal(substitute(l.atom, theta), l.negated) for l in rule.body)
    return Rule(head, body, rule.impl, rule.level, rule.line)


@dataclass
class ReferenceNode:
    """A node of a reference search tree, with its children nested in it."""
    kind: str
    depth: int
    atom: Optional[Atom] = None
    literals: tuple = ()
    connective: str = "or"
    children: list = field(default_factory=list)
    repeated: bool = False
    note: str = ""


@dataclass
class ReferenceTree:
    root: ReferenceNode
    truncated: bool = False
    depth_limit: int = 64

    def walk(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def children(tree, i: int) -> list:
    """The indexes of the rows of a `query.SearchTree` whose parent is row i."""
    return [j for j, node in enumerate(tree.nodes) if node.parent == i]


def walk_rows(tree) -> list:
    """Every field but the parent of every node of a search tree or of a
    reference tree, in walk order, with its number of children.  The rows
    of a search tree are checked to be in walk order (each row's parent is
    on the path from the goal to the row before it), so the parents follow
    from the projection."""
    if isinstance(tree, ReferenceTree):
        return [(n.kind, n.depth, n.atom, n.literals, n.connective, n.repeated, n.note,
                 len(n.children)) for n in tree.walk()]
    counts, path = [0] * len(tree.nodes), []
    for i, node in enumerate(tree.nodes):
        while path and path[-1] != node.parent:
            path.pop()
        assert path or (i == 0 and node.parent == -1), f"row {i} is out of walk order"
        if path:
            counts[node.parent] += 1
        path.append(i)
    return [(n.kind, n.depth, n.atom, n.literals, n.connective, n.repeated, n.note, count)
            for n, count in zip(tree.nodes, counts)]


def _reference_connective(depth: int) -> str:
    return "and" if depth % 3 == 2 else "or"


def _reference_variant_key(atom: Atom) -> tuple:
    """The atom with its variables numbered in first-occurrence order; a
    constant or a proximity reference stands for itself, so it is never
    taken for a variable, whatever its name."""
    numbers = {}
    return (atom.pred, tuple(numbers.setdefault(t, len(numbers)) if isinstance(t, Variable)
                             else t for t in atom.args))


class ReferenceTreeBuilder:
    """The search-tree builder before its rule phase skipped the rules of
    another head functor, kept as the reference for differential tests: it
    renames every proper rule apart at every rule-phase node and builds a
    new candidate atom from the names of each fact that matches.  It shares
    no code with `query._TreeBuilder`, nests its nodes in `ReferenceNode`s
    rather than appending rows, and records no harvest:
    `reference_starting_facts` walks its trees."""

    def __init__(self, kb, depth_limit: int):
        self.kb = kb
        self.program = kb.program
        self.system = kb.program.system
        self.depth_limit = depth_limit
        self.expanded = set()    # (variant key, phase)
        self.truncated = False
        self.fresh = 0
        self.facts_by_pred = {}
        for atom, _ in self.program.facts():
            self.facts_by_pred.setdefault(atom.pred, []).append(atom)
        self.fact_atoms = {atom for atoms in self.facts_by_pred.values() for atom in atoms}

    def _cut(self, node: ReferenceNode) -> bool:
        if node.depth + 1 > self.depth_limit:
            node.children.append(ReferenceNode("no", node.depth + 1,
                                               note="depth limit reached"))
            self.truncated = True
            return True
        return False

    def _mark(self, node: ReferenceNode, phase: str) -> bool:
        key = (_reference_variant_key(node.atom), phase)
        if key in self.expanded:
            node.repeated = True
            return True
        self.expanded.add(key)
        return False

    def expand(self, root: ReferenceNode) -> None:
        """Each expand_* yields (expand_*, child) for every child to expand
        and resumes once that child's subtree is built."""
        stack = [self.expand_prox_phase(root)]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
            else:
                expand, child = step
                stack.append(expand(child))

    def expand_prox_phase(self, node: ReferenceNode):
        """Depth 3k: the sub-goal predicate ranges over its proximity set;
        at the goal its constants are replaced by their proximity sets."""
        if (node.depth and self._mark(node, "prox")) or self._cut(node):
            return
        args = node.atom.args
        if node.depth == 0:
            args = tuple(ProximityRef(t.name) if isinstance(t, Constant) else t for t in args)
        for q, _ in proximity_set(self.kb.bk.pred_prox, node.atom.pred, self.system):
            child = ReferenceNode("subgoal", node.depth + 1, Atom(q, args),
                                  connective=_reference_connective(node.depth + 1))
            node.children.append(child)
            yield self.expand_rule_phase, child

    def expand_rule_phase(self, node: ReferenceNode):
        """Depth 3k+1: unify with rule heads and with facts."""
        if self._mark(node, "rule") or self._cut(node):
            return
        depth = node.depth + 1
        for _, _, rule in self.program.proper_rules():
            self.fresh += 1
            fresh = rename_apart(rule, f"r{self.fresh}")
            theta = unify(node.atom, fresh.head)
            if theta is None:
                continue
            literals = tuple(type(l)(substitute(l.atom, theta), l.negated)
                             for l in fresh.body)
            body = ReferenceNode("body", depth, atom=substitute(fresh.head, theta),
                                 literals=literals, connective=_reference_connective(depth))
            node.children.append(body)
            if not self._cut(body):
                for lit in literals:
                    child = ReferenceNode("subgoal", depth + 1, lit.atom,
                                          connective=_reference_connective(depth + 1),
                                          note="negated" if lit.negated else "")
                    body.children.append(child)
                    yield self.expand_prox_phase, child
        self._fact_candidates(node, depth)
        if not node.children:
            node.children.append(ReferenceNode("no", depth))

    def _fact_candidates(self, node: ReferenceNode, depth: int) -> None:
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
            cnode = ReferenceNode("fact", depth, cand, connective=_reference_connective(depth))
            node.children.append(cnode)
            if cand in self.fact_atoms:
                cnode.children.append(ReferenceNode("yes", depth + 1))
            else:
                cnode.children.append(ReferenceNode("no", depth + 1))


def reference_build_tree(kb, goal, depth_limit: int = 64) -> ReferenceTree:
    """`query.build_tree` on the reference builder."""
    builder = ReferenceTreeBuilder(kb, depth_limit)
    root = ReferenceNode("goal", 0, goal.atom, connective=_reference_connective(0))
    builder.expand(root)
    return ReferenceTree(root, builder.truncated, depth_limit)


def reference_facts(program: Program, keep) -> list:
    """The program facts whose atom keep accepts, each with its program
    level, joined over repeated facts, in `_item_key` order."""
    levels = {}
    for atom, level in program.facts():
        if keep(atom):
            old = levels.get(atom)
            levels[atom] = level if old is None else V.join(program.system, old, level)
    return sorted(levels.items(), key=_item_key)


def reference_starting_facts(tree, program: Program):
    """The facts a tree harvests, by their definition: the atoms of the fact
    nodes with a YES child, found by walking a reference tree or by reading
    the rows of a search tree, as `reference_facts` lists them."""
    if isinstance(tree, ReferenceTree):
        harvested = {node.atom for node in tree.walk() if node.kind == "fact"
                     and any(child.kind == "yes" for child in node.children)}
    else:
        nodes = tree.nodes
        harvested = {nodes[node.parent].atom for node in nodes
                     if node.kind == "yes" and nodes[node.parent].kind == "fact"}
    return reference_facts(program, harvested.__contains__)


def reference_cone(kb, pred: str) -> frozenset:
    """The cone of pred by a naive fixpoint over every proper rule and every
    predicate pair, without the search index: the predicates read for the
    atoms of pred, and the cone, the proximity sets of those, grow until
    neither changes.  A pair at bottom relates nothing."""
    system = kb.program.system
    read, cone = {pred}, set()
    while True:
        size = len(read) + len(cone)
        cone |= read
        for (a, b), value in kb.bk.pred_prox.pairs.items():
            if not V.is_bottom(system, value):
                if a in read:
                    cone.add(b)
                if b in read:
                    cone.add(a)
        for rule in kb.program.rules:
            if rule.body and rule.head.pred in cone:
                read.update(lit.atom.pred for lit in rule.body)
        if len(read) + len(cone) == size:
            return frozenset(cone)


def reference_answers(report: FixpointReport, goal, system: str) -> list:
    """The answers by the scan `query.answer` made before it kept each
    reused consequence's atoms by functor: every atom of the fixed point of
    the goal's functor that has the names of the goal's constants and
    proximity references, repeats its repeated variables and reaches its
    level, sorted in `_item_key` order."""
    pred, args = goal.atom.pred, goal.atom.args
    names = [(i, t.name) for i, t in enumerate(args) if not isinstance(t, Variable)]
    repeats = [(args.index(t), i) for i, t in enumerate(args)
               if isinstance(t, Variable) and args.index(t) != i]
    return sorted(((atom, val) for atom, val in report.interpretation.entries.items()
                   if atom.pred == pred and len(atom.args) == len(args)
                   and all(atom.args[i].name == name for i, name in names)
                   and all(atom.args[i] == atom.args[j] for i, j in repeats)
                   and (goal.level is None or V.leq(system, goal.level, val))), key=_item_key)


def _reference_last_arity(program: Program, pred: str):
    """The arity of pred's last occurrence, as `Program.predicates` has it."""
    for rule in reversed(program.rules):
        for lit in reversed(rule.body):
            if lit.atom.pred == pred:
                return len(lit.atom.args)
        if rule.head.pred == pred:
            return len(rule.head.args)


def reference_parse_goal(text: str, program: Program, _kb=None) -> Atom:
    """`query.parse_goal` as the general parser alone reads a goal, with
    each arity found by scanning the rules backwards."""
    p = _Parser(text, program.declared_constants)
    start = p.tok
    atom = p.atom()
    p.end("goal must be a single atom")
    arity = _reference_last_arity(program, atom.pred)
    if arity is None and _kb is not None:
        for q in _kb.bk.pred_prox.neighbours.get(atom.pred, ()):
            arity = _reference_last_arity(program, q)
            if arity is not None:
                break
    if arity is not None and arity != len(atom.args):
        p.fail(f"goal predicate {atom.pred!r} has arity {arity}, "
               f"goal uses {len(atom.args)}", start)
    return atom


def reference_parse_level(text: str, system: str):
    """`query.parse_level` as the general parser alone reads a level."""
    p = _Parser(text)
    start = p.tok
    lvl = p.level()
    p.end("trailing input after level")
    err = V.validate_input(system, lvl)
    if err is not None:
        p.fail(f"invalid level: {err}", start)
    return lvl
