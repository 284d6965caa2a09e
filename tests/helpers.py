"""Seeded generators for the randomized property suites, and the reference
implementations that the differential tests compare against."""

import itertools
import random
from typing import Optional

from mvdatalog import implications as Imp
from mvdatalog import values as V
from mvdatalog.engine import (FixpointReport, Interpretation, _raised, _stratum_rule_lists,
                              _unwidened, applicable, order_from_directive, stratify)
from mvdatalog.lang import (Atom, Constant, GroundRule, Literal, Program, Rule, Variable,
                            _default_impl, ground, rename_apart, substitute, unify)
from mvdatalog.kb import (PHI_MEET, PHI_MEET_PRODUCT, PHI_PRODUCT,
                          BackgroundKnowledge, PhiSpec, ProximityRelation,
                          _pair_product, _Spread, modified_universe, proximity_set)
from mvdatalog.query import SearchNode, SearchTree, _connective, _TreeBuilder

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
        rules.append(Rule(Atom(pred, args), (), _default_impl(system),
                          random_level(rng, system)))
    for _ in range(rng.randint(1, 4)):
        rules.append(_random_rule(rng, preds, system, allow_negation))
    return Program(system, rules)


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


def _note_closure_violation(rule: GroundRule, value, diagnostics: Optional[list],
                            system: str) -> None:
    if diagnostics is None:
        return
    note = (f"closure violation: derived level {V.fmt(value)} for "
            f"{rule.head} is outside the {system} lattice")
    if note not in diagnostics:
        diagnostics.append(note)


def _head_level(rule: GroundRule, body_value, diagnostics: Optional[list], system: str):
    value, closed = Imp.bound_level(rule.impl, system)(body_value, rule.level)
    if not closed:
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
        value, closed = Imp.bound_level(rule.impl, system)(body, rule.level)
        raised = _raised(interp.lattice, interp.entries.get(rule.head), value)
        if raised is None:
            continue
        # diagnostics come from the productive application only
        if not closed:
            _note_closure_violation(rule, value, diagnostics, system)
        out = interp.copy()
        out.entries[rule.head] = raised
        return out
    return interp


def reference_evaluate(program: Program, fact_step, step, max_iters: int = 10000,
                       universe=None, widen=None) -> FixpointReport:
    """`engine._evaluate` on objects: the same order selection and stratum
    lists, over the GroundRule lists `lang.ground` returns without a table,
    swept by `reference_sweep` with the given reference steps.  widen=None
    grounds every instance over the universe."""
    if program.order_directive:
        order = order_from_directive(program.order_directive)
    else:
        order = stratify(program)
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


class ReferenceTreeBuilder(_TreeBuilder):
    """The search-tree builder before its rule phase skipped the rules of
    another head functor, kept as the reference for differential tests: it
    renames every proper rule apart at every rule-phase node."""

    def expand_rule_phase(self, node: SearchNode) -> None:
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


def reference_build_tree(kb, goal, depth_limit: int = 64) -> SearchTree:
    """`query.build_tree` on the reference builder."""
    builder = ReferenceTreeBuilder(kb, depth_limit)
    root = SearchNode("goal", 0, goal.atom, connective=_connective(0))
    builder.expand_goal(root)
    return SearchTree(root, builder.truncated, depth_limit)
