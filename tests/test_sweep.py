"""Differential tests on seeded random programs and knowledge bases: the
delta-driven sweep against the full-rescan reference sweep, the pruned
grounding against full Herbrand grounding, and the per-call proximity
spreader against the reference modified step.

Both sides drive the same reference step operators, so every report must
agree exactly: entries (levels compared with ==), iteration counts,
convergence and the diagnostics list in order."""

import random

from mvdatalog import engine, kb, lang
from mvdatalog import values as V
from mvdatalog.kb import (BackgroundKnowledge, build_kb, consequence,
                          parse_proximity_file)
from mvdatalog.lang import parse_program
from mvdatalog.engine import fixpoint

from helpers import (random_bk, random_phi, random_program, reference_mod_nt_step,
                     reference_sweep)

SYSTEMS = (V.FUZZY, V.IFS, V.IVS, V.BIPOLAR_A, V.BIPOLAR_B)
MAX_ITERS = (1, 2, 3, 7, 10000)
TRIALS = 80


def _report(rep):
    return (rep.interpretation.entries, rep.iterations, rep.converged, rep.diagnostics)


def _runs(rng, program):
    """(name, thunk) pairs of every evaluation to compare on one program."""
    knowledge = build_kb(program, random_bk(rng, program), random_phi(rng, program))
    for max_iters in MAX_ITERS:
        for mode in ("det", "nondet"):
            yield (f"{mode}/{max_iters}",
                   lambda m=mode, n=max_iters: fixpoint(program, mode=m, max_iters=n))
        yield (f"consequence/{max_iters}",
               lambda n=max_iters: consequence(knowledge, max_iters=n))


def _shuffled_order(rng, program):
    order = list(range(1, len(program.proper_rules()) + 1))
    rng.shuffle(order)
    return order


def test_delta_sweep_matches_reference_sweep(monkeypatch):
    rng = random.Random(7)
    compared = 0
    for trial in range(TRIALS):
        system = SYSTEMS[trial % len(SYSTEMS)]
        program = random_program(rng, system, allow_negation=trial % 2 == 1)
        for directive in (None, _shuffled_order(rng, program)):
            program.order_directive = directive
            for name, run in _runs(rng, program):
                delta = _report(run())
                with monkeypatch.context() as patch:
                    patch.setattr(engine, "_sweep_to_fixpoint", reference_sweep)
                    patch.setattr(kb, "_sweep_to_fixpoint", reference_sweep)
                    expected = _report(run())
                assert delta == expected, (trial, directive, name)
                compared += 1
    assert compared == TRIALS * 2 * len(MAX_ITERS) * 3


def _full_ground(program, universe=None, widen=None):
    return lang.ground(program, universe)


def test_pruned_grounding_matches_full_grounding(monkeypatch, ex1):
    rng = random.Random(11)
    programs = [ex1] + [random_program(rng, SYSTEMS[trial % len(SYSTEMS)],
                                       allow_negation=trial % 2 == 1)
                        for trial in range(TRIALS)]
    compared = 0
    for index, program in enumerate(programs):
        for directive in (None, _shuffled_order(rng, program)):
            program.order_directive = directive
            for name, run in _runs(rng, program):
                pruned = _report(run())
                with monkeypatch.context() as patch:
                    patch.setattr(engine, "ground", _full_ground)
                    patch.setattr(kb, "ground", _full_ground)
                    expected = _report(run())
                assert pruned == expected, (index, directive, name)
                compared += 1
    assert compared == len(programs) * 2 * len(MAX_ITERS) * 3


# p and q name both predicates and constants, with different proximity sets
SHARED_NAMES = ("%system fuzzy.\nfact p(q) = 0.8.\nfact q(p) = 0.6.\n"
                "rule r(X) <- p(X) : godel, 0.9.\nrule p(X) <- q(X) : godel, 0.7.\n",
                "%system fuzzy.\n%domain terms.\nq ~ a = 0.5.\np ~ b = 0.4.\n"
                "%domain predicates.\np ~ q = 0.3.\nr ~ rr = 0.6.\n")


def test_spread_matches_reference_mod_step(monkeypatch, ex23_kb, ex17_kb):
    rng = random.Random(13)
    program_text, prox_text = SHARED_NAMES
    term_prox, pred_prox, _ = parse_proximity_file(prox_text)
    shared = build_kb(parse_program(program_text), BackgroundKnowledge(term_prox, pred_prox))
    knowledge_bases = [ex23_kb, ex17_kb, shared]
    for trial in range(TRIALS):
        program = random_program(rng, SYSTEMS[trial % len(SYSTEMS)],
                                 allow_negation=trial % 2 == 1)
        knowledge_bases.append(build_kb(program, random_bk(rng, program),
                                        random_phi(rng, program)))
    compared = 0
    for index, knowledge in enumerate(knowledge_bases):
        for directive in (None, _shuffled_order(rng, knowledge.program)):
            knowledge.program.order_directive = directive
            for max_iters in MAX_ITERS:
                spread = _report(consequence(knowledge, max_iters=max_iters))
                with monkeypatch.context() as patch:
                    patch.setattr(kb, "mod_nt_step", reference_mod_nt_step)
                    expected = _report(consequence(knowledge, max_iters=max_iters))
                assert spread == expected, (index, directive, max_iters)
                compared += 1
    assert compared == len(knowledge_bases) * 2 * len(MAX_ITERS)
