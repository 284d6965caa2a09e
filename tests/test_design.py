"""Design invariants of the library's source: one value abstraction on
every evaluation path, no import left behind, and no code name in the
docs that names nothing."""

import ast
import copy
import importlib
import pathlib
import re

import pytest

from mvdatalog import values as V
from mvdatalog.engine import fixpoint, is_model
from mvdatalog.kb import (BackgroundKnowledge, PhiSpec, build_kb, consequence, is_similarity,
                          parse_phi_file, parse_proximity_file)
from mvdatalog.lang import Atom, Constant, Variable, parse_program
from mvdatalog.query import Goal, answer

from conftest import DATA
from helpers import relation_contents

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mvdatalog"

# the checked value functions, which look the system up by name and check
# the shape of every value on each call
CHECKED = ("bottom", "top", "leq", "meet", "join", "meet_all", "negate", "values_equal",
           "is_bottom")


def _load(program_path):
    """The program of a tests/data example, its background knowledge and its
    function set, from the files of its name where they exist."""
    program = parse_program(program_path.read_text(), safety="paper-examples")
    bk = BackgroundKnowledge.empty()
    prox, phi = program_path.with_suffix(".prox"), program_path.with_suffix(".phi")
    if prox.exists():
        bk = BackgroundKnowledge(*parse_proximity_file(prox.read_text())[:2])
    return program, bk, parse_phi_file(phi.read_text()) if phi.exists() else PhiSpec()


def _run_entry_points(program, bk, phi):
    """Load, evaluate in both modes, check as a model, test both relations
    for similarity and answer a goal on each predicate, its tree read."""
    kb = build_kb(program, bk, phi)
    for mode in ("det", "nondet"):
        is_model(program, fixpoint(program, mode).interpretation)
    consequence(kb)
    for rel in (bk.term_prox, bk.pred_prox):
        is_similarity(rel, program.system)
    constants = sorted(program.constants())
    for pred, arity in program.predicates().items():
        args = tuple(Variable(f"X{i}") for i in range(arity))
        goals = [args] + [(Constant(name), *args[1:]) for name in constants[:1] if arity]
        for goal_args in goals:
            result = answer(kb, Goal(Atom(pred, goal_args)))
            assert result.tree.nodes, (pred, goal_args)


@pytest.mark.parametrize("program_path", sorted(DATA.glob("*.mvd")), ids=lambda p: p.stem)
def test_evaluation_paths_compute_on_the_bound_lattice(monkeypatch, program_path):
    """With every checked value function raising, each example program, with
    its proximity and function-set files, still loads, evaluates, checks as
    a model, tests both relations for similarity and answers a goal on each
    predicate, its tree read: the library calls the bound `values.Lattice`
    alone."""
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"values.{name} called")
        return call

    for name in CHECKED:
        monkeypatch.setattr(V, name, refuse(name))
    _run_entry_points(*_load(program_path))


# a knowledge base whose term and predicate relations each hold a
# bottom-valued entry, which `proximity_set` skips
BOTTOM_VALUED = ("%system fuzzy.\nfact p(a) = 0.8.\nrule q(X) <- p(X) : godel, 0.9.\n",
                 "%domain terms.\na ~ b = 0.0.\na ~ c = 0.6.\n"
                 "%domain predicates.\np ~ r = 0.0.\nq ~ s = 0.7.\n",
                 "phi q/1 = meet.\n")


@pytest.mark.parametrize("inputs", [*sorted(DATA.glob("*.mvd")), BOTTOM_VALUED],
                         ids=lambda i: i.stem if isinstance(i, pathlib.Path) else "bottom-valued")
def test_entry_points_leave_their_inputs_as_given(inputs):
    """No entry point writes the program, the background knowledge or the
    function set it is given; a relation keeps its pairs and neighbour map
    in order, its bottom-valued entries too."""
    if isinstance(inputs, pathlib.Path):
        program, bk, phi = _load(inputs)
    else:
        program = parse_program(inputs[0])
        bk = BackgroundKnowledge(*parse_proximity_file(inputs[1])[:2])
        phi = parse_phi_file(inputs[2])
    given_program, given_bk, given_phi = copy.deepcopy((program, bk, phi))
    _run_entry_points(program, bk, phi)
    assert program == given_program
    assert phi == given_phi
    assert relation_contents(bk.term_prox) == relation_contents(given_bk.term_prox)
    assert relation_contents(bk.pred_prox) == relation_contents(given_bk.pred_prox)


def test_every_top_level_import_is_read():
    """Each module of the package (its __init__ re-exports) reads every name
    it imports at top level, `from __future__` imports aside."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in read]
    assert not unread, unread


# a backticked `module.name` or `module.name.attr`, the module one of the
# package's, written with or without its `mvdatalog.` prefix
CODE_NAME = re.compile(r"`(?:mvdatalog\.)?(values|implications|lang|engine|kb|query|cli)"
                       r"((?:\.[A-Za-z_][A-Za-z0-9_]*){1,2})`")


def test_code_names_in_the_docs_resolve():
    """Every code name that README.md or a module of the package writes in
    backticks names something: a rename or a removal that leaves a
    docstring behind fails here.  ROADMAP.md and CHANGES.md are left out,
    as they name metrics and code that is gone."""
    stale, missing = [], object()
    for path in [ROOT / "README.md", *sorted(PACKAGE.glob("*.py"))]:
        for m in CODE_NAME.finditer(path.read_text(encoding="utf-8")):
            obj = importlib.import_module(f"mvdatalog.{m[1]}")
            for name in m[2].split(".")[1:]:
                obj = getattr(obj, name, missing)
            if obj is missing:
                stale.append(f"{path.name}: {m[0]}")
    assert not stale, stale
