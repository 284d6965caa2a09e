"""Multivalued Datalog: fuzzy, intuitionistic, interval-valued and bipolar
rule evaluation with proximity-based background knowledge.

`import mvdatalog` loads the value, implication, language and engine
modules; the knowledge-base (`kb`) and query (`query`) modules load at the
first use of one of their names, and the CLI's `fixpoint` and `check`
without --prox or --phi load neither."""

from .values import (FUZZY, IFS, IVS, BIPOLAR_A, BIPOLAR_B, SYSTEMS,
                     bottom, top, leq, meet, join, negate, validate,
                     ifs_to_ivs, ivs_to_ifs, fmt)
from .implications import (apply_implication, level_fn, bipolar_level,
                           closure_check, LevelResult)
from .lang import (Atom, Constant, Variable, ProximityRef, Literal, Rule,
                   Program, ParseError, SafetyError, parse_program,
                   print_program, check_safety, herbrand, ground, unify)
from .engine import (Interpretation, EvalOrder, FixpointReport, applicable,
                     dt_step, nt_step, stratify, fixpoint, is_model)

# name -> the submodule that defines it, imported on first lookup
_LAZY = {
    **dict.fromkeys(("ProximityRelation", "BackgroundKnowledge", "PhiSpec",
                     "KnowledgeBase", "parse_proximity_file", "parse_phi_file",
                     "build_kb", "validate_proximity", "is_similarity", "proximity_set",
                     "phi_apply", "mod_nt_step", "consequence", "kb"), "kb"),
    **dict.fromkeys(("Goal", "SearchNode", "SearchTree", "build_tree", "starting_facts",
                     "answer", "parse_goal", "parse_level", "query"), "query"),
}

__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_LAZY))
__version__ = "0.1.0"


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value     # later lookups are plain attribute reads
    return value


def __dir__():
    return __all__
