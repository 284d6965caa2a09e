"""Multivalued Datalog: fuzzy, intuitionistic, interval-valued and bipolar
rule evaluation with proximity-based background knowledge."""

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
from .kb import (ProximityRelation, BackgroundKnowledge, PhiSpec,
                 KnowledgeBase, parse_proximity_file, parse_phi_file,
                 build_kb, validate_proximity, is_similarity, proximity_set,
                 phi_apply, mod_nt_step, consequence)
from .query import (Goal, SearchNode, SearchTree, build_tree, starting_facts,
                    answer, parse_goal, parse_level)

__version__ = "0.1.0"
