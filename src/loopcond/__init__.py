"""Loop conditions: single-equation linear identities, their assigned graphs,
pp-definability gadgets, and decision procedures over finite algebras."""

from .algebra import (App, Decision, FiniteAlgebra, NotSatisfied, Operation,
                      ResourceExceeded, Satisfied, Term, Var, affine_remark_audit,
                      affine_satisfies, algebra_from_json, algebra_to_json,
                      decision_to_json_dict, evaluate_term, generate_subpower,
                      is_compatible,
                      mod_affine_algebra, projection_algebra, satisfies_condition,
                      term_to_string, verify_witness)
from .classify import (Classification, ConditionKind, classification_to_json,
                       classify, equivalence_note, implies_by_hom)
from .constructions import (Check, Report, clique_F, clique_Q, clique_R,
                            report_to_json, verify_clique_claims,
                            verify_cycle_reduction, walk_gadget, walk_relation)
from .errors import (AlgebraFormatError, ArityMismatch, ArityNotDivisible, BadTerm,
                     BudgetExceeded, ConditionSyntaxError, EmptyArgs, ExponentCap,
                     GadgetFormatError, GraphFormatError, LoopcondError, NotSymmetric,
                     NotWeaklyConnected, SizeCap, SlotMismatch, SymbolMismatch,
                     UniverseMismatch)
from .graph import (DiGraph, Homomorphism, algebraic_length, clique, core, cycle,
                    directed_cycle, find_embedding, find_hom, graph_from_json,
                    graph_to_json, has_loop, is_bipartite, is_smooth,
                    is_symmetric, is_weakly_connected, odd_girth, path, petersen,
                    symmetric_part, to_dot)
from .identity import (COMMUTATIVITY_IDENTITY, SIGGERS_IDENTITY, LoopCondition,
                       condition_from_graph, condition_graph, parse_condition,
                       print_condition)
from .ppdef import (Gadget, Relation, evaluate, gadget_from_json, gadget_to_json,
                    graph_to_relation, pp_flatten, pp_power, relation_to_graph,
                    witness)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
