"""Loop conditions: single-equation linear identities, their assigned graphs,
pp-definability gadgets, and decision procedures over finite algebras.

The graph side (errors, graph, identity, classify) is imported with the
package.  The names from algebra, ppdef and constructions, and those three
submodules themselves, are imported on first use (PEP 562) and then kept in
the package namespace, so `import loopcond` and the graph-side CLI
subcommands do not compile the algebra side.
"""

from .classify import (Classification, ConditionKind, classification_to_json,
                       classify, equivalence_note, implies_by_hom)
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

# submodule -> the names it lends the package on first use
_LAZY = {
    "algebra": ("App", "Decision", "FiniteAlgebra", "NotSatisfied", "Operation",
                "ResourceExceeded", "Satisfied", "Term", "Var", "affine_remark_audit",
                "affine_satisfies", "algebra_from_json", "algebra_to_json",
                "decision_to_json_dict", "evaluate_term", "generate_subpower",
                "is_compatible", "mod_affine_algebra", "projection_algebra",
                "satisfies_condition", "term_to_string", "verify_witness"),
    "constructions": ("Check", "Report", "clique_F", "clique_Q", "clique_R",
                      "report_to_json", "verify_clique_claims", "verify_cycle_reduction",
                      "walk_gadget", "walk_relation"),
    "ppdef": ("Gadget", "Relation", "evaluate", "gadget_from_json", "gadget_to_json",
              "graph_to_relation", "pp_flatten", "pp_power", "relation_to_graph", "witness"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}

# the eager names, the lazy ones, and the six submodules the package binds
__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | set(_OWNER) | set(_LAZY))


def __getattr__(name: str):
    from importlib import import_module
    if name in _LAZY:
        value = import_module(f".{name}", __name__)
    elif name in _OWNER:
        value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
