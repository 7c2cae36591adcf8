"""Classify loop conditions by their assigned graphs and test implications
via graph homomorphisms."""

from __future__ import annotations

import json
from enum import Enum

from .errors import _Value
from .graph import (DEFAULT_BUDGET, Homomorphism, algebraic_length, find_hom,
                    has_loop, is_bipartite, is_smooth, is_symmetric,
                    is_weakly_connected)
from .identity import LoopCondition, condition_graph


class ConditionKind(Enum):
    TRIVIAL = "Trivial"
    BIPARTITE = "Bipartite"
    NONBIPARTITE_LOOPLESS = "NonbipartiteLoopless"
    ORIENTED_UNRESOLVED = "OrientedUnresolved"


class Classification(_Value):
    """Outcome of classify(); the oriented case carries the predicates that
    decide equivalence over finite algebras, informational only."""

    kind: ConditionKind
    smooth: bool | None = None
    algebraic_length: int | None = None
    weakly_connected: bool | None = None


def classify(c: LoopCondition) -> Classification:
    """Trivial iff the assigned graph has a loop; symmetric loopless graphs
    split into bipartite and non-bipartite; anything else is reported as
    oriented and unresolved, with its smoothness, weak connectivity and
    algebraic length attached."""
    g = condition_graph(c)
    if has_loop(g):
        return Classification(ConditionKind.TRIVIAL)
    if is_symmetric(g):
        if is_bipartite(g):
            return Classification(ConditionKind.BIPARTITE)
        return Classification(ConditionKind.NONBIPARTITE_LOOPLESS)
    connected = is_weakly_connected(g)
    length = algebraic_length(g) if connected else None
    return Classification(ConditionKind.ORIENTED_UNRESOLVED,
                          smooth=is_smooth(g),
                          algebraic_length=length,
                          weakly_connected=connected)


def implies_by_hom(c: LoopCondition, d: LoopCondition, *,
                   budget: int = DEFAULT_BUDGET) -> Homomorphism | None:
    """A homomorphism from c's graph to d's graph witnesses that c implies d.

    Absence only means this method established nothing: implications proved
    by the reduction constructions need no underlying homomorphism.
    """
    return find_hom(condition_graph(c), condition_graph(d), budget=budget)


def equivalence_note(cls: Classification) -> str:
    if cls.kind is ConditionKind.TRIVIAL:
        return ("The assigned graph has a loop, so the condition is trivial: "
                "it is satisfied by a projection in every algebra.")
    if cls.kind is ConditionKind.BIPARTITE:
        return ("The assigned graph is bipartite, so it maps homomorphically "
                "onto a single unoriented edge: the condition is equivalent "
                "to commutativity t(x,y)=t(y,x), and all bipartite loop "
                "conditions are mutually equivalent.")
    if cls.kind is ConditionKind.NONBIPARTITE_LOOPLESS:
        return ("The assigned graph is non-bipartite and loopless. All such "
                "conditions are mutually equivalent, and they are the weakest "
                "non-trivial loop conditions.")
    if cls.weakly_connected and cls.smooth and cls.algebraic_length == 1:
        return ("The assigned graph is oriented, weakly connected, smooth and "
                "of algebraic length 1, so over finite algebras the condition "
                "is equivalent to the non-bipartite loopless class; whether "
                "this extends beyond finite algebras is open.")
    return ("The assigned graph is oriented and falls outside the classified "
            "cases; this tool draws no conclusion about its strength.")


def classification_to_json_dict(cls: Classification) -> dict:
    details: dict = {}
    if cls.kind is ConditionKind.ORIENTED_UNRESOLVED:
        details = {
            "smooth": cls.smooth,
            "algebraic_length": cls.algebraic_length,
            "weakly_connected": cls.weakly_connected,
        }
    return {"class": cls.kind.value, "details": details,
            "note": equivalence_note(cls)}


def classification_to_json(cls: Classification) -> str:
    return json.dumps(classification_to_json_dict(cls), sort_keys=True)
