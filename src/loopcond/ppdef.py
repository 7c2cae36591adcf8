"""Relations over finite universes and primitive-positive gadget evaluation.

A gadget is a conjunctive formula in graph form: a vertex set with typed
edges (one type per binary input slot) and a list of distinguished vertices.
Evaluating it against input graphs yields the defined relation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

from .errors import ArityNotDivisible, SlotMismatch
from .graph import DEFAULT_BUDGET, DiGraph, _arc_search, _network


@dataclass(frozen=True)
class Relation:
    """A k-ary relation: a set of k-tuples over 0..universe_size-1."""

    universe_size: int
    arity: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.universe_size < 1:
            raise ValueError("universe must be nonempty")
        if self.arity < 0:
            raise ValueError("arity must be nonnegative")
        for t in self.tuples:
            if len(t) != self.arity:
                raise ValueError(f"tuple {t} has wrong arity")
            if any(not 0 <= x < self.universe_size for x in t):
                raise ValueError(f"tuple {t} leaves the universe")

    @classmethod
    def full(cls, universe_size: int, arity: int) -> "Relation":
        return cls(universe_size, arity,
                   frozenset(product(range(universe_size), repeat=arity)))

    def sorted_tuples(self) -> list[tuple[int, ...]]:
        return sorted(self.tuples)


def graph_to_relation(g: DiGraph) -> Relation:
    return Relation(g.n, 2, frozenset(g.edges))


def relation_to_graph(r: Relation) -> DiGraph:
    if r.arity != 2:
        raise ValueError("only binary relations are graphs")
    return DiGraph(r.universe_size, frozenset(r.tuples))


@dataclass(frozen=True)
class Gadget:
    """Pattern graph with typed edges and distinguished output vertices.

    typed_edges holds triples (slot, a, b): the image of (a, b) must be an
    edge of the slot-th input graph.  Distinguished vertices may repeat,
    which imposes equality between output coordinates.
    """

    vertex_count: int
    typed_edges: tuple[tuple[int, int, int], ...]
    distinguished: tuple[int, ...]
    slot_count: int

    def __post_init__(self):
        if self.vertex_count < 0 or self.slot_count < 0:
            raise ValueError("counts must be nonnegative")
        for t, a, b in self.typed_edges:
            if not 0 <= t < self.slot_count:
                raise ValueError(f"edge type {t} has no input slot")
            if not (0 <= a < self.vertex_count and 0 <= b < self.vertex_count):
                raise ValueError(f"edge ({a},{b}) out of range")
        for u in self.distinguished:
            if not 0 <= u < self.vertex_count:
                raise ValueError(f"distinguished vertex {u} out of range")

    @property
    def arity(self) -> int:
        return len(self.distinguished)


def gadget_to_json(g: Gadget) -> str:
    return json.dumps({
        "vertices": g.vertex_count,
        "edges": [list(e) for e in g.typed_edges],
        "distinguished": list(g.distinguished),
        "slots": g.slot_count,
    }, sort_keys=True)


def gadget_from_json(text: str) -> Gadget:
    data = json.loads(text)
    return Gadget(int(data["vertices"]),
                  tuple(tuple(e) for e in data["edges"]),
                  tuple(data["distinguished"]),
                  int(data["slots"]))


def _gadget_network(gadget: Gadget,
                    inputs: list[DiGraph]) -> tuple[list, list, list, int]:
    """Domains, arcs and variable order for the search over gadget
    assignments, plus the number of distinct distinguished vertices, which
    come first in the order."""
    if len(inputs) != gadget.slot_count:
        raise SlotMismatch(
            f"gadget declares {gadget.slot_count} slots, got {len(inputs)} inputs")
    if not inputs:
        raise SlotMismatch("at least one input graph is required")
    if any(g.n != inputs[0].n for g in inputs):
        raise SlotMismatch("input graphs must share one vertex set")
    domains, arcs = _network(gadget.vertex_count, gadget.typed_edges, inputs)
    first = list(dict.fromkeys(gadget.distinguished))
    order = first + sorted(set(range(gadget.vertex_count)) - set(first))
    return domains, arcs, order, len(first)


def evaluate(gadget: Gadget, inputs: list[DiGraph], *,
             budget: int = DEFAULT_BUDGET) -> Relation:
    """The relation defined by the gadget over the given input graphs.

    A tuple (v1..vk) is included iff some map from gadget vertices to input
    vertices sends each distinguished vertex to its v_i and every typed edge
    into the corresponding input graph.  One search with maintained arc
    consistency assigns the distinguished vertices first; after the first
    full extension of their values it moves on to the next values, so each
    tuple costs one extension rather than a search of its own.
    """
    domains, arcs, order, k = _gadget_network(gadget, inputs)
    found = {tuple(asg[v] for v in gadget.distinguished)
             for asg in _arc_search(domains, arcs, order, budget, project=k)}
    return Relation(inputs[0].n, gadget.arity, frozenset(found))


def witness(gadget: Gadget, inputs: list[DiGraph], values: tuple[int, ...], *,
            budget: int = DEFAULT_BUDGET) -> tuple[int, ...] | None:
    """A full gadget assignment realizing the given output tuple, or None.

    The assignment is re-checked against every typed edge before it is
    returned.
    """
    if len(values) != gadget.arity:
        raise ValueError("witness tuple must match the gadget arity")
    domains, arcs, order, _ = _gadget_network(gadget, inputs)
    for v, x in zip(gadget.distinguished, values):
        domains[v] &= 1 << x if 0 <= x < inputs[0].n else 0
    asg = next(_arc_search(domains, arcs, order, budget), None)
    if asg is not None and (
            any(asg[v] != x for v, x in zip(gadget.distinguished, values))
            or any((asg[a], asg[b]) not in inputs[t].edges
                   for t, a, b in gadget.typed_edges)):
        raise AssertionError("search returned an assignment that breaks a constraint")
    return asg


def pp_power(r: Relation, l: int) -> Relation:
    """Regroup a (k*l)-ary relation as k-ary over universe^l.

    Blocks of l consecutive coordinates become single elements, encoded in
    mixed radix with the first coordinate most significant.
    """
    if l < 1:
        raise ValueError("power exponent must be positive")
    if r.arity % l != 0:
        raise ArityNotDivisible(f"arity {r.arity} is not divisible by {l}")
    k = r.arity // l
    base = r.universe_size
    tuples = set()
    for t in r.tuples:
        coded = []
        for i in range(k):
            c = 0
            for x in t[i * l:(i + 1) * l]:
                c = c * base + x
            coded.append(c)
        tuples.add(tuple(coded))
    return Relation(base ** l, k, frozenset(tuples))


def pp_flatten(r: Relation, l: int, base: int) -> Relation:
    """Inverse of pp_power: decode each coordinate back into l coordinates."""
    if l < 1:
        raise ValueError("power exponent must be positive")
    if base ** l != r.universe_size:
        raise ValueError("universe is not the stated power")
    tuples = set()
    for t in r.tuples:
        flat: list[int] = []
        for c in t:
            block = []
            for _ in range(l):
                block.append(c % base)
                c //= base
            flat.extend(reversed(block))
        tuples.add(tuple(flat))
    return Relation(base, r.arity * l, frozenset(tuples))
