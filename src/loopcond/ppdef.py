"""Relations over finite universes and primitive-positive gadget evaluation.

A gadget is a conjunctive formula in graph form: a vertex set with typed
edges (one type per binary input slot) and a list of distinguished vertices.
Evaluating it against input graphs yields the defined relation.  A
pp-defined relation is invariant under every automorphism common to its
inputs, so evaluation searches one tuple per orbit of the inputs' twin
classes and fills in the rest of each orbit.
"""

from __future__ import annotations

import json
from itertools import chain, permutations, product

from .errors import ArityNotDivisible, GadgetFormatError, SlotMismatch, _Value
from .graph import DEFAULT_BUDGET, DiGraph, _arc_search, _decode, _field, _ints, _network


class Relation(_Value):
    """A k-ary relation: a set of k-tuples over 0..universe_size-1."""

    universe_size: int
    arity: int
    tuples: frozenset[tuple[int, ...]]

    def _check(self):
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


class Gadget(_Value):
    """Pattern graph with typed edges and distinguished output vertices.

    typed_edges holds triples (slot, a, b): the image of (a, b) must be an
    edge of the slot-th input graph.  Distinguished vertices may repeat,
    which imposes equality between output coordinates.
    """

    vertex_count: int
    typed_edges: tuple[tuple[int, int, int], ...]
    distinguished: tuple[int, ...]
    slot_count: int

    def _check(self):
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
    """Read the gadget JSON format strictly: an object with int `vertices`,
    a list `edges` of [slot, a, b] int triples, an int list `distinguished`
    and int `slots`, every vertex in range(vertices) and every slot in
    range(slots).  Raises GadgetFormatError for anything else."""
    return _decode(text, lambda data: Gadget(
        _field(data, "vertices", int),
        tuple(_ints(e, 3) for e in _field(data, "edges", list)),
        _ints(_field(data, "distinguished", list)),
        _field(data, "slots", int)), GadgetFormatError, "gadget")


def _gadget_network(gadget: Gadget,
                    inputs: list[DiGraph]) -> tuple[list, list, list, int]:
    """Domains, constraints and variable order for the search over gadget
    assignments, plus the number of distinct distinguished vertices, which
    come first in the order."""
    if len(inputs) != gadget.slot_count:
        raise SlotMismatch(
            f"gadget declares {gadget.slot_count} slots, got {len(inputs)} inputs")
    if not inputs:
        raise SlotMismatch("at least one input graph is required")
    if any(g.n != inputs[0].n for g in inputs):
        raise SlotMismatch("input graphs must share one vertex set")
    domains, constraints = _network(gadget.vertex_count, gadget.typed_edges, inputs)
    first = list(dict.fromkeys(gadget.distinguished))
    order = first + sorted(set(range(gadget.vertex_count)) - set(first))
    return domains, constraints, order, len(first)


def _twin_classes(graphs: list[DiGraph]) -> list[list[int]]:
    """The twin classes common to graphs on one vertex set: a partition of
    the vertices, each class ascending and the classes in order of their
    least members, such that swapping two vertices of a class is an
    automorphism of every graph.

    In one graph, i and j are non-adjacent twins when their out- and
    in-masks agree with the own bit cleared and their loops agree, and
    adjacent twins when the same holds with the own bit set.  Each is
    equality of a key, so an equivalence, and no vertex has twins of both
    kinds: were j a non-adjacent and k an adjacent twin of i, then k -> i
    would give k -> j, while k, agreeing with i off {i, k}, has no edge to
    j.  So each graph labels a vertex by the least of its twins, and the
    common classes group the vertices by their labels in every graph.
    """
    labels: list[list[int]] = [[] for _ in range(graphs[0].n)]
    for g in graphs:
        outs, ins = g._masks
        apart: dict[tuple[int, int, int], int] = {}
        joined: dict[tuple[int, int, int], int] = {}
        for v, label in enumerate(labels):
            bit = 1 << v
            loop = outs[v] >> v & 1
            label.append(min(apart.setdefault((outs[v] & ~bit, ins[v] & ~bit, loop), v),
                             joined.setdefault((outs[v] | bit, ins[v] | bit, loop), v)))
    classes: dict[tuple[int, ...], list[int]] = {}
    for v, label in enumerate(labels):
        classes.setdefault(tuple(label), []).append(v)
    return list(classes.values())


def _checked_twins(inputs: list[DiGraph]) -> list[tuple[int, ...]]:
    """The twin classes of the inputs with two or more members, each member
    checked against its class's least vertex: swapping the two must be an
    automorphism of every input, so the masks agree off the pair, the loops
    agree, and an edge joins the pair one way iff it joins it the other."""
    classes = [tuple(c) for c in _twin_classes(inputs) if len(c) > 1]
    for c in classes:
        i = c[0]
        for j in c[1:]:
            pair = 1 << i | 1 << j
            for outs, ins in (g._masks for g in inputs):
                if (outs[i] ^ outs[j]) & ~pair or (ins[i] ^ ins[j]) & ~pair \
                        or outs[i] >> i & 1 != outs[j] >> j & 1 \
                        or outs[i] >> j & 1 != outs[j] >> i & 1:
                    raise AssertionError(
                        f"swapping twins {i} and {j} is not an automorphism of the inputs")
    return classes


def _orbit(t: tuple[int, ...], classes: list[tuple[int, ...]],
           where: dict[int, int]) -> list[tuple[int, ...]]:
    """The tuples that permutations within the twin classes make of t, if t
    is its orbit's least-first tuple (the members of each class that it
    uses are the least ones, in order of first occurrence), else none: each
    injective map of those members into their class gives one, so a tuple
    that uses no member of a class of two or more is its own orbit."""
    used: dict[int, list[int]] = {}
    for x in dict.fromkeys(t):
        if x in where:
            used.setdefault(where[x], []).append(x)
    if any(classes[c][:len(m)] != tuple(m) for c, m in used.items()):
        return []
    sources = [x for m in used.values() for x in m]
    maps = product(*(permutations(classes[c], len(m)) for c, m in used.items()))
    return [tuple([image.get(x, x) for x in t])
            for image in (dict(zip(sources, chain.from_iterable(images))) for images in maps)]


def evaluate(gadget: Gadget, inputs: list[DiGraph], *,
             budget: int = DEFAULT_BUDGET) -> Relation:
    """The relation defined by the gadget over the given input graphs.

    A tuple (v1..vk) is included iff some map from gadget vertices to input
    vertices sends each distinguished vertex to its v_i and every typed edge
    into the corresponding input graph.  One search with maintained arc
    consistency assigns the distinguished vertices first; after the first
    full extension of their values it moves on to the next values, so each
    tuple costs one extension rather than a search of its own.

    An automorphism common to all inputs maps the relation onto itself, as
    it maps every witness to one of the image tuple.  When swapping any two
    vertices of a twin class (_twin_classes, checked here) is such an
    automorphism, every permutation within the classes is, so the search
    needs only each orbit's least-first tuple, whose members of each class
    are the least ones in order of first occurrence.  The i-th distinct
    distinguished vertex takes values among the i + 1 least members of
    each class, which keeps every least-first tuple, and each least-first
    tuple found adds its orbit.  The budget counts the expansions of this
    search over representatives; with only singleton classes it is the
    plain search.
    """
    domains, constraints, order, k = _gadget_network(gadget, inputs)
    classes = _checked_twins(inputs)
    where = {v: c for c, members in enumerate(classes) for v in members}
    allowed = ~sum(1 << v for v in where)
    for i, v in enumerate(order[:k]):
        allowed |= sum(1 << c[i] for c in classes if i < len(c))
        domains[v] &= allowed
    found = {u for asg in _arc_search(domains, constraints, order, budget, project=k)
             for u in _orbit(tuple([asg[v] for v in gadget.distinguished]), classes, where)}
    return Relation(inputs[0].n, gadget.arity, frozenset(found))


def witness(gadget: Gadget, inputs: list[DiGraph], values: tuple[int, ...], *,
            budget: int = DEFAULT_BUDGET) -> tuple[int, ...] | None:
    """A full gadget assignment realizing the given output tuple, or None.

    The assignment is re-checked against every typed edge before it is
    returned.
    """
    if len(values) != gadget.arity:
        raise ValueError("witness tuple must match the gadget arity")
    domains, constraints, order, _ = _gadget_network(gadget, inputs)
    for v, x in zip(gadget.distinguished, values):
        domains[v] &= 1 << x if 0 <= x < inputs[0].n else 0
    asg = next(_arc_search(domains, constraints, order, budget), None)
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
