import json
import random
from itertools import combinations, product

import pytest

from helpers import evaluate_brute, least_witnesses_brute
from loopcond import (ArityNotDivisible, DiGraph, Gadget, GadgetFormatError, Relation,
                      SlotMismatch, clique, cycle, evaluate, gadget_from_json, gadget_to_json,
                      graph_to_relation, pp_flatten, pp_power, relation_to_graph,
                      walk_gadget, witness)
from loopcond import ppdef
from loopcond.ppdef import _twin_classes


def test_relation_validation_and_full() -> None:
    with pytest.raises(ValueError):
        Relation(2, 2, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        Relation(2, 2, frozenset({(0,)}))
    assert len(Relation.full(3, 2).tuples) == 9


def test_identity_gadget_returns_input_edges() -> None:
    g = Gadget(2, ((0, 0, 1),), (0, 1), 1)
    for graph in (cycle(5), DiGraph(3, frozenset({(0, 1), (2, 2)}))):
        assert evaluate(g, [graph]) == graph_to_relation(graph)


def test_empty_conjunction_gadget_is_full_relation() -> None:
    g = Gadget(2, (), (0, 1), 1)
    anything = DiGraph(4, frozenset({(0, 1)}))
    assert evaluate(g, [anything]) == Relation.full(4, 2)


def test_walk_gadget_on_nine_cycle_frozen_value() -> None:
    # brute force over all 9^4 maps: 3-edge walks reach offsets +-1 and +-3
    # (walks may backtrack), 36 pairs in total
    got = evaluate(walk_gadget(3), [cycle(9)])
    expected = frozenset((i, (i + d) % 9) for i in range(9) for d in (1, 3, 6, 8))
    assert got.tuples == expected
    assert got == evaluate_brute(walk_gadget(3), [cycle(9)])


def test_duplicate_distinguished_vertices_force_equality() -> None:
    g = Gadget(2, ((0, 0, 1),), (0, 0), 1)
    got = evaluate(g, [cycle(4)])
    assert got.tuples == {(v, v) for v in range(4)}


def _random_gadget(rng: random.Random) -> Gadget:
    vertices = rng.randint(1, 4)
    slots = rng.randint(1, 2)
    edges = tuple((rng.randrange(slots), rng.randrange(vertices),
                   rng.randrange(vertices))
                  for _ in range(rng.randint(0, 5)))
    distinguished = tuple(rng.randrange(vertices)
                          for _ in range(rng.randint(1, 2)))
    return Gadget(vertices, edges, distinguished, slots)


def _random_graph(rng: random.Random, n: int) -> DiGraph:
    edges = {(a, b) for a in range(n) for b in range(n) if rng.random() < 0.45}
    return DiGraph(n, frozenset(edges))


def test_evaluate_matches_brute_force_on_random_instances() -> None:
    rng = random.Random(404)
    for _ in range(120):
        gadget = _random_gadget(rng)
        n = rng.randint(1, 3)
        inputs = [_random_graph(rng, n) for _ in range(gadget.slot_count)]
        assert evaluate(gadget, inputs) == evaluate_brute(gadget, inputs)


def _gadget_with_clique(rng: random.Random) -> Gadget:
    """3-7 vertices, 3-5 of them joined pairwise by an edge of a random slot
    and direction, plus a few other edges without loops."""
    vertices = rng.randint(3, 7)
    slots = rng.randint(1, 2)
    members = rng.sample(range(vertices), rng.randint(3, min(5, vertices)))
    edges = [(rng.randrange(slots), *(pair if rng.random() < 0.5 else pair[::-1]))
             for pair in combinations(members, 2)]
    for _ in range(rng.randint(0, 4)):
        a, b = rng.sample(range(vertices), 2)
        edges.append((rng.randrange(slots), a, b))
    rng.shuffle(edges)
    distinguished = tuple(rng.randrange(vertices) for _ in range(rng.randint(1, 3)))
    return Gadget(vertices, tuple(edges), distinguished, slots)


def _loopless_input(rng: random.Random, n: int) -> DiGraph:
    """A clique (C3, the one odd cycle on at most 4 vertices, is K3) or a
    random loopless digraph on n vertices."""
    if rng.random() < 0.4:
        return clique(n)
    return DiGraph(n, frozenset((a, b) for a in range(n) for b in range(n)
                                if a != b and rng.random() < 0.6))


def test_gadgets_with_cliques_of_variables_match_brute_force() -> None:
    # a clique of variables over loopless inputs is a group of pairwise
    # different variables, so these searches count values per group; the
    # relation and every least witness must not change
    rng = random.Random(1313)
    for _ in range(60):
        gadget = _gadget_with_clique(rng)
        n = rng.randint(2, 4)
        inputs = [_loopless_input(rng, n) for _ in range(gadget.slot_count)]
        relation = evaluate(gadget, inputs)
        least = least_witnesses_brute(gadget, inputs)
        assert relation == evaluate_brute(gadget, inputs)
        assert relation.tuples == set(least)
        for values, asg in least.items():
            assert witness(gadget, inputs, values) == asg
        for _ in range(3):
            values = tuple(rng.randrange(n) for _ in range(gadget.arity))
            if values not in least:
                assert witness(gadget, inputs, values) is None


def _blow_up(rng: random.Random, sizes: list[int], vertices: list[int]) -> DiGraph:
    """A random digraph on len(sizes) vertices, with or without loops, whose
    i-th vertex becomes sizes[i] twins, adjacent or not: the next sizes[i]
    entries of `vertices`."""
    blocks, rest = [], list(vertices)
    for size in sizes:
        blocks.append(rest[:size])
        rest = rest[size:]
    base = {(a, b) for a in range(len(sizes)) for b in range(len(sizes))
            if rng.random() < 0.5}
    joined = [rng.random() < 0.5 for _ in sizes]
    edges = {(x, y) for a, b in product(range(len(sizes)), repeat=2)
             for x in blocks[a] for y in blocks[b]
             if ((a, b) in base if x == y or a != b else joined[a])}
    return DiGraph(len(vertices), frozenset(edges))


def _cut(rng: random.Random, n: int) -> list[int]:
    """n cut into random parts of 1-3."""
    sizes: list[int] = []
    while n:
        sizes.append(rng.randint(1, min(3, n)))
        n -= sizes[-1]
    return sizes


def test_evaluate_on_blow_ups_matches_brute_force() -> None:
    # twins of every input are searched one least-first tuple per orbit;
    # the second input is blown up along another partition, so the common
    # classes are finer than either input's, and the distinguished vertices
    # repeat
    rng = random.Random(2323)
    merged = 0
    for _ in range(150):
        vertices = rng.randint(1, 4)
        slots = rng.randint(1, 2)
        gadget = Gadget(vertices, tuple((rng.randrange(slots), rng.randrange(vertices),
                                         rng.randrange(vertices))
                                        for _ in range(rng.randint(0, 6))),
                        tuple(rng.randrange(vertices) for _ in range(rng.randint(1, 4))),
                        slots)
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
        n = sum(sizes)
        inputs = [_blow_up(rng, sizes if slot == 0 else _cut(rng, n),
                           rng.sample(range(n), n)) for slot in range(slots)]
        merged += len(_twin_classes(inputs)) < n
        assert evaluate(gadget, inputs) == evaluate_brute(gadget, inputs)
    assert merged > 100


@pytest.mark.parametrize("arity", [0, 1])
def test_evaluate_short_outputs_on_blow_ups(arity) -> None:
    # a 0-ary gadget defines {()} or nothing, a 1-ary one a set of vertices,
    # each filled in from its orbit's least member; both against brute force
    rng = random.Random(4242 + arity)
    kinds = set()
    for _ in range(40):
        vertices = rng.randint(1, 3)
        gadget = Gadget(vertices, tuple((0, rng.randrange(vertices), rng.randrange(vertices))
                                        for _ in range(rng.randint(0, 4))),
                        tuple(rng.randrange(vertices) for _ in range(arity)), 1)
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        g = _blow_up(rng, sizes, rng.sample(range(sum(sizes)), sum(sizes)))
        got = evaluate(gadget, [g])
        assert got == evaluate_brute(gadget, [g])
        kinds.add(len(got.tuples) > 0)
    assert kinds == {False, True}


def test_twin_classes() -> None:
    k23 = DiGraph.from_edges(5, [e for a in (0, 1) for b in (2, 3, 4) for e in ((a, b), (b, a))])
    assert _twin_classes([clique(4)]) == [[0, 1, 2, 3]]
    assert _twin_classes([k23]) == [[0, 1], [2, 3, 4]]
    assert _twin_classes([cycle(5)]) == [[v] for v in range(5)]
    # 0 and 1 swap in K4 but not in the second input, where 2 and 3 do
    fan = DiGraph.from_edges(4, [(0, 2), (0, 3)])
    assert _twin_classes([clique(4), fan]) == [[0], [1], [2, 3]]
    # looped twins that are not adjacent, and twins adjacent in one input
    # and not in the other
    looped = DiGraph.from_edges(3, [(0, 0), (1, 1), (0, 2), (1, 2)])
    assert _twin_classes([looped]) == [[0, 1], [2]]
    assert _twin_classes([clique(2), DiGraph(2, frozenset())]) == [[0, 1]]


@pytest.mark.parametrize("edges", [
    [(0, 2)],   # the out-masks differ off the pair
    [(2, 0)],   # the in-masks differ off the pair
    [(0, 0)],   # the loops differ
    [(0, 1)],   # the pair is joined one way only
], ids=["out-masks", "in-masks", "loops", "one way"])
def test_evaluate_rejects_a_false_twin_class(monkeypatch, edges) -> None:
    g = DiGraph.from_edges(3, edges)
    monkeypatch.setattr(ppdef, "_twin_classes", lambda graphs: [[0, 1], [2]])
    with pytest.raises(AssertionError,
                       match="^swapping twins 0 and 1 is not an automorphism of the inputs$"):
        evaluate(Gadget(2, ((0, 0, 1),), (0, 1), 1), [g])


def test_evaluate_is_monotone_in_inputs() -> None:
    rng = random.Random(99)
    for _ in range(60):
        gadget = _random_gadget(rng)
        n = rng.randint(2, 3)
        inputs = [_random_graph(rng, n) for _ in range(gadget.slot_count)]
        before = evaluate(gadget, inputs)
        grown = list(inputs)
        slot = rng.randrange(len(grown))
        extra = (rng.randrange(n), rng.randrange(n))
        grown[slot] = DiGraph(n, grown[slot].edges | {extra})
        after = evaluate(gadget, grown)
        assert before.tuples <= after.tuples


def test_evaluate_commutes_with_vertex_relabeling() -> None:
    rng = random.Random(7)
    for _ in range(60):
        gadget = _random_gadget(rng)
        n = rng.randint(2, 4)
        inputs = [_random_graph(rng, n) for _ in range(gadget.slot_count)]
        perm = list(range(n))
        rng.shuffle(perm)
        mapped = [DiGraph(n, frozenset((perm[a], perm[b]) for a, b in g.edges))
                  for g in inputs]
        base = evaluate(gadget, inputs)
        moved = evaluate(gadget, mapped)
        assert moved.tuples == {tuple(perm[x] for x in t) for t in base.tuples}


def test_witness_returns_a_checkable_assignment() -> None:
    gadget = walk_gadget(3)
    c9 = cycle(9)
    asg = witness(gadget, [c9], (0, 3))
    assert asg is not None
    for t, a, b in gadget.typed_edges:
        assert (asg[a], asg[b]) in c9.edges
    assert (asg[0], asg[3]) == (0, 3)
    assert witness(gadget, [c9], (0, 4)) is None


def test_evaluate_budget_exceeded() -> None:
    from loopcond import BudgetExceeded
    with pytest.raises(BudgetExceeded):
        evaluate(walk_gadget(5), [cycle(9)], budget=3)


def test_slot_mismatch() -> None:
    g = Gadget(2, ((0, 0, 1),), (0, 1), 1)
    with pytest.raises(SlotMismatch):
        evaluate(g, [])
    with pytest.raises(SlotMismatch):
        evaluate(g, [cycle(3), cycle(3)])
    with pytest.raises(SlotMismatch):
        evaluate(Gadget(2, (), (0, 1), 2), [cycle(3), cycle(4)])


def test_pp_power_identity_at_l_one() -> None:
    rng = random.Random(3)
    for _ in range(20):
        arity = rng.randint(1, 3)
        universe = rng.randint(1, 3)
        tuples = frozenset(t for t in product(range(universe), repeat=arity)
                           if rng.random() < 0.5)
        r = Relation(universe, arity, tuples)
        assert pp_power(r, 1) == r


def test_pp_power_full_four_ary_over_two() -> None:
    got = pp_power(Relation.full(2, 4), 2)
    assert got == Relation.full(4, 2)


def test_pp_power_encoding_first_coordinate_most_significant() -> None:
    r = Relation(3, 4, frozenset({(1, 2, 0, 1)}))
    assert pp_power(r, 2).tuples == {(1 * 3 + 2, 0 * 3 + 1)}


def test_pp_power_flatten_roundtrip() -> None:
    rng = random.Random(12)
    for _ in range(30):
        universe = rng.randint(1, 3)
        l = rng.randint(1, 2)
        k = rng.randint(1, 2)
        tuples = frozenset(t for t in product(range(universe), repeat=k * l)
                           if rng.random() < 0.4)
        r = Relation(universe, k * l, tuples)
        assert pp_flatten(pp_power(r, l), l, universe) == r


def _pp_power_brute(r: Relation, l: int) -> Relation:
    """pp_power by decoding each tuple's blocks one coordinate at a time."""
    def code(block) -> int:
        c = 0
        for x in block:
            c = c * r.universe_size + x
        return c
    return Relation(r.universe_size ** l, r.arity // l, frozenset(
        tuple(code(t[i:i + l]) for i in range(0, r.arity, l)) for t in r.tuples))


@pytest.mark.parametrize("r, l", [
    (Relation(3, 0, frozenset({()})), 1), (Relation(3, 0, frozenset({()})), 2),
    (Relation(3, 0, frozenset()), 2), (Relation(2, 4, frozenset()), 2),
    (Relation(2, 4, frozenset()), 4), (Relation(2, 2, frozenset({(1, 0)})), 2),
], ids=["arity 0", "arity 0 squared", "arity 0 empty", "empty", "empty to 1-ary", "one tuple"])
def test_pp_power_and_flatten_on_edge_cases(r, l) -> None:
    power = pp_power(r, l)
    assert power == _pp_power_brute(r, l)
    assert pp_flatten(power, l, r.universe_size) == r


def test_pp_power_arity_not_divisible() -> None:
    with pytest.raises(ArityNotDivisible):
        pp_power(Relation.full(2, 3), 2)


def test_gadget_json_roundtrip() -> None:
    g = walk_gadget(4)
    assert gadget_from_json(gadget_to_json(g)) == g
    text = gadget_to_json(Gadget(2, ((0, 0, 1),), (0, 1), 1))
    assert text == ('{"distinguished": [0, 1], "edges": [[0, 0, 1]], '
                    '"slots": 1, "vertices": 2}')


GOOD_GADGET = {"vertices": 3, "edges": [[0, 0, 1], [1, 1, 2]],
               "distinguished": [0, 2, 0], "slots": 2}


@pytest.mark.parametrize("change", [
    {"vertices": None}, {"edges": None}, {"distinguished": None}, {"slots": None},
    {"vertices": 3.0}, {"vertices": True}, {"vertices": "3"}, {"vertices": -1},
    {"slots": 2.5}, {"slots": False},
    {"edges": {}}, {"edges": [[0, 1]]}, {"edges": [[0, 0, 1, 2]]}, {"edges": [5]},
    {"edges": [[0, 0, 1.0]]}, {"edges": [[True, 0, 1]]},
    {"edges": [[2, 0, 1]]}, {"edges": [[-1, 0, 1]]}, {"edges": [[0, 0, 3]]},
    {"edges": [[0, -1, 0]]},
    {"distinguished": 0}, {"distinguished": [0, 1.0]}, {"distinguished": [3]},
    {"distinguished": [-1]},
])
def test_gadget_from_json_rejects_malformed(change) -> None:
    data = {k: v for k, v in {**GOOD_GADGET, **change}.items() if v is not None}
    with pytest.raises(GadgetFormatError, match="^bad gadget JSON: "):
        gadget_from_json(json.dumps(data))


def test_gadget_from_json_names_the_edge_shape() -> None:
    for edge in ([0, 1], [0, 0, 1, 2]):
        with pytest.raises(GadgetFormatError, match="a list of 3 ints$"):
            gadget_from_json(json.dumps({**GOOD_GADGET, "edges": [edge]}))


@pytest.mark.parametrize("text", [
    "not json", "[]", "3", pytest.param('[' * 100000 + ']' * 100000, id="deep-nesting")])
def test_gadget_from_json_rejects_non_objects(text) -> None:
    with pytest.raises(GadgetFormatError, match="^bad gadget JSON: "):
        gadget_from_json(text)


def test_gadget_from_json_accepts_the_documented_format() -> None:
    assert gadget_from_json(json.dumps(GOOD_GADGET)) == \
        Gadget(3, ((0, 0, 1), (1, 1, 2)), (0, 2, 0), 2)


def test_gadget_validation() -> None:
    with pytest.raises(ValueError):
        Gadget(2, ((1, 0, 1),), (0,), 1)
    with pytest.raises(ValueError):
        Gadget(2, ((0, 0, 2),), (0,), 1)
    with pytest.raises(ValueError):
        Gadget(2, (), (2,), 1)


def test_relation_graph_conversions() -> None:
    g = cycle(4)
    assert relation_to_graph(graph_to_relation(g)).edges == g.edges
    with pytest.raises(ValueError):
        relation_to_graph(Relation.full(2, 3))
