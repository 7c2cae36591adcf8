import hashlib
import random
from itertools import product

import pytest

from helpers import (all_homomorphisms, cycle_hom_exists_brute, embedding_exists_brute,
                     hom_exists_brute, isomorphic, network_by_pairs, odd_girth_brute,
                     weakly_reachable_brute)
from loopcond import (BudgetExceeded, DiGraph, GraphFormatError, NotSymmetric, NotWeaklyConnected,
                      SIGGERS_IDENTITY, algebraic_length, clique, condition_graph,
                      cycle, directed_cycle, find_embedding, find_hom,
                      graph_from_json, graph_to_json, has_loop, is_bipartite,
                      is_smooth, is_symmetric, is_weakly_connected, odd_girth,
                      parse_condition, path, petersen, symmetric_part, to_dot)
from loopcond import graph as gr
from loopcond.graph import _network, _two_colouring

SMOOTH_ORIENTED = condition_graph(parse_condition("s(a,r,e,a)=s(r,a,r,e)"))


def _random_graph(rng: random.Random, n: int, p: float) -> DiGraph:
    edges = {(a, b) for a in range(n) for b in range(n) if rng.random() < p}
    return DiGraph(n, frozenset(edges))


def test_has_loop() -> None:
    assert not has_loop(clique(3))
    assert has_loop(DiGraph(1, frozenset({(0, 0)})))
    assert has_loop(condition_graph(parse_condition("t(x,y,z)=t(x,z,y)")))


def test_symmetric_part() -> None:
    assert symmetric_part(clique(3)) == clique(3)
    assert symmetric_part(directed_cycle(3)).edges == frozenset()
    g = DiGraph(3, frozenset({(0, 1), (1, 0), (1, 2)}))
    assert symmetric_part(g).edges == {(0, 1), (1, 0)}


def test_bipartite_and_odd_girth_examples() -> None:
    assert is_bipartite(cycle(6))
    assert odd_girth(cycle(6)) is None
    assert not is_bipartite(cycle(5))
    assert odd_girth(cycle(5)) == 5
    assert not is_bipartite(clique(4))
    assert odd_girth(clique(4)) == 3
    loop = DiGraph(2, frozenset({(0, 0), (0, 1), (1, 0)}))
    assert not is_bipartite(loop)
    assert odd_girth(loop) == 1


def _union(*graphs: DiGraph) -> DiGraph:
    """The disjoint union, each graph's vertices numbered after the last's."""
    edges: set[tuple[int, int]] = set()
    n = 0
    for g in graphs:
        edges |= {(a + n, b + n) for a, b in g.edges}
        n += g.n
    return DiGraph(n, frozenset(edges))


def _grid(rows: int, cols: int, *, wrap: bool = False) -> DiGraph:
    """The symmetric rows x cols grid; with wrap, the torus C_rows x C_cols."""
    pairs = [(i * cols + j, (i + di) % rows * cols + (j + dj) % cols)
             for i in range(rows) for j in range(cols) for di, dj in ((1, 0), (0, 1))
             if wrap or (i + di < rows and j + dj < cols)]
    return DiGraph(rows * cols, frozenset(e for a, b in pairs for e in ((a, b), (b, a))))


def test_odd_girth_matches_brute_force() -> None:
    rng = random.Random(11)
    graphs = [cycle(k) for k in range(1, 9)] + [clique(k) for k in range(1, 6)]
    graphs.append(petersen())
    for _ in range(30):
        g = _random_graph(rng, rng.randint(1, 6), 0.4)
        graphs.append(symmetric_part(g))
    # rows that stop growing: no vertex, isolated vertices, a loop in one
    # component only, bipartite and odd components side by side
    looped_edge = DiGraph(2, frozenset({(0, 0), (0, 1), (1, 0)}))
    graphs += [DiGraph(0, frozenset()), DiGraph(4, frozenset()),
               _union(path(4), looped_edge, DiGraph(1, frozenset())),
               _union(path(5), cycle(3)), _union(cycle(4), cycle(7)), _grid(3, 4)]
    for g in graphs:
        assert odd_girth(g) == odd_girth_brute(g)
        assert is_bipartite(g) == (odd_girth(g) is None)
    # known values, where the brute force is too slow
    known = [(cycle(k), k if k % 2 else None) for k in range(9, 62)]
    known += [(_union(cycle(31), path(40)), 31), (_union(path(40), cycle(31)), 31),
              (_grid(15, 15), None), (_grid(6, 8, wrap=True), None),
              (_grid(9, 11, wrap=True), 9), (_union(_grid(10, 10), clique(3)), 3)]
    for g, girth in known:
        assert odd_girth(g) == girth
        assert is_bipartite(g) == (girth is None)


def test_odd_girth_walk_stops_once_the_odd_rows_settle(monkeypatch) -> None:
    # the walk ends two steps after its odd rows stop growing: P_200's odd
    # rows settle at 199 steps, 100 disjoint edges' at 1, and the odd girth
    # of C_31 beside P_40 is read at step 31.  A walk bounded by n alone
    # would take 200 steps on the edges
    steps = 0
    walks = gr._walks

    def counted(g: DiGraph):
        nonlocal steps
        for rows in walks(g):
            steps += 1
            yield rows
    monkeypatch.setattr(gr, "_walks", counted)
    for g, girth, most in [(path(200), None, 202), (_union(*[path(2)] * 100), None, 3),
                           (_union(cycle(31), path(40)), 31, 31)]:
        steps = 0
        assert odd_girth(g) == girth
        assert steps <= most


def test_predicates_require_symmetry() -> None:
    with pytest.raises(NotSymmetric):
        is_bipartite(directed_cycle(3))
    with pytest.raises(NotSymmetric):
        odd_girth(SMOOTH_ORIENTED)


def test_find_hom_examples() -> None:
    assert find_hom(cycle(5), clique(3)) is not None
    assert find_hom(cycle(7), cycle(5)) is not None
    assert find_hom(clique(3), cycle(5)) is None
    assert not hom_exists_brute(clique(3), cycle(5))
    g = petersen()
    identity = find_hom(g, g)
    assert identity is not None and identity.is_valid()


def test_find_embedding_examples() -> None:
    assert find_embedding(clique(3), clique(4)) is not None
    assert find_embedding(clique(4), clique(3)) is None
    emb = find_embedding(cycle(5), petersen())
    assert emb is not None and emb.is_injective()
    assert embedding_exists_brute(cycle(5), petersen())


def test_hom_returns_lexicographically_least_witness() -> None:
    hom = find_hom(cycle(5), clique(3))
    assert hom is not None
    assert hom.mapping == min(all_homomorphisms(cycle(5), clique(3)))


def test_embedding_returns_lexicographically_least_witness() -> None:
    emb = find_embedding(cycle(5), petersen())
    assert emb is not None
    assert emb.mapping == min(m for m in all_homomorphisms(cycle(5), petersen())
                              if len(set(m)) == 5)


def test_hom_search_complete_on_small_instances() -> None:
    # every witness is the least one, and the empty graph maps everywhere
    # while nothing nonempty maps to it
    rng = random.Random(5)
    small = [DiGraph(0, frozenset())]
    small += [cycle(k) for k in (1, 2, 3, 4, 5)] + [clique(k) for k in (1, 2, 3)]
    small += [directed_cycle(k) for k in (2, 3)] + [path(3)]
    for _ in range(15):
        small.append(_random_graph(rng, rng.randint(1, 5), 0.35))
    for g in small:
        for h in small:
            homs = all_homomorphisms(g, h)
            found = find_hom(g, h)
            assert (found is not None) == hom_exists_brute(g, h)
            assert (found.mapping if found else None) == min(homs, default=None)
            if found is not None:
                assert found.is_valid()
            emb = find_embedding(g, h)
            assert (emb is not None) == embedding_exists_brute(g, h)
            assert (emb.mapping if emb else None) == \
                min((m for m in homs if len(set(m)) == g.n), default=None)
            if emb is not None:
                assert emb.is_valid() and emb.is_injective()


def test_larger_graphs_are_refuted_before_any_expansion() -> None:
    # pigeonhole: n + 1 pairwise adjacent vertices cannot take n values, and
    # an embedding cannot take more vertices than its target has
    for n in range(2, 16):
        assert find_hom(clique(n + 1), clique(n), budget=0) is None
        assert find_embedding(path(n + 1), clique(n), budget=0) is None
        assert find_embedding(DiGraph(n, frozenset()), cycle(n - 1), budget=0) is None
    assert find_embedding(clique(1), DiGraph(0, frozenset()), budget=0) is None


def test_cocktail_party_graph_is_refuted_by_counting() -> None:
    # K_{2x20} (20 non-adjacent pairs) has 2^20 maximal cliques, and one of
    # its groups of 20 pairwise different vertices cannot take 19 values;
    # deriving the groups stays polynomial
    k = 20
    party = DiGraph(2 * k, frozenset((a, b) for a in range(2 * k) for b in range(2 * k)
                                     if a // 2 != b // 2))
    assert find_hom(party, clique(k - 1), budget=0) is None
    hom = find_hom(party, clique(k))
    assert hom is not None and hom.is_valid()


def test_cycle_reduction_search_is_backtrack_free() -> None:
    # with arc consistency maintained, one expansion per vertex suffices
    for k in (3, 9, 21):
        assert find_hom(cycle(k * k), cycle(k + 2), budget=k * k) is not None


def _random_target(rng: random.Random, size: int, kind: str) -> DiGraph:
    pairs = [(a, b) for a in range(size) for b in range(a + 1, size) if rng.random() < 0.5]
    if kind == "symmetric":
        edges = {e for a, b in pairs for e in ((a, b), (b, a))}
    elif kind == "oriented":
        edges = {(a, b) if rng.random() < 0.5 else (b, a) for a, b in pairs}
    else:
        edges = {(a, b) for a in range(size) for b in range(size) if rng.random() < 0.4}
    return DiGraph(size, frozenset(edges))


def test_network_matches_the_per_pair_reference() -> None:
    # one table per edge signature gives the domains, groups and arcs that
    # one table per ordered pair of variables gave, tables equal by value
    # and neighbours in the same order, and equal tables share one cache
    rng = random.Random(28)
    seen = set()
    for case in range(400):
        size, n, slots = case % 5, rng.randint(0, 6), rng.randint(1, 3)
        kinds = [rng.choice(("symmetric", "oriented", "looped")) for _ in range(slots)]
        targets = [_random_target(rng, size, kind) for kind in kinds]
        edges = [(rng.randrange(slots), rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, 3 * n))]
        for t, a, b in list(edges):
            if rng.random() < 0.2:
                edges.append((t, a, b) if rng.random() < 0.5 else (t, b, a))
        domains, (arcs, groups) = _network(n, edges, targets)
        assert (domains, [[(table, nbrs) for table, _, nbrs in row] for row in arcs],
                groups) == network_by_pairs(n, edges, targets)
        caches: dict = {}
        for table, cache, _ in (arc for row in arcs for arc in row):
            assert caches.setdefault(table, cache) is cache
        assert len({id(cache) for cache in caches.values()}) == len(caches)
        seen |= set(kinds) | {name for name, present in (
            ("size 0", size == 0), ("n = 0", n == 0), ("groups", bool(groups)),
            ("loop edge", any(a == b for _, a, b in edges)),
            ("repeated edge", len(set(edges)) < len(edges)),
            ("reversed edge", any((t, b, a) in edges for t, a, b in edges if a != b)))
            if present}
    assert seen == {"size 0", "n = 0", "loop edge", "repeated edge", "reversed edge", "groups",
                    "symmetric", "oriented", "looped"}


def test_network_builds_one_table_per_edge_signature(monkeypatch) -> None:
    # every ordered pair of C_2401's variables carries slot 0's out- and
    # in-rows, so its arcs hold one table; in the embedding of P_40 into
    # K_40, the path's pairs carry both slots and the others slot 1 alone,
    # so two signatures
    built = []

    def recorded(*args):
        built.append(_network(*args))
        return built[-1]

    monkeypatch.setattr(gr, "_network", recorded)
    assert find_hom(cycle(2401), cycle(51)) is not None
    assert find_embedding(path(40), clique(40)) is not None
    (_, (hom_arcs, _)), (_, (embedding_arcs, _)) = built
    assert len({id(table) for row in hom_arcs for table, _, _ in row}) == 1
    assert len({id(table) for row in embedding_arcs for table, _, _ in row}) <= 2


def test_hom_composition_on_test_family() -> None:
    family = [cycle(9), cycle(7), cycle(5), clique(3), clique(4), clique(5)]
    for a in family:
        for b in family:
            for c in family:
                if find_hom(a, b) is not None and find_hom(b, c) is not None:
                    assert find_hom(a, c) is not None


def test_bipartite_iff_hom_to_edge() -> None:
    graphs = [cycle(k) for k in range(2, 9)] + [clique(k) for k in (2, 3, 4)]
    graphs += [path(k) for k in (2, 3, 4)] + [petersen()]
    for g in graphs:
        assert is_bipartite(g) == (find_hom(g, cycle(2)) is not None)


def test_odd_girth_witnessed_by_cycle_hom() -> None:
    for g in (cycle(5), cycle(7), clique(4), petersen()):
        k = odd_girth(g)
        assert k is not None
        assert find_hom(cycle(k), g) is not None


def test_budget_exceeded_is_distinct_from_absence() -> None:
    with pytest.raises(BudgetExceeded):
        find_hom(clique(3), clique(5), budget=1)
    assert find_hom(clique(3), cycle(5), budget=10**6) is None


def test_is_smooth() -> None:
    assert is_smooth(directed_cycle(3))
    assert not is_smooth(DiGraph(2, frozenset({(0, 1)})))
    assert is_smooth(SMOOTH_ORIENTED)


def test_algebraic_length_directed_cycles() -> None:
    for k in range(1, 7):
        assert algebraic_length(directed_cycle(k)) == k


def test_algebraic_length_examples() -> None:
    assert algebraic_length(SMOOTH_ORIENTED) == 1
    assert algebraic_length(cycle(2)) == 2
    assert algebraic_length(DiGraph(2, frozenset({(0, 1)}))) == 0


def test_algebraic_length_requires_connected_with_edges() -> None:
    with pytest.raises(NotWeaklyConnected):
        algebraic_length(DiGraph(3, frozenset()))
    with pytest.raises(NotWeaklyConnected):
        algebraic_length(DiGraph(4, frozenset({(0, 1), (2, 3)})))


def test_algebraic_length_contract_against_hom_search() -> None:
    graphs = [directed_cycle(k) for k in (1, 2, 3, 4, 6)]
    graphs += [cycle(k) for k in (2, 3, 5, 6)]
    graphs += [SMOOTH_ORIENTED, DiGraph(2, frozenset({(0, 1)})),
               DiGraph(3, frozenset({(0, 1), (1, 2), (0, 2)}))]
    rng = random.Random(23)
    while len(graphs) < 25:
        g = _random_graph(rng, rng.randint(2, 5), 0.4)
        if g.edges and is_weakly_connected(g) and not has_loop(g):
            graphs.append(g)
    for g in graphs:
        d = algebraic_length(g)
        for k in range(2, 9):
            expected = (d == 0) or (d % k == 0)
            assert (find_hom(g, directed_cycle(k)) is not None) == expected


def _graphs_for_brute_force():
    """Every digraph on at most 3 vertices, loops included, then seeded
    random ones on 4-7 vertices.  Half of the random ones only keep edges
    (a, b) with level[b] - level[a] = 1 mod j for random levels, so their
    algebraic lengths are multiples of j, not almost always 1."""
    for n in range(4):
        pairs = list(product(range(n), repeat=2))
        for bits in range(1 << len(pairs)):
            yield DiGraph(n, frozenset(e for i, e in enumerate(pairs) if bits >> i & 1))
    rng = random.Random(1010)
    for n, count in ((4, 60), (5, 40), (6, 20), (7, 6)):
        for i in range(count):
            g = _random_graph(rng, n, rng.choice((1.2, 1.6, 2.5)) / n)
            if i % 2:
                j = rng.randint(2, n)
                level = [rng.randrange(j) for _ in range(n)]
                g = DiGraph(n, frozenset((a, b) for a, b in g.edges
                                         if (level[b] - level[a] - 1) % j == 0))
            yield g


def test_connectivity_and_algebraic_length_match_brute_force() -> None:
    lengths = set()
    for g in _graphs_for_brute_force():
        connected = g.n == 0 or weakly_reachable_brute(g, 0) == set(range(g.n))
        assert is_weakly_connected(g) == connected
        if not g.edges or not connected:
            with pytest.raises(NotWeaklyConnected):
                algebraic_length(g)
            continue
        d = algebraic_length(g)
        lengths.add(d)
        for k in range(1, g.n + 2):
            exists = cycle_hom_exists_brute(g, k)
            assert (d % k == 0) == exists
            if g.n <= 5:  # the rotation-reduced oracle agrees with the plain one
                assert exists == hom_exists_brute(g, directed_cycle(k))
    assert {0, 1, 2, 3} <= lengths


def test_two_colouring_matches_brute_force() -> None:
    bipartite = 0
    for g in _graphs_for_brute_force():
        s = DiGraph(g.n, g.edges | {(b, a) for a, b in g.edges})
        colour = _two_colouring(s)
        assert (colour is None) == (odd_girth_brute(s) is not None)
        if colour is None:
            continue
        bipartite += 1
        assert all(colour[a] != colour[b] for a, b in s.edges)
        assert all(colour[v] == 0 for v in range(s.n)
                   if min(weakly_reachable_brute(s, v)) == v)
    assert bipartite > 100


def test_families() -> None:
    assert isomorphic(clique(3), condition_graph(parse_condition(SIGGERS_IDENTITY)))
    assert cycle(2).edges == condition_graph(parse_condition("t(x,y)=t(y,x)")).edges
    assert directed_cycle(1).edges == {(0, 0)}
    assert cycle(1).edges == {(0, 0)}
    assert path(3).edges == {(0, 1), (1, 0), (1, 2), (2, 1)}
    assert is_bipartite(path(3))
    p = petersen()
    assert p.n == 10 and len(p.edges) == 30 and is_symmetric(p)
    assert odd_girth(p) == 5


def test_dot_export() -> None:
    assert to_dot(cycle(2)) == 'graph {\n  "0" -- "1";\n}\n'
    assert to_dot(directed_cycle(3)) == \
        'digraph {\n  "0" -> "1";\n  "1" -> "2";\n  "2" -> "0";\n}\n'
    triangle = condition_graph(parse_condition(SIGGERS_IDENTITY))
    dot = to_dot(triangle)
    assert dot.startswith("graph {") and '"x" -- "y";' in dot
    lonely = DiGraph(2, frozenset({(1, 1)}))
    assert '"0";' in to_dot(lonely)


def test_dot_export_is_frozen() -> None:
    # seeded symmetric and directed graphs, named and unnamed, with isolated
    # vertices and loops; frozen before both kinds were written by one path
    rng = random.Random(2026)
    digest = hashlib.sha256()
    kinds = set()
    for i in range(400):
        n = rng.randint(1, 7)
        pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 9))}
        edges = pairs | {(b, a) for a, b in pairs} if i % 2 else pairs
        g = DiGraph.from_edges(n, edges, [f"v{j}" for j in range(n)] if i % 3 else None)
        touched = {v for e in g.edges for v in e}
        kinds.add((is_symmetric(g), has_loop(g), len(touched) < n))
        digest.update(to_dot(g).encode())
    assert {(s, True, True) for s in (False, True)} <= kinds
    assert digest.hexdigest() == \
        "d550758288c1362c0e3a18c40c1ed486bb8fa3d6ce3ada7aac0b959f9dae4238"


def test_json_roundtrip() -> None:
    for g in (cycle(5), directed_cycle(3), petersen()):
        assert graph_from_json(graph_to_json(g)).edges == g.edges
    assert graph_to_json(cycle(2)) == '{"edges": [[0, 1], [1, 0]], "n": 2}'


@pytest.mark.parametrize("text", [
    'not json', '[]', '{"edges": []}', '{"n": 2}',
    '{"n": 1.5, "edges": []}', '{"n": true, "edges": []}', '{"n": "2", "edges": []}',
    '{"n": -1, "edges": []}', '{"n": 2, "edges": {}}', '{"n": 2, "edges": [[0]]}',
    '{"n": 2, "edges": [[0, 1, 1]]}', '{"n": 2, "edges": [[0, 1.0]]}',
    '{"n": 2, "edges": [[0, false]]}', '{"n": 2, "edges": [[0, 2]]}',
    '{"n": 2, "edges": [[-1, 0]]}', '{"n": 2, "edges": [7]}',
    pytest.param('[' * 100000 + ']' * 100000, id="deep-nesting"),
])
def test_graph_from_json_rejects_malformed(text) -> None:
    with pytest.raises(GraphFormatError, match="^bad graph JSON: "):
        graph_from_json(text)


def test_graph_from_json_names_the_edge_shape() -> None:
    for edge in ("[0]", "[0, 1, 1]"):
        with pytest.raises(GraphFormatError, match="a list of 2 ints$"):
            graph_from_json(f'{{"n": 2, "edges": [{edge}]}}')


def test_graph_validation() -> None:
    with pytest.raises(ValueError):
        DiGraph(2, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        DiGraph(2, frozenset(), labels=("a",))
    with pytest.raises(ValueError):
        DiGraph(2, frozenset(), labels=("a", "a"))
