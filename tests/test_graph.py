import random

import pytest

from helpers import (all_homomorphisms, embedding_exists_brute, hom_exists_brute,
                     isomorphic, odd_girth_brute)
from loopcond import (BudgetExceeded, DiGraph, NotSymmetric, NotWeaklyConnected,
                      SIGGERS_IDENTITY, algebraic_length, clique, condition_graph,
                      cycle, directed_cycle, find_embedding, find_hom,
                      graph_from_json, graph_to_json, has_loop, is_bipartite,
                      is_smooth, is_symmetric, is_weakly_connected, odd_girth,
                      parse_condition, path, petersen, symmetric_part, to_dot)

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


def test_odd_girth_matches_brute_force() -> None:
    rng = random.Random(11)
    graphs = [cycle(k) for k in range(1, 9)] + [clique(k) for k in range(1, 6)]
    graphs.append(petersen())
    for _ in range(30):
        g = _random_graph(rng, rng.randint(1, 6), 0.4)
        graphs.append(symmetric_part(g))
    for g in graphs:
        assert odd_girth(g) == odd_girth_brute(g)
        assert is_bipartite(g) == (odd_girth(g) is None)


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
    rng = random.Random(5)
    small = [cycle(k) for k in (1, 2, 3, 4, 5)] + [clique(k) for k in (1, 2, 3)]
    small += [directed_cycle(k) for k in (2, 3)] + [path(3)]
    for _ in range(15):
        small.append(_random_graph(rng, rng.randint(1, 5), 0.35))
    for g in small:
        for h in small:
            found = find_hom(g, h)
            assert (found is not None) == hom_exists_brute(g, h)
            if found is not None:
                assert found.is_valid()
            emb = find_embedding(g, h)
            assert (emb is not None) == embedding_exists_brute(g, h)
            if emb is not None:
                assert emb.is_valid() and emb.is_injective()


def test_cycle_reduction_search_is_backtrack_free() -> None:
    # with arc consistency maintained, one expansion per vertex suffices
    for k in (3, 9, 21):
        assert find_hom(cycle(k * k), cycle(k + 2), budget=k * k) is not None


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


def test_json_roundtrip() -> None:
    for g in (cycle(5), directed_cycle(3), petersen()):
        assert graph_from_json(graph_to_json(g)).edges == g.edges
    assert graph_to_json(cycle(2)) == '{"edges": [[0, 1], [1, 0]], "n": 2}'


def test_graph_validation() -> None:
    with pytest.raises(ValueError):
        DiGraph(2, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        DiGraph(2, frozenset(), labels=("a",))
    with pytest.raises(ValueError):
        DiGraph(2, frozenset(), labels=("a", "a"))
