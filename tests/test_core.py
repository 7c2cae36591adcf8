"""graph.core against brute force: the retraction, the core property, and
the least retract."""

import hashlib
import random
import time
from itertools import product

import pytest

from helpers import hom_exists_brute, induced_brute, isomorphic, smallest_retract_brute
from loopcond import (DiGraph, clique, condition_graph, core, cycle, directed_cycle,
                      parse_condition, path)
from loopcond import graph as gr


def _symmetric_graphs(n: int, loops: bool):
    """Every symmetric graph on n vertices, with loops or without."""
    pairs = [(a, b) for a in range(n) for b in range(a + (not loops), n)]
    for chosen in product((False, True), repeat=len(pairs)):
        edges = {e for (a, b), keep in zip(pairs, chosen) if keep for e in ((a, b), (b, a))}
        yield DiGraph(n, frozenset(edges))


def _random_digraph(rng: random.Random, n: int) -> DiGraph:
    p = rng.choice((0.2, 0.35, 0.5))
    return DiGraph(n, frozenset((a, b) for a in range(n) for b in range(n)
                                if rng.random() < p and (a != b or rng.random() < 0.2)))


def _clique_minus(n: int, *pairs: tuple[int, int]) -> DiGraph:
    """K_n without the edges joining each of the given pairs."""
    missing = [set(pair) for pair in pairs]
    return DiGraph(n, frozenset((a, b) for a in range(n) for b in range(n)
                                if a != b and {a, b} not in missing))


def _check_core(g: DiGraph) -> None:
    r = core(g)
    c = r.target
    kept = [int(name) for name in c.labels]
    # C is the subgraph of g induced on ascending vertices, named as in g
    assert kept == sorted(set(kept)) and c.labels == tuple(g.label(v) for v in kept)
    assert c.edges == induced_brute(g, kept).edges
    # a retraction: a homomorphism g -> C fixing every vertex of C
    assert r.source == g and r.is_valid()
    assert all(r.mapping[v] == i for i, v in enumerate(kept))
    # C is a core: it maps to none of its proper induced subgraphs
    for v in range(c.n):
        assert not hom_exists_brute(c, induced_brute(c, [u for u in range(c.n) if u != v]))
    assert isomorphic(c, smallest_retract_brute(g))


def test_core_of_every_small_symmetric_graph() -> None:
    graphs = [g for n in range(5) for g in _symmetric_graphs(n, loops=True)]
    graphs += _symmetric_graphs(5, loops=False)
    for g in graphs:
        _check_core(g)


def test_core_of_random_directed_graphs() -> None:
    rng = random.Random(19)
    shrunk = 0
    for _ in range(400):
        g = _random_digraph(rng, rng.randint(1, 5))
        _check_core(g)
        shrunk += core(g).target.n < g.n
    assert shrunk >= 100


@pytest.mark.parametrize("g", [path(4), cycle(4), cycle(6),
                               DiGraph.from_edges(4, [(0, 1), (1, 0), (0, 2), (2, 0),
                                                      (0, 3), (3, 0)])],
                         ids=["P4", "C4", "C6", "K1,3"])
def test_bipartite_graphs_retract_onto_one_edge(g) -> None:
    c = core(g).target
    assert c.n == 2 and c.edges == clique(2).edges


@pytest.mark.parametrize("g", [cycle(5), cycle(7), clique(3), clique(4), directed_cycle(4)],
                         ids=["C5", "C7", "K3", "K4", "directed C4"])
def test_cores_are_their_own_core(g) -> None:
    r = core(g)
    assert r.target.edges == g.edges and r.mapping == tuple(range(g.n))


def test_pendant_vertex_retracts_onto_the_cycle() -> None:
    g = DiGraph.from_edges(6, cycle(5).edges | {(0, 5), (5, 0)})
    r = core(g)
    assert r.target.n == 5 and isomorphic(r.target, cycle(5))
    assert r.mapping[:5] == tuple(range(5)) and r.mapping[5] in (1, 4)


def test_core_keeps_the_condition_variable_names() -> None:
    g = condition_graph(parse_condition("t(x,y,y,z,z,w)=t(y,x,z,y,w,z)"))  # path x-y-z-w
    c = core(g).target
    assert c.labels == ("x", "y") and c.edges == {(0, 1), (1, 0)}


@pytest.mark.parametrize("g", [cycle(7), clique(3), clique(4), path(6),
                               DiGraph(3, frozenset({(0, 1), (1, 1)})),
                               _clique_minus(11, (9, 10)),
                               _clique_minus(12, (9, 10), (10, 11)),
                               _clique_minus(12, (8, 9), (9, 10), (10, 11))],
                         ids=["C7", "K3", "K4", "P6", "loop", "K11-e", "K12-P3", "K12-P4"])
def test_shortcuts_answer_without_a_search(monkeypatch, g) -> None:
    def no_search(*args, **kwargs):
        raise AssertionError("searched")
    monkeypatch.setattr(gr, "find_hom", no_search)
    assert core(g).is_valid()


def test_core_targets_are_frozen() -> None:
    # the kept vertices of every graph of the families above and of seeded
    # digraphs on up to 8 vertices, frozen before twins were folded first
    graphs = [g for n in range(5) for g in _symmetric_graphs(n, loops=True)]
    graphs += _symmetric_graphs(5, loops=False)
    rng = random.Random(23)
    graphs += [_random_digraph(rng, rng.randint(1, 8)) for _ in range(600)]
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(repr(core(g).target.labels).encode())
    assert digest.hexdigest() == \
        "0fdede2ee67cb018e9e251fb144aa9eac4ed8ed6894a041d0d8d6a4f9736a978"


def test_twins_fold_before_the_search() -> None:
    # K_11 minus the edge {9, 10}: 9 and 10 have the same neighbours, so 9
    # folds onto 10 and the rest is a clique, which no search can shrink
    t0 = time.perf_counter()
    r = core(_clique_minus(11, (9, 10)))
    assert time.perf_counter() - t0 < 2.0
    assert r.target.labels == tuple(str(v) for v in (*range(9), 10))
    assert r.target.edges == clique(10).edges and r.is_valid()
    assert r.mapping == (*range(9), 9, 9)


def test_dominated_vertices_fold_before_the_search() -> None:
    # K_12 minus the path 9-10-11: no two vertices are twins, but 10's
    # neighbours 0-8 are among 11's, so 10 folds onto 11 and the rest is a
    # clique, which no search can shrink
    t0 = time.perf_counter()
    r = core(_clique_minus(12, (9, 10), (10, 11)))
    assert time.perf_counter() - t0 < 2.0
    assert r.target.labels == tuple(str(v) for v in (*range(10), 11))
    assert r.target.edges == clique(11).edges and r.is_valid()
    assert r.mapping == (*range(10), 10, 10)
