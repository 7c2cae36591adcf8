import hashlib
import json
import random
from itertools import product

import pytest

from helpers import walk_pairs_brute
from loopcond import (DiGraph, NotSymmetric, Report, SizeCap, clique, clique_F,
                      clique_Q, clique_R, cycle, evaluate, gadget_to_json,
                      has_loop, is_symmetric, report_to_json,
                      verify_clique_claims, verify_cycle_reduction, walk_gadget,
                      walk_relation)
from loopcond import constructions
from loopcond.constructions import clique_s_gadget


def test_walk_relation_length_one_is_the_graph() -> None:
    for g in (cycle(5), clique(4)):
        assert walk_relation(g, 1).edges == g.edges


def test_walk_relation_matches_brute_force_and_gadget() -> None:
    rng = random.Random(31)
    graphs = [cycle(6), clique(3), DiGraph(4, frozenset({(0, 1), (1, 2), (2, 0)}))]
    for _ in range(10):
        n = rng.randint(1, 5)
        edges = {(a, b) for a in range(n) for b in range(n) if rng.random() < 0.4}
        graphs.append(DiGraph(n, frozenset(edges)))
    for g in graphs:
        for k in (1, 2, 3, 4):
            got = walk_relation(g, k)
            assert got.edges == walk_pairs_brute(g, k)
            via_gadget = evaluate(walk_gadget(k), [g])
            assert got.edges == via_gadget.tuples


def test_walk_relation_composes_additively() -> None:
    rng = random.Random(77)
    graphs = [cycle(5), clique(3)]
    for _ in range(8):
        n = rng.randint(2, 5)
        edges = {(a, b) for a in range(n) for b in range(n) if rng.random() < 0.4}
        graphs.append(DiGraph(n, frozenset(edges)))
    for g in graphs:
        for a in (1, 2, 3, 4):
            for b in (1, 2, 3, 4):
                left = walk_relation(g, a).edges
                right = walk_relation(g, b).edges
                composed = {(x, z) for x, y in left for y2, z in right if y2 == y}
                assert walk_relation(g, a + b).edges == composed


def test_walk_relation_on_nine_cycle() -> None:
    h = walk_relation(cycle(9), 3)
    assert not has_loop(h)
    # v0, v3, v6 carry a symmetric triangle inside the 3-step walk relation
    for a, b in ((0, 3), (3, 6), (6, 0)):
        assert (a, b) in h.edges and (b, a) in h.edges


def test_clique_r_cases_on_triangle() -> None:
    r = clique_R(clique(3), 3)
    assert (0, 0, 0, 1) in r.tuples  # u=v, x=u, y!=x
    assert (0, 1, 2, 2) in r.tuples  # u!=v, x=y!=v
    empty = DiGraph(4, frozenset())
    assert clique_R(empty, 3).tuples == frozenset()


def test_clique_r_requires_symmetric_input() -> None:
    from loopcond import directed_cycle
    with pytest.raises(NotSymmetric):
        clique_R(directed_cycle(3), 3)
    with pytest.raises(ValueError):
        clique_R(clique(3), 2)


def test_clique_f_equals_clique_adjacency() -> None:
    for n in (3, 4):
        f = clique_F(clique(n), n)
        assert f.edges == clique(n).edges  # complete off-diagonal, no loops
        assert is_symmetric(f)


def test_clique_f_symmetric_on_assorted_symmetric_inputs() -> None:
    for g in (clique(4), cycle(6), clique(5)):
        assert is_symmetric(clique_F(g, 3))


def test_clique_constructions_monotone_in_g() -> None:
    base = cycle(5)
    grown = DiGraph(5, base.edges | {(0, 2), (2, 0)})
    for n in (3,):
        assert clique_R(base, n).tuples <= clique_R(grown, n).tuples
        assert clique_F(base, n).edges <= clique_F(grown, n).edges
        assert clique_Q(base, n).edges <= clique_Q(grown, n).edges


def test_clique_q_on_triangle_relates_all_distinct_pairs() -> None:
    q = clique_Q(clique(3), 3)
    assert q.n == 9
    for p, s in product(range(9), repeat=2):
        assert ((p, s) in q.edges) == (p != s)


def test_clique_s_gadget_frozen_layout() -> None:
    # the layout S had when it spelled out its own copies of R
    frozen = {3: "57a699c7d971348e", 4: "df68ed73a85e7872",
              5: "3984add99fd7043f", 6: "951146605ccfbe92"}
    for n, digest in frozen.items():
        text = gadget_to_json(clique_s_gadget(n))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_clique_q_on_empty_graph_is_empty() -> None:
    assert clique_Q(DiGraph(4, frozenset()), 3).edges == frozenset()


def test_verify_cycle_reduction_passes() -> None:
    for k in (3, 5):
        report = verify_cycle_reduction(k)
        assert isinstance(report, Report)
        assert report.all_pass
        names = [c.name for c in report.checks]
        assert names == ["square_cycle_maps_to_target_cycle",
                         "walk_power_contains_base_cycle",
                         "walk_power_loopless"]


def test_verify_cycle_reduction_up_to_the_size_cap() -> None:
    # C_{k^2} -> C_{k+2} searches 2401 vertices deep at k = 49
    for k in (21, 33, 49):
        assert verify_cycle_reduction(k).all_pass


def test_verify_cycle_reduction_preconditions() -> None:
    with pytest.raises(ValueError):
        verify_cycle_reduction(2)
    with pytest.raises(ValueError):
        verify_cycle_reduction(1)
    with pytest.raises(SizeCap):
        verify_cycle_reduction(7, size_cap=25)


def test_verify_clique_claims_passes() -> None:
    report = verify_clique_claims(3)
    assert report.all_pass
    assert len(report.checks) == 10


def test_verify_clique_claims_frozen_with_three_evaluations(monkeypatch) -> None:
    # R on K_n, R on K_{n+1} and S: one evaluation each
    frozen = {3: "ff9e45b56c5de27421779b4c17cdb60371661b9d7047049602be96a1a33616b1",
              4: "c2824e28495939e9641e59728cf22ac41b99cf16cc32514c8ed4e0d3a31391fe",
              5: "5c3c0f48e415ba61019773694905c31e79bbdfe4a5d87c45f4863b436f898b0d"}
    calls = []

    def counting_evaluate(*args, **kwargs):
        calls.append(args[0])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(constructions, "evaluate", counting_evaluate)
    for n, digest in frozen.items():
        calls.clear()
        text = report_to_json(verify_clique_claims(n, max_n=5))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert len(calls) == 3


def test_verify_clique_claims_passes_on_six() -> None:
    report = verify_clique_claims(6, max_n=6)
    assert report.all_pass
    assert len(report.checks) == 10


def test_clique_q_rejects_asymmetric_input() -> None:
    from loopcond import directed_cycle
    with pytest.raises(NotSymmetric, match="^clique constructions expect a "
                       "symmetric graph; apply symmetric_part first$"):
        clique_Q(directed_cycle(3), 3)


def test_verify_clique_claims_preconditions() -> None:
    with pytest.raises(ValueError):
        verify_clique_claims(2)
    with pytest.raises(SizeCap):
        verify_clique_claims(7)


def test_report_json_shape() -> None:
    report = verify_cycle_reduction(3)
    data = json.loads(report_to_json(report))
    assert set(data) == {"checks", "all_pass"}
    assert data["all_pass"] is True
    for check in data["checks"]:
        assert {"name", "pass"} <= set(check)
