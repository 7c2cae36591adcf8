import hashlib
import json
import random
from itertools import product

import pytest

from helpers import walk_pairs_brute
from loopcond import (Check, DiGraph, NotSymmetric, Report, SizeCap, clique, clique_F,
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
    sink = DiGraph(4, frozenset({(0, 1), (1, 2), (2, 0), (1, 3)}))  # 3 has no out-edge
    named = DiGraph(3, frozenset({(0, 1), (1, 1), (1, 2), (2, 0)}), ("a", "b", "c"))
    graphs = [cycle(6), clique(3), DiGraph(4, frozenset({(0, 1), (1, 2), (2, 0)})),
              DiGraph(0, frozenset()), DiGraph(1, frozenset()),
              DiGraph(1, frozenset({(0, 0)})), sink, named]
    for _ in range(10):
        n = rng.randint(1, 5)
        edges = {(a, b) for a in range(n) for b in range(n) if rng.random() < 0.4}
        graphs.append(DiGraph(n, frozenset(edges)))
    for g in graphs:
        for k in range(1, 9):
            got = walk_relation(g, k)
            assert (got.n, got.labels) == (g.n, g.labels)
            assert got.edges == walk_pairs_brute(g, k)
            if g.n:  # a Relation needs a nonempty universe
                assert got.edges == evaluate(walk_gadget(k), [g]).tuples


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


#: SHA-256 of report_to_json(verify_cycle_reduction(k)) for every odd k the
#: size cap admits, computed with a per-vertex frontier-set walk relation,
#: independent of the bitmask rows
CYCLE_REPORT_DIGESTS = {
    3: "cbc268a82995a05088d2d5c70584690d50244e756329a042977e73faf1aff536",
    5: "803be1ec6557d73d762a73a0521069dc54039603d87a35e3c0dcca6163e83320",
    7: "52fc2e0da16ed4781cdcf1f5bf8abfa64e9def8570261efdf29b81cf1fdb51a6",
    9: "28c49735309611127eecbcdd0bce9fc072641b1521332a4d692325ebf380b905",
    11: "a8a4c4db0b6e79dde58088b208c8b3a7c50aa3b54c2120340205314ebe5969f0",
    13: "3b6ade0fc0c3df708f58a0d3344b33ff5ba7e538cf4f4871a14ec494b5fa198e",
    15: "a29d4eb07bdda2f6883bbe114d5a49221f9fec3423684d6391ee5cc0701310a4",
    17: "684930b425d4f46497d36895707a3a124b888e87fc9ea19e9702d3efa3bc5520",
    19: "2472e9accc493db2c735ea749943e7549200c81331239105de4618ec09c1aad4",
    21: "5def018ee05f7d3dca3c4a0a8cbfc32504b9fa98bc8c16f49318a0179919c9cd",
    23: "2c409ca8f9cb09bf26a9a6326cbd92e93b9611e8c6935f0bcafa666fee12f0d4",
    25: "75e12e3de942929b9955e0234fab108e90912f437f35e415ab1b37b5dd145dec",
    27: "6dbe70ac0846ae17e0cdccaf0eb31a99b118cf7810048b63811b5e53e26081be",
    29: "43326a923f18f1190a59e4f44f24a66f1d2d1936feda2c3d409fc13aaa7d9fc6",
    31: "ea6fe4dba2d1ec601ee1de9e8df8e27f9b8a944fd678188d8bd107e22f8a5e5e",
    33: "80a71ea497e09f3a712d56fba941ee99fe2320623be7bda38bf1b2fc6974fbda",
    35: "fdbfa6a1c7bbd25b5ec509fe35891d546cf9fa19e6e2d64fe5bc5dc5486d271b",
    37: "4e8b195602930a42496956afc5a6a6b4c34dc38dd3aa1a337ddda331d4bf5d1b",
    39: "4db31fd11fd0c5921da58b8e25b96c08dc8cb6ca3345c942977f39d88af6b34b",
    41: "6e7ccb8d086caa2fa8d01c895b2310d79883c0effe1f15af52ea8eb95f9ae9d0",
    43: "b547bf5641818675790875429cd35442ce541e5097ea5ec0f614b0c112d75935",
    45: "eed10d5ee3704c8b64d3cef125b45d37407c159568e0e273f440621a51401ca6",
    47: "dd3a2241677985558c098c00018eb0fc0cf4de25e3a806748912406537e421e4",
    49: "bf8dafb0945609c67027cda3a8cf64f0bc851c41152391fdcff38ea9f8768206",
}


def test_verify_cycle_reduction_up_to_the_size_cap() -> None:
    # C_{k^2} -> C_{k+2} searches 2401 vertices deep at k = 49, and the walk
    # relation of C_2401 has 2401 * 50 edges
    assert sorted(CYCLE_REPORT_DIGESTS) == list(range(3, 50, 2))
    for k, digest in CYCLE_REPORT_DIGESTS.items():
        report = verify_cycle_reduction(k)
        assert report.all_pass
        assert hashlib.sha256(report_to_json(report).encode()).hexdigest() == digest


def test_verify_cycle_reduction_builds_no_walk_graph(monkeypatch) -> None:
    # the report reads the walk's bitmask rows, never the walk relation
    def no_walk_relation(g, k):
        raise AssertionError("verify_cycle_reduction built a walk graph")

    monkeypatch.setattr(constructions, "walk_relation", no_walk_relation)
    for k in (3, 9, 17):
        text = report_to_json(verify_cycle_reduction(k))
        assert hashlib.sha256(text.encode()).hexdigest() == CYCLE_REPORT_DIGESTS[k]


def _walk_checks_on_edges(edges, k: int) -> list[Check]:
    """The two walk checks of verify_cycle_reduction computed from an edge
    set: the reference that the checks on bitmask rows must agree with."""
    selected = [i * k for i in range(k)]
    missing = []
    for i in range(k):
        a, b = selected[i], selected[(i + 1) % k]
        for e in ((a, b), (b, a)):
            if e not in edges:
                missing.append(list(e))
    loops = sorted(v for v, w in edges if v == w)
    return [Check("walk_power_contains_base_cycle", not missing,
                  selected if not missing else missing),
            Check("walk_power_loopless", not loops, None if not loops else loops)]


def test_walk_checks_on_rows_match_the_edge_set_checks() -> None:
    # walks of C_{k^2} shorter than k miss the cycle's edges, walks of even
    # length have loops, and random rows fail both checks
    rng = random.Random(5)
    failed = set()
    for k in (3, 5, 7):
        cases = [constructions._walk_rows(cycle(k * k), j) for j in range(1, k + 2)]
        cases += [[rng.getrandbits(k * k) for _ in range(k * k)] for _ in range(3)]
        for rows in cases:
            edges = {(v, w) for v, row in enumerate(rows) for w in range(k * k)
                     if row >> w & 1}
            checks = constructions._walk_checks(rows, k)
            assert checks == _walk_checks_on_edges(edges, k)
            failed.update(c.name for c in checks if not c.passed)
    assert failed == {"walk_power_contains_base_cycle", "walk_power_loopless"}
    short, even = (constructions._walk_checks(
        constructions._walk_rows(cycle(25), j), 5) for j in (3, 4))
    assert [c.passed for c in short] == [False, True]
    assert short[0].witness[0] == [0, 5]
    assert [c.passed for c in even] == [False, False]
    assert even[1].witness == list(range(25))


def test_verify_cycle_reduction_preconditions() -> None:
    with pytest.raises(ValueError):
        verify_cycle_reduction(2)
    with pytest.raises(ValueError):
        verify_cycle_reduction(1)
    with pytest.raises(SizeCap):
        verify_cycle_reduction(51)


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


def test_reports_hash_by_their_checks() -> None:
    # witnesses are lists and dicts, yet equal reports hash equal
    first, again = verify_cycle_reduction(3), verify_cycle_reduction(3)
    clique_report = verify_clique_claims(3)
    assert first == again and hash(first) == hash(again)
    assert hash(clique_report) == hash(verify_clique_claims(3))
    assert len({first, again, clique_report, verify_cycle_reduction(5)}) == 3
    assert hash(Check("c", False, [1])) == hash(Check("c", False, {"a": [2]}))
    assert Check("c", False, [1]) != Check("c", False, {"a": [2]})


def test_report_json_shape() -> None:
    report = verify_cycle_reduction(3)
    data = json.loads(report_to_json(report))
    assert set(data) == {"checks", "all_pass"}
    assert data["all_pass"] is True
    for check in data["checks"]:
        assert {"name", "pass"} <= set(check)
