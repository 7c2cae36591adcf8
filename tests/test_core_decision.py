"""Decisions that go through the core of the condition graph: refutations
carried by the retraction, witnesses carried along the inclusion, and the
soundness checks on both."""

import random
import time

from helpers import decide_by_subpower, random_algebra, witness_holds_brute
from loopcond import (BudgetExceeded, DiGraph, FiniteAlgebra, Homomorphism, LoopCondition,
                      NotSatisfied, Operation, ResourceExceeded, Satisfied, algebra_to_json,
                      clique, condition_from_graph, condition_graph, core, cycle,
                      decision_to_json_dict, mod_affine_algebra, path, satisfies_condition,
                      term_to_string)
from loopcond import algebra as alg
from loopcond.cli import main


def _non_core_condition(rng: random.Random) -> LoopCondition:
    """A loopless condition on 3 or 4 variables whose graph is not a core: a
    bipartite graph, a triangle with a pendant edge (some edges possibly
    one way only), or a directed graph."""
    while True:
        kind = rng.choice(("bipartite", "pendant", "directed"))
        n = 4 if kind == "pendant" else rng.randint(3, 4)
        if kind == "bipartite":
            left = rng.randint(1, n - 1)
            edges = {e for a in range(left) for b in range(left, n) if rng.random() < 0.6
                     for e in ((a, b), (b, a))}
        elif kind == "pendant":
            edges = {(a, b) for a, b in cycle(3).edges | {(2, 3), (3, 2)}
                     if a < b or rng.random() < 0.7}
        else:
            edges = {(a, b) for a in range(n) for b in range(n)
                     if a != b and rng.random() < 0.4}
        names = [f"v{i}" for i in range(n)]
        rng.shuffle(names)
        g = DiGraph.from_edges(n, edges, names)
        if {v for e in edges for v in e} == set(range(n)) and core(g).target.n < n:
            return condition_from_graph(g, "t")


def test_core_decisions_match_row_free_oracle() -> None:
    rng = random.Random(47)
    compared = {"Satisfied": 0, "NotSatisfied": 0}
    for _ in range(200):
        a = random_algebra(rng, max_size=3)
        c = _non_core_condition(rng)
        if a.size ** len(c.variables) > 27:
            continue
        cap = {1: 400, 2: 150, 3: 30}[max(op.arity for op in a.operations)]
        decision = satisfies_condition(a, c, max_elements=cap)
        if isinstance(decision, Satisfied):
            assert witness_holds_brute(a, c, decision.term)
        expected = decide_by_subpower(a, c, cap)
        if expected is None or isinstance(decision, ResourceExceeded):
            continue
        assert type(decision).__name__ == expected
        compared[expected] += 1
    assert compared["Satisfied"] >= 80 and compared["NotSatisfied"] >= 15


def test_even_cycle_over_z2_is_refuted_through_its_core() -> None:
    # the full closure on C6 over Z2 takes minutes; its core is one edge,
    # and Z2 has no commutative term
    start = time.perf_counter()
    decision = satisfies_condition(mod_affine_algebra(2), condition_from_graph(cycle(6)))
    assert isinstance(decision, NotSatisfied)
    assert time.perf_counter() - start < 10


def _clique_minus_an_edge(n: int) -> DiGraph:
    return DiGraph(n, clique(n).edges - {(0, 1), (1, 0)})


def test_clique_minus_an_edge_reaches_its_core_by_pigeonhole() -> None:
    # vertex 0 folds onto vertex 1, and the other eleven are pairwise
    # adjacent, so they are the core without a search
    start = time.perf_counter()
    retraction = core(_clique_minus_an_edge(12))
    assert time.perf_counter() - start < 10
    assert retraction.mapping == (0,) + tuple(range(11))
    assert retraction.target.edges == clique(11).edges


def test_clique_minus_an_edge_over_z2_is_decided_through_its_core() -> None:
    start = time.perf_counter()
    decision = satisfies_condition(mod_affine_algebra(2),
                                   condition_from_graph(_clique_minus_an_edge(12)))
    assert isinstance(decision, Satisfied)
    assert time.perf_counter() - start < 10


def test_even_cycle_over_z2_exits_1_from_the_cli(tmp_path, capsys) -> None:
    z2 = tmp_path / "z2.json"
    z2.write_text(algebra_to_json(mod_affine_algebra(2)))
    c6 = condition_from_graph(cycle(6))
    identity = f"t({','.join(c6.lhs)})=t({','.join(c6.rhs)})"
    assert main(["satisfies", "--algebra", str(z2), identity]) == 1
    assert capsys.readouterr().out == "NotSatisfied\n"


def test_core_witness_is_carried_where_the_graph_hits_the_cap() -> None:
    z3, c6 = mod_affine_algebra(3), condition_from_graph(cycle(6))
    assert isinstance(alg._refine(z3, c6, 5), ResourceExceeded)
    decision = satisfies_condition(z3, c6, max_elements=5)
    assert isinstance(decision, Satisfied)
    assert witness_holds_brute(z3, c6, decision.term)


def _with_pendant_edge(g: DiGraph) -> DiGraph:
    """g with one more vertex, joined to g's last vertex by a symmetric edge."""
    return DiGraph(g.n + 1, g.edges | {(g.n - 1, g.n), (g.n, g.n - 1)})


def _binary_algebra(table: list[int]) -> FiniteAlgebra:
    return FiniteAlgebra(3, (Operation("f", 2, tuple(table)),))


#: two 3-element binary tables over which K3 and C5 are satisfied
PENDANT_TABLES = ([0, 2, 0, 1, 0, 1, 1, 1, 2], [0, 2, 2, 0, 1, 2, 1, 2, 2])


def _counted_refine(monkeypatch) -> list[LoopCondition]:
    """Count the closure decisions: each condition alg._refine is called on."""
    calls, refine = [], alg._refine

    def counted(a, c, max_elements):
        calls.append(c)
        return refine(a, c, max_elements)
    monkeypatch.setattr(alg, "_refine", counted)
    return calls


def test_a_satisfied_core_decides_with_one_closure(monkeypatch) -> None:
    # the core's witness is carried to G, whose own closure does not run;
    # the pendant witnesses are those G's own closure finds
    cases = [(mod_affine_algebra(3), path(3), "m(x2,x2,x1)")]
    for table, witness in zip(PENDANT_TABLES, ("f(f(x3,f(x1,x1)),f(x3,x1))",
                                               "f(x3,f(f(x3,x1),x3))")):
        cases += [(_binary_algebra(table), _with_pendant_edge(clique(3)), witness),
                  (_binary_algebra(table), _with_pendant_edge(cycle(5)), witness)]
    calls = _counted_refine(monkeypatch)
    for a, g, witness in cases:
        c = condition_from_graph(g)
        calls.clear()
        decision = satisfies_condition(a, c)
        assert calls == [condition_from_graph(core(condition_graph(c)).target)]
        assert isinstance(decision, Satisfied) and witness_holds_brute(a, c, decision.term)
        assert term_to_string(decision.term) == witness


def test_a_core_over_the_cap_lets_the_graph_decide(monkeypatch) -> None:
    refine = alg._refine
    calls = _counted_refine(monkeypatch)
    c = condition_from_graph(_with_pendant_edge(clique(3)))
    for table in PENDANT_TABLES:
        a = _binary_algebra(table)
        calls.clear()
        decision = satisfies_condition(a, c, max_elements=20)
        assert calls == [condition_from_graph(core(condition_graph(c)).target), c]
        assert decision == refine(a, c, 20) == ResourceExceeded(21)


def test_a_core_over_budget_decides_the_graph_as_it_is(monkeypatch) -> None:
    # P3 and P4 are not cores, so only the failed core step sends them to _refine
    calls = []

    def over_budget(g):
        calls.append(g)
        raise BudgetExceeded(1)
    monkeypatch.setattr(alg, "core", over_budget)
    for a, g in ((mod_affine_algebra(3), path(3)), (mod_affine_algebra(2), path(4))):
        c = condition_from_graph(g)
        assert decision_to_json_dict(satisfies_condition(a, c)) == \
            decision_to_json_dict(alg._refine(a, c, alg.DEFAULT_MAX_ELEMENTS))
    assert len(calls) == 2


def _c6_cli(tmp_path, monkeypatch, fake_core):
    z2 = tmp_path / "z2.json"
    z2.write_text(algebra_to_json(mod_affine_algebra(2)))
    monkeypatch.setattr(alg, "core", fake_core)
    c6 = condition_from_graph(cycle(6))
    return main(["satisfies", "--algebra", str(z2),
                 f"t({','.join(c6.lhs)})=t({','.join(c6.rhs)})"])


def test_a_retraction_that_is_no_homomorphism_exits_3(tmp_path, monkeypatch, capsys) -> None:
    real_core = alg.core

    def bogus_core(g):
        r = real_core(g)
        return Homomorphism(g, r.target, (0,) * g.n)  # sends every edge to a loop
    assert _c6_cli(tmp_path, monkeypatch, bogus_core) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert "Traceback" not in captured.err


def test_a_core_that_is_no_subgraph_exits_3(tmp_path, monkeypatch, capsys) -> None:
    # every graph maps to a looped vertex, but the loop is not in C6: the
    # loop's condition holds and C6's does not, which must not pass silently
    def loop_core(g):
        return Homomorphism(g, DiGraph(1, frozenset({(0, 0)}), g.labels[:1]), (0,) * g.n)
    assert _c6_cli(tmp_path, monkeypatch, loop_core) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: ")
    assert "Traceback" not in captured.err
