"""Deterministic work bounds for the benchmark's search queries.

Each query runs under an expansion budget a little above what the search
needs today, so a pruning regression fails here as BudgetExceeded even on a
host too noisy for wall-clock timings to show it.
"""

import tracemalloc
from itertools import product

import pytest

from loopcond import clique, clique_F, clique_R, cycle, evaluate, find_hom
from loopcond.constructions import clique_r_gadget, clique_s_gadget, verify_cycle_reduction


# n = 6 is the cap of `loopcond verify --clique-n`
@pytest.mark.parametrize("n, budget", [(4, 350), (5, 450), (6, 550)])
def test_s_gadget_over_clique_within_budget(n, budget) -> None:
    # the S gadget of verify_clique_claims(n) over K_n and F relates every
    # two distinct pairs; in each copy of R, n - 2 witnesses differ pairwise
    # and from x, y, v and w, so counting cuts off the assignments that
    # leave them too few values.  Every two vertices of K_n are twins in
    # both inputs, so the search assigns only least-first tuples: (0, 0, 0,
    # 1), never (0, 0, 0, 2)
    k = clique(n)
    s = evaluate(clique_s_gadget(n), [k, clique_F(k, n)], budget=budget)
    assert s.tuples == {t for t in product(range(n), repeat=4) if t[:2] != t[2:]}


def _r_gadget_over_next_clique(n: int, budget: int) -> None:
    # R of verify_clique_claims(n) evaluated over K_{n+1}
    bigger = clique(n + 1)
    assert evaluate(clique_r_gadget(n), [bigger], budget=budget) == clique_R(bigger, n)


def test_r_gadget_over_six_clique_within_budget() -> None:
    _r_gadget_over_next_clique(5, 120)


def test_r_gadget_over_seven_clique_within_budget() -> None:
    _r_gadget_over_next_clique(6, 140)


@pytest.mark.parametrize("k", [9, 11, 13, 15, 17])
def test_cycle_reduction_hom_within_one_expansion_per_vertex(k) -> None:
    # the cycle reductions the benchmark runs, k = 9..17
    assert find_hom(cycle(k * k), cycle(k + 2), budget=k * k) is not None


def test_largest_cycle_reduction_hom_keeps_a_flat_undo_trail() -> None:
    # verify --cycle-k 49 searches C_2401 -> C_51 with no backtrack, so the
    # undo trail keeps every domain change.  Peak traced by tracemalloc on
    # CPython 3.11.7: 7,569 KB with a flat trail (a variable, then its old
    # domain), 12,871 KB with one tuple per change
    g, h = cycle(2401), cycle(51)
    tracemalloc.start()
    try:
        assert find_hom(g, h) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14_500 * 1024


def test_largest_benchmark_cycle_reduction_builds_one_table_per_signature() -> None:
    # verify_cycle_reduction(17), the benchmark's largest search, searches
    # C_289 -> C_19, whose pairs of variables all carry one edge signature.
    # Peak traced by tracemalloc on CPython 3.11.7, after a first call has
    # filled the interpreter's tuple free lists: 357 KB with one table per
    # distinct signature, 575 KB with one table per ordered pair
    verify_cycle_reduction(17)
    tracemalloc.start()
    try:
        assert verify_cycle_reduction(17).all_pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 450 * 1024
