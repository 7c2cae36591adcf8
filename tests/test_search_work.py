"""Deterministic work bounds for the benchmark's search queries.

Each query runs under an expansion budget a little above what the search
needs today, so a pruning regression fails here as BudgetExceeded even on a
host too noisy for wall-clock timings to show it.
"""

from itertools import product

import pytest

from loopcond import clique, clique_F, clique_R, cycle, evaluate, find_hom
from loopcond.constructions import clique_r_gadget, clique_s_gadget


@pytest.mark.parametrize("n, budget", [(4, 5_000), (5, 20_000)])
def test_s_gadget_over_clique_within_budget(n, budget) -> None:
    # the S gadget of verify_clique_claims(n) over K_n and F relates every
    # two distinct pairs; in each copy of R, n - 2 witnesses differ pairwise
    # and from x, y, v and w, so counting cuts off the assignments that
    # leave them too few values
    k = clique(n)
    s = evaluate(clique_s_gadget(n), [k, clique_F(k, n)], budget=budget)
    assert s.tuples == {t for t in product(range(n), repeat=4) if t[:2] != t[2:]}


def test_r_gadget_over_six_clique_within_budget() -> None:
    # R of verify_clique_claims(5) evaluated over K6
    k6 = clique(6)
    assert evaluate(clique_r_gadget(5), [k6], budget=6_000) == clique_R(k6, 5)


@pytest.mark.parametrize("k", [9, 11, 13, 15, 17])
def test_cycle_reduction_hom_within_one_expansion_per_vertex(k) -> None:
    # the cycle reductions the benchmark runs, k = 9..17
    assert find_hom(cycle(k * k), cycle(k + 2), budget=k * k) is not None
