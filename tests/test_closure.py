"""The closure engine's enumeration order, its laziness and its agreement
with the eager reference closure, and the projection tables."""

import gc
import hashlib
import random
from itertools import product

import pytest

from helpers import close_pairs_eager, pool_algebra
from loopcond import (DiGraph, FiniteAlgebra, Operation, Satisfied, algebra,
                      generate_subpower, mod_affine_algebra, parse_condition,
                      satisfies_condition, term_to_string)
from loopcond.algebra import (_close_pairs, _column_kind, _projections,
                              _term_from_provenance, _variable_columns)
from loopcond.identity import condition_from_graph


def _subpower_corpus():
    """50 seeded random algebras (sizes 2-4, up to three operations of arity
    0-3), each with 1-3 generators in A^k for k = 1-4 and a cap of 40 or 10^6."""
    rng = random.Random(505)
    for _ in range(50):
        size = rng.randint(2, 4)
        ops = []
        for i in range(rng.randint(1, 3)):
            arity = rng.randint(0 if i else 1, 3 if size < 4 else 2)
            ops.append(Operation(f"f{i}", arity,
                                 tuple(rng.randrange(size) for _ in range(size ** arity))))
        k = rng.randint(1, 4)
        gens = [tuple(rng.randrange(size) for _ in range(k))
                for _ in range(rng.randint(1, 3))]
        yield FiniteAlgebra(size, tuple(ops)), k, gens, rng.choice([40, 10**6])


def test_closure_enumeration_order_is_frozen() -> None:
    # provenance names the first argument combination that produced each
    # element, and its insertion order is the order elements were found, so
    # any change to the enumeration order changes this hash (frozen before
    # the closure's argument tuples and memo were reworked)
    digest = hashlib.sha256()
    capped = 0
    for a, k, gens, cap in _subpower_corpus():
        res = generate_subpower(a, k, gens, cap=cap)
        capped += not res.complete
        digest.update(repr((sorted(res.relation.tuples), list(res.provenance.items()),
                            res.complete, res.elements_generated)).encode())
    assert capped == 3
    assert digest.hexdigest() == \
        "c87ccbf1dd0535bdca76c6366f644277a71d823272f78a3ecbe5db1cbea2d112"


def test_unary_closure_copies_each_item_once() -> None:
    # one generator under a permutation with cycles 2, 3, 5, ..., 23: its
    # orbit passes the cap, so the closure takes 2,001 steps, each making
    # one combination.  A linear closure copies each new item about once; a
    # step that slices the items found so far copies t of them at step t,
    # 4,002,000 references in all
    copied = 0

    class Counted(list):
        def __getitem__(self, key):
            nonlocal copied
            if type(key) is slice:
                copied += len(range(*key.indices(len(self))))
            return super().__getitem__(key)

    class Closure(algebra._Closure):
        def __init__(self, seed_provenance):
            super().__init__(seed_provenance)
            self.items = Counted()

    cycles = (2, 3, 5, 7, 11, 13, 17, 19, 23)
    starts = [sum(cycles[:i]) for i in range(len(cycles))]
    perm = tuple(s + (x + 1) % c for s, c in zip(starts, cycles) for x in range(c))
    a = FiniteAlgebra(len(perm), (Operation("p", 1, perm),))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_Closure", Closure)
        res = generate_subpower(a, len(cycles), [starts], cap=2000)
    assert (res.complete, res.elements_generated) == (False, 2001)
    assert copied <= 2 * 2001


def test_subpower_block_is_one_kernel_call(monkeypatch) -> None:
    # the orbit of (0, ..., 40) under a permutation with cycles 2, 3, 5, 7,
    # 11 and 13 has 30,030 tuples, each step of the unary closure one block
    # of one item; composing each of the 41 coordinates of a block in a
    # kernel call of its own took 1,231,230 calls
    cycles = (2, 3, 5, 7, 11, 13)
    starts = [sum(cycles[:i]) for i in range(len(cycles))]
    perm = tuple(s + (x + 1) % c for s, c in zip(starts, cycles) for x in range(c))
    a = FiniteAlgebra(len(perm), (Operation("p", 1, perm),))
    calls = 0
    kernel = algebra._apply_columns

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)
    monkeypatch.setattr(algebra, "_apply_columns", counted)
    res = generate_subpower(a, len(perm), [tuple(range(len(perm)))])
    assert (res.complete, res.elements_generated) == (True, 30030)
    assert calls == 30030


def test_projections_match_product_reference() -> None:
    for size in range(1, 5):
        for n in range(1, 6):
            rows = list(product(range(size), repeat=n))
            assert _projections(size, n) == [tuple(row[j] for row in rows)
                                             for j in range(n)]


def test_projections_are_built_in_linear_time() -> None:
    # 64,000 rows: building each column by repeated tuple concatenation took
    # quadratic time; the bytes columns of the decision path match too
    rows = list(product(range(40), repeat=3))
    expected = [tuple(row[j] for row in rows) for j in range(3)]
    assert _projections(40, 3) == expected
    assert _projections(40, 3, bytes) == [bytes(col) for col in expected]


def _cycle_condition(n: int):
    return condition_from_graph(DiGraph(n, frozenset(
        e for i in range(n) for e in ((i, (i + 1) % n), ((i + 1) % n, i)))))


def _pair_cases():
    """60 seeded random algebras (sizes 2-4, one or two operations of arity
    0-3) with random conditions on two or three variables."""
    rng = random.Random(1717)
    for _ in range(60):
        size = rng.randint(2, 4)
        ops = []
        for i in range(rng.randint(1, 2)):
            arity = rng.randint(0 if i else 1, 3)
            ops.append(Operation(f"f{i}", arity,
                                 tuple(rng.randrange(size) for _ in range(size ** arity))))
        names = "xyz"[:rng.randint(2, 3)]
        width = rng.randint(1, 4)
        lhs, rhs = ([rng.choice(names) for _ in range(width)] for _ in range(2))
        yield FiniteAlgebra(size, tuple(ops)), \
            parse_condition(f"t({','.join(lhs)})=t({','.join(rhs)})")


def _generic_pair_cases():
    """Algebras past the packed kernel's 256 table entries (17^2 = 289 and
    7^3 = 343), so their bytes columns take the generic path: a random
    table, one with a 2-element image, a sparse one, and the first
    projection with 0 and 1 swapped, each with two two-variable conditions."""
    rng = random.Random(1820)
    swap = {0: 1, 1: 0}
    for size, arity in ((17, 2), (7, 3)):
        n, run = size ** arity, size ** (arity - 1)
        image = rng.sample(range(size), 2)
        for table in ([rng.randrange(size) for _ in range(n)],
                      [rng.choice(image) for _ in range(n)],
                      [rng.randrange(size) if rng.random() < 0.3 else 0 for _ in range(n)],
                      [swap.get(i // run, i // run) for i in range(n)]):
            a = FiniteAlgebra(size, (Operation("f", arity, tuple(table)),))
            for text in ("t(x,y)=t(y,x)", "t(x,x)=t(y,y)"):
                yield a, parse_condition(text)


def _ints(pair) -> tuple:
    return tuple(map(tuple, pair))


def _compare_with_eager(a, c, caps) -> str:
    """Check _close_pairs against close_pairs_eager at each cap: the found
    pair and its replayed term, `complete` and the capped items.  Returns
    how the last closure ended: "found", "capped" or "complete"."""
    columns = _variable_columns(a, c)
    for cap in caps:
        lazy, eager = _close_pairs(a, c, columns, cap), close_pairs_eager(a, c, cap)
        assert lazy.complete == eager.complete
        assert (lazy.found is None) == (eager.found is None)
        if eager.found is not None:
            assert _ints(lazy.found) == eager.found
            assert term_to_string(_term_from_provenance(lazy.found, lazy)) == \
                term_to_string(_term_from_provenance(eager.found, eager.provenance))
        else:
            assert [_ints(x) for x in lazy.items] == eager.items
            assert len(lazy.items) == max(cap, 0) + 1 or eager.complete
    return "found" if eager.found is not None else "complete" if eager.complete else "capped"


def test_block_closure_matches_the_eager_closure_at_every_cap() -> None:
    # the cap runs through every value up to the stop point, so it is also
    # passed inside the block that holds the equal pair, before and after
    # it; a negative cap ends the closure at its first item, as 0 does
    found = capped = 0
    for a, c in _pair_cases():
        stop_point = len(close_pairs_eager(a, c, 40).items)
        for cap in range(-1, stop_point + 1):
            ended = _compare_with_eager(a, c, [cap])
            found += ended == "found"
            capped += ended == "capped"
    assert found > 100 and capped > 100


def test_block_closure_matches_the_eager_closure_on_the_generic_kernel_path() -> None:
    # a block's missing tables are composed in one kernel call on joined
    # columns; here that call takes the generic path.  The eager closure
    # composes 289-row tables row by row, so the caps are the ends and the
    # stop point's neighbourhood, not every value
    ended = []
    for a, c in _generic_pair_cases():
        assert _column_kind(a.size) is bytes and len(a.operations[0].table) > 256
        stop_point = len(close_pairs_eager(a, c, 40).items)
        caps = sorted({-1, 0, 1, stop_point // 2, stop_point - 2, stop_point - 1, stop_point})
        ended.append(_compare_with_eager(a, c, caps))
    assert {kind: ended.count(kind) for kind in set(ended)} == \
        {"found": 5, "capped": 7, "complete": 4}


def test_found_closure_deduplicates_only_what_the_worklist_reached() -> None:
    # pool algebra 2 of size 4 with C5: the closure that finds the witness
    # generates 14,290 pairs before the equal one but deduplicates only the
    # 120 that the worklist took as its newest item
    closures = []

    def recorded(*args):
        closures.append(_close_pairs(*args))
        return closures[-1]

    a, c = pool_algebra(4, 2), _cycle_condition(5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_close_pairs", recorded)
        assert isinstance(satisfies_condition(a, c, max_elements=20000), Satisfied)
    res = closures[-1]
    assert res.found is res.items[-1]
    assert (len(res.items), res.origin[res.found]) == (121, 14290)
    # the found pair is made from the newest item the worklist reached
    assert any(arg is res.items[-2] for arg in res[res.found][1])


def test_deciding_composes_each_blocks_new_tables_in_one_kernel_call() -> None:
    # pool algebra 2 of size 4 with C5, as above: a block's sides compose
    # the tables their memo rows lack in one kernel call each, 404 calls in
    # all (witness checks included), against 2,074 with one call per
    # argument tuple
    calls = 0
    kernel = algebra._apply_columns

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_apply_columns", counted)
        assert isinstance(satisfies_condition(pool_algebra(4, 2), _cycle_condition(5),
                                              max_elements=20000), Satisfied)
    assert calls <= 450


def test_a_decision_leaves_no_garbage_cycles() -> None:
    # a closure whose state sits in a reference cycle stays alive until a
    # full collection, so its tables pile up between collections
    queries = [(mod_affine_algebra(m), parse_condition(text))
               for m in (2, 3, 4)
               for text in ("t(x,y,y,z,z,x)=t(y,x,z,y,x,z)", "t(x,y)=t(y,x)")]
    queries += [(pool_algebra(3, seed), _cycle_condition(n))
                for seed in (0, 2) for n in (5, 7)]
    queries.append((pool_algebra(4, 1), _cycle_condition(5)))
    for a, c in queries:
        satisfies_condition(a, c, max_elements=20000)
    gc.collect()
    gc.disable()
    try:
        for a, c in queries:
            satisfies_condition(a, c, max_elements=20000)
        assert gc.collect() == 0
    finally:
        gc.enable()
