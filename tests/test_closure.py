"""The closure engine's enumeration order and the projection tables."""

import hashlib
import random
from itertools import product

from loopcond import FiniteAlgebra, Operation, generate_subpower
from loopcond.algebra import _projections


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
