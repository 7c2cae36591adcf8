"""The table kernel's packed (bytes) and generic paths, and decisions on both
sides of the packed range size ** arity <= 256."""

import json
import random
from functools import reduce
from itertools import product
from operator import add

import pytest

from loopcond import (COMMUTATIVITY_IDENTITY, SIGGERS_IDENTITY, FiniteAlgebra,
                      Operation, ResourceExceeded, Satisfied, affine_satisfies, clique,
                      condition_from_graph, cycle, decision_to_json_dict,
                      mod_affine_algebra, parse_condition, satisfies_condition,
                      verify_witness)
from loopcond import algebra
from loopcond.algebra import Column, _apply_columns

# (size, arity): below 256 entries, exactly 256, above 256, and 0-ary
KERNEL_CASES = [(1, 2), (2, 1), (2, 3), (3, 3), (4, 2), (5, 3), (6, 3),
                (16, 2), (4, 4), (2, 8), (256, 1),
                (17, 2), (7, 3), (300, 1),
                (3, 0), (17, 0)]


@pytest.mark.parametrize("size, arity", KERNEL_CASES,
                         ids=[f"{s}^{k}" for s, k in KERNEL_CASES])
def test_kernel_paths_agree_with_row_by_row_apply(size, arity) -> None:
    rng = random.Random(size * 100 + arity)
    op = Operation("f", arity, tuple(rng.randrange(size) for _ in range(size ** arity)))
    a = FiniteAlgebra(size, (op,))
    kinds = (bytes, tuple) if size <= 256 else (tuple,)
    for length in (0, 1, 2, 7, 300):
        cols = [tuple(rng.randrange(size) for _ in range(length)) for _ in range(arity)]
        expected = tuple(a.apply(op, row) for row in zip(*cols)) if arity else \
            (op.table[0],) * length
        for kind in kinds:
            got = _apply_columns(op, size, [kind(col) for col in cols], length, kind)
            assert type(got) is kind
            assert tuple(got) == expected


# (size, arity) for joined columns: 2, 9 and 216 table entries take the packed
# path on bytes, 289 and 343 the generic one; tuples always take the generic path
JOIN_CASES = [(2, 1), (3, 2), (6, 3), (17, 2), (7, 3), (300, 1)]


@pytest.mark.parametrize("size, arity", JOIN_CASES, ids=[f"{s}^{k}" for s, k in JOIN_CASES])
def test_kernel_on_joined_columns_matches_separate_calls(size, arity) -> None:
    # the pair closure composes m tables in one call: the m running tables
    # joined, each other argument's table repeated m times
    rng = random.Random(size * 10 + arity)
    op = Operation("f", arity, tuple(rng.randrange(size) for _ in range(size ** arity)))
    kinds = (bytes, tuple) if size <= 256 else (tuple,)
    for kind, length, m in product(kinds, (0, 1, 9), range(1, 6)):
        def column() -> Column:
            return kind(rng.randrange(size) for _ in range(length))
        fixed, running = [column() for _ in range(arity - 1)], [column() for _ in range(m)]
        p = rng.randrange(arity)
        separate = [_apply_columns(op, size, fixed[:p] + [x] + fixed[p:], length, kind)
                    for x in running]
        joined = _apply_columns(op, size, [col * m for col in fixed[:p]]
                                + [reduce(add, running, kind())]
                                + [col * m for col in fixed[p:]], m * length, kind)
        assert type(joined) is kind
        assert joined == reduce(add, separate, kind())


def test_lookup_cache_leaves_operation_equality_alone() -> None:
    op = Operation("f", 2, (0, 1, 1, 0))
    fresh = Operation("f", 2, (0, 1, 1, 0))
    before = (hash(op), repr(op))
    assert op.lookup == b"\0\1\1\0" + bytes(252)
    assert op == fresh and (hash(op), repr(op)) == before == (hash(fresh), repr(fresh))


# Z_5 and Z_6 take the packed path (125 and 216 entries), Z_7 the generic
# path on bytes columns (343 entries); C5 over Z_6 has 6^5 rows, and over Z_7
# 7^5, past the default entry cap
AFFINE_CONDITIONS = {"commutativity": parse_condition(COMMUTATIVITY_IDENTITY),
                     "triangle": parse_condition(SIGGERS_IDENTITY),
                     "C5": condition_from_graph(cycle(5))}


@pytest.mark.parametrize("m", [5, 6, 7])
def test_affine_decisions_across_the_packed_range(m) -> None:
    a = mod_affine_algebra(m)
    for name, c in AFFINE_CONDITIONS.items():
        decision = satisfies_condition(a, c, max_entries=m ** len(c.variables))
        if m == 6 and name == "C5":
            # 6^10 candidates are too many for the composite-modulus search;
            # a linear system is solvable mod 6 iff it is mod 2 and mod 3
            expected = all(affine_satisfies(p, c) is not None for p in (2, 3))
        else:
            expected = affine_satisfies(m, c) is not None
        assert isinstance(decision, Satisfied) == expected, (m, name)
        if expected:
            assert verify_witness(a, c, decision.term)


def _algebras() -> dict[str, FiniteAlgebra]:
    """Seeded 17-element binary algebras (289 table entries, bytes columns on
    the generic path) and 300-element unary ones (tuple columns)."""
    rng = random.Random(17)
    image = rng.sample(range(17), 3)
    ranked = Operation("f", 2, tuple(rng.choice(image) for _ in range(17 ** 2)))
    full = Operation("f", 2, tuple(rng.randrange(17) for _ in range(17 ** 2)))
    perm = list(range(17))
    rng.shuffle(perm)
    first = Operation("f", 2, tuple(perm[x] for x in range(17) for _ in range(17)))
    rng = random.Random(300)
    g = Operation("g", 1, tuple(rng.randrange(300) for _ in range(300)))
    perm = list(range(300))
    rng.shuffle(perm)
    p = Operation("p", 1, tuple(perm))
    h = Operation("h", 1, tuple(x // 2 for x in range(300)))
    return {"ranked": FiniteAlgebra(17, (ranked,)), "full": FiniteAlgebra(17, (full,)),
            "first": FiniteAlgebra(17, (first,)), "g": FiniteAlgebra(300, (g,)),
            "h": FiniteAlgebra(300, (h,)), "gp": FiniteAlgebra(300, (g, p))}


CONDITIONS = {"comm": parse_condition(COMMUTATIVITY_IDENTITY),
              "cyc3": parse_condition("t(x,y,z)=t(y,z,x)"),
              "xyyx": parse_condition("t(x,y,y)=t(y,x,x)"),
              "K3": condition_from_graph(clique(3))}

# decision_to_json_dict at max_elements=3000, frozen before the packed kernel
FROZEN = [
    ("ranked", "comm", '{"decision": "Satisfied", "witness": "f(f(f(x1,x1),f(x1,x1)),f(x2,x2))"}'),
    ("ranked", "cyc3", '{"decision": "ResourceExceeded", "elements_generated": 3001}'),
    ("ranked", "K3", '{"decision": "Satisfied", "witness": "f(f(f(x1,x1),f(x1,x1)),f(x3,x3))"}'),
    ("ranked", "xyyx", '{"decision": "Satisfied", "witness": "f(f(f(x1,x1),f(x1,x1)),f(x2,x2))"}'),
    ("full", "comm", '{"decision": "ResourceExceeded", "elements_generated": 3001}'),
    ("first", "comm", '{"decision": "NotSatisfied"}'),
    ("first", "K3", '{"decision": "NotSatisfied"}'),
    ("g", "comm", '{"decision": "NotSatisfied"}'),
    ("g", "xyyx", '{"decision": "NotSatisfied"}'),
    ("h", "comm", '{"decision": "Satisfied", "witness": "h(h(h(h(h(h(h(h(h(x1)))))))))"}'),
    ("gp", "comm", '{"decision": "ResourceExceeded", "elements_generated": 3001}'),
]


def test_decisions_outside_the_packed_range_are_frozen() -> None:
    algebras = _algebras()
    for name, cname, expected in FROZEN:
        a, c = algebras[name], CONDITIONS[cname]
        decision = satisfies_condition(a, c, max_entries=a.size ** len(c.variables),
                                       max_elements=3000)
        assert json.dumps(decision_to_json_dict(decision), sort_keys=True) == expected, \
            (name, cname)


def test_constant_term_route_is_bounded_by_table_entries(monkeypatch) -> None:
    # gp has no constant unary term, and its unary closure is wide: at 3000
    # elements the route closes at most 3000 // 300 + 1 unary terms of 300
    # entries each, after G's closure hit the cap
    closures = []
    close_tuples = algebra._close_tuples

    def recorded(*args, **kwargs):
        closures.append(close_tuples(*args, **kwargs))
        return closures[-1]

    monkeypatch.setattr(algebra, "_close_tuples", recorded)
    gp = _algebras()["gp"]
    decision = satisfies_condition(gp, CONDITIONS["comm"], max_entries=300 ** 2,
                                   max_elements=3000)
    assert decision == ResourceExceeded(3001)
    (route,) = closures
    assert route.found is None and not route.complete
    assert len(route.items) <= 3000 // 300 + 1
