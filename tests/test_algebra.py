import random
import time
from functools import cache
from itertools import product
from math import gcd

import pytest

from helpers import (affine_least_brute, pool_algebra, random_algebra, subpower_brute,
                     term_eq_brute, term_value_brute, witness_holds_brute)
from loopcond import (AlgebraFormatError, App, BadTerm, COMMUTATIVITY_IDENTITY,
                      ConditionKind, DiGraph, ExponentCap, FiniteAlgebra, LoopCondition,
                      NotSatisfied, Operation, Relation, ResourceExceeded, SIGGERS_IDENTITY, Satisfied,
                      UniverseMismatch, Var, affine_remark_audit,
                      affine_satisfies, algebra_from_json, algebra_to_json,
                      classify, clique, condition_from_graph, condition_graph, cycle,
                      directed_cycle, evaluate_term, find_hom, generate_subpower, has_loop,
                      is_compatible, mod_affine_algebra, parse_condition, path,
                      petersen, projection_algebra, satisfies_condition, term_to_string,
                      verify_witness)
from loopcond.algebra import (DEFAULT_MAX_ELEMENTS, _constant_term, _differing_rows, _refine,
                              _term_from_provenance, _variable_columns)

Z2 = mod_affine_algebra(2)  # x + y - z == x + y + z mod 2
Z3 = mod_affine_algebra(3)
PROJ = projection_algebra(2)
SIGGERS = parse_condition(SIGGERS_IDENTITY)
COMMUT = parse_condition(COMMUTATIVITY_IDENTITY)


def test_algebra_validation() -> None:
    with pytest.raises(ValueError):
        FiniteAlgebra(2, (Operation("f", 1, (0, 1, 0)),))
    with pytest.raises(ValueError):
        FiniteAlgebra(2, (Operation("f", 1, (0, 2)),))
    with pytest.raises(ValueError):
        FiniteAlgebra(2, (Operation("f", 1, (0, 1)), Operation("f", 0, (0,))))
    with pytest.raises(ValueError):
        FiniteAlgebra(0, ())
    with pytest.raises(ValueError):
        FiniteAlgebra(2, (Operation("f", 1, (0, 1.0)),))
    with pytest.raises(ValueError):
        FiniteAlgebra(2, (Operation("f", 1, (0, True)),))
    with pytest.raises(ValueError):  # rejected without computing 3 ** 10**8
        FiniteAlgebra(3, (Operation("f", 10**8, (0,)),))


def test_table_index_contract_last_argument_fastest() -> None:
    # index of (x1, x2) over size 3 is x1*3 + x2, bit-exact
    table = tuple(range(9))
    op = Operation("f", 2, tuple(v % 3 for v in table))
    a = FiniteAlgebra(3, (op,))
    for x1, x2 in product(range(3), repeat=2):
        assert a.apply(op, (x1, x2)) == (x1 * 3 + x2) % 3


def test_mod_affine_algebra_table() -> None:
    assert Z2.operations[0].name == "m"
    for x, y, z in product(range(3), repeat=3):
        assert Z3.apply(Z3.operations[0], (x, y, z)) == (x + y - z) % 3


def test_algebra_json_roundtrip() -> None:
    for a in (Z2, Z3, PROJ):
        assert algebra_from_json(algebra_to_json(a)) == a
    text = algebra_to_json(PROJ)
    assert '"size": 2' in text and '"table": [0, 0, 1, 1]' in text
    for bad in ('[1]', '{"size": 2}', text.replace('"size": 2', '"size": 2.0'),
                text.replace('"p1"', '1'), text.replace('[0, 0, 1, 1]', '[0, 0, 1, 2]'),
                '[' * 100000 + ']' * 100000):
        with pytest.raises(AlgebraFormatError):
            algebra_from_json(bad)


def test_is_compatible_examples() -> None:
    assert is_compatible(Z2, Relation.full(2, 2))
    assert is_compatible(Z2, Relation(2, 2, frozenset({(0, 0), (1, 1)})))
    assert is_compatible(Z2, Relation(2, 2, frozenset({(0, 1)})))
    # 0,0 + 1,1 - 0,1 = 1,0 escapes, so this one is not closed
    assert not is_compatible(Z2, Relation(2, 2, frozenset({(0, 0), (1, 1), (0, 1)})))
    with pytest.raises(UniverseMismatch):
        is_compatible(Z2, Relation.full(3, 1))


def test_is_compatible_matches_brute_closure() -> None:
    # r is compatible iff closing it adds nothing
    rng = random.Random(3030)
    outcomes = set()
    for _ in range(400):
        a = random_algebra(rng, 3)
        k = rng.randint(0, 3 if a.size == 2 else 2)  # the brute closure is slow on 27 tuples
        density = rng.random()
        r = Relation(a.size, k, frozenset(t for t in product(range(a.size), repeat=k)
                                          if rng.random() < density))
        expected = subpower_brute(a, k, r.tuples) == r.tuples
        assert is_compatible(a, r) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_generate_subpower_spec_examples() -> None:
    assert generate_subpower(Z2, 2, []).relation.tuples == frozenset()
    assert generate_subpower(Z2, 1, [(0,)]).relation.tuples == {(0,)}
    res = generate_subpower(Z2, 2, [(0, 1), (1, 0)])
    assert res.relation.tuples == {(0, 1), (1, 0)}
    assert res.complete


def _random_algebra(rng: random.Random, max_size: int = 3) -> FiniteAlgebra:
    size = rng.randint(2, max_size)
    ops = []
    for i in range(rng.randint(1, 2)):
        arity = rng.randint(1, 2)
        table = tuple(rng.randrange(size) for _ in range(size ** arity))
        ops.append(Operation(f"f{i}", arity, table))
    if rng.random() < 0.3:
        ops.append(Operation("c", 0, (rng.randrange(size),)))
    return FiniteAlgebra(size, tuple(ops))


def test_generate_subpower_matches_brute_fixpoint() -> None:
    rng = random.Random(2024)
    for _ in range(40):
        a = _random_algebra(rng)
        k = rng.randint(1, 2)
        gens = [tuple(rng.randrange(a.size) for _ in range(k))
                for _ in range(rng.randint(0, 3))]
        res = generate_subpower(a, k, gens)
        assert res.complete
        expected = subpower_brute(a, k, gens)
        assert res.relation.tuples == frozenset(expected)
        assert is_compatible(a, res.relation)
        assert frozenset(gens) <= res.relation.tuples
    # 3-tuples over up to 4 elements: kernel columns longer than the arity
    for _ in range(15):
        a = _random_algebra(rng, max_size=4)
        gens = [tuple(rng.randrange(a.size) for _ in range(3))
                for _ in range(rng.randint(0, 3))]
        res = generate_subpower(a, 3, gens)
        assert res.complete
        assert res.relation.tuples == frozenset(subpower_brute(a, 3, gens))
        assert is_compatible(a, res.relation)


def test_generate_subpower_provenance_replays() -> None:
    rng = random.Random(57)
    for _ in range(20):
        a = _random_algebra(rng)
        gens = [tuple(rng.randrange(a.size) for _ in range(2))
                for _ in range(rng.randint(1, 3))]
        res = generate_subpower(a, 2, gens)
        for t in res.relation.tuples:
            tag, payload = res.provenance[t]
            if tag == "gen":
                assert gens[payload] == t
            else:
                op = a.operation(tag)
                replayed = tuple(a.apply(op, tuple(p[j] for p in payload))
                                 for j in range(2))
                assert replayed == t


def test_generate_subpower_includes_constants() -> None:
    const = FiniteAlgebra(2, (Operation("c", 0, (1,)),))
    res = generate_subpower(const, 3, [])
    assert res.relation.tuples == {(1, 1, 1)}


def test_generate_subpower_cap_is_reported_in_band() -> None:
    res = generate_subpower(Z2, 2, [(0, 1), (1, 0), (0, 0)], cap=2)
    assert not res.complete
    assert res.elements_generated == 3


def test_projection_algebra_decides_by_loops() -> None:
    assert isinstance(satisfies_condition(PROJ, SIGGERS), NotSatisfied)
    looped = parse_condition("t(x,y,z)=t(x,z,y)")
    decision = satisfies_condition(PROJ, looped)
    assert isinstance(decision, Satisfied)
    assert isinstance(decision.term, Var)  # a projection witness


def test_z2_decisions_match_theory() -> None:
    dec = satisfies_condition(Z2, SIGGERS)
    assert isinstance(dec, Satisfied)
    assert verify_witness(Z2, SIGGERS, dec.term)
    assert isinstance(satisfies_condition(Z2, COMMUT), NotSatisfied)


def test_satisfied_witness_is_always_verified() -> None:
    rng = random.Random(9)
    algebras = [PROJ, Z2, Z3]
    conditions = [SIGGERS, COMMUT, parse_condition("t(x)=t(x)"),
                  parse_condition("t(x,y,z)=t(y,z,x)"),
                  parse_condition("s(a,r,e,a)=s(r,a,r,e)")]
    for _ in range(40):
        arity = rng.randint(1, 5)
        names = [f"v{i}" for i in range(rng.randint(1, 3))]
        conditions.append(LoopCondition(
            "t", tuple(rng.choice(names) for _ in range(arity)),
            tuple(rng.choice(names) for _ in range(arity))))
    for a in algebras:
        for c in conditions:
            decision = satisfies_condition(a, c)
            if isinstance(decision, Satisfied):
                assert verify_witness(a, c, decision.term)


def test_closure_decision_agrees_with_affine_oracle() -> None:
    rng = random.Random(101)
    conditions = [SIGGERS, COMMUT, parse_condition("t(x,y,z)=t(y,z,x)"),
                  parse_condition("t(x,y)=t(y,y)"),
                  parse_condition("s(a,r,e,a)=s(r,a,r,e)")]
    for _ in range(25):
        arity = rng.randint(1, 6)
        names = [f"v{i}" for i in range(rng.randint(1, 3))]
        conditions.append(LoopCondition(
            "t", tuple(rng.choice(names) for _ in range(arity)),
            tuple(rng.choice(names) for _ in range(arity))))
    for m, algebra in ((2, Z2), (3, Z3)):
        for c in conditions:
            decision = satisfies_condition(algebra, c)
            affine = affine_satisfies(m, c)
            assert not isinstance(decision, ResourceExceeded)
            assert isinstance(decision, Satisfied) == (affine is not None)


def test_satisfaction_is_monotone_along_graph_homs() -> None:
    conditions = [SIGGERS, COMMUT,
                  condition_from_graph(cycle(5)),
                  condition_from_graph(clique(4)),
                  parse_condition("t(x)=t(x)"),
                  parse_condition("t(x,y,z)=t(x,z,y)"),
                  parse_condition("s(a,r,e,a)=s(r,a,r,e)")]
    algebras = [PROJ, Z2, Z3]
    decided = {(ai, ci): satisfies_condition(a, c)
               for ai, a in enumerate(algebras)
               for ci, c in enumerate(conditions)}
    for ci, c in enumerate(conditions):
        for di, d in enumerate(conditions):
            if find_hom(condition_graph(c), condition_graph(d)) is None:
                continue
            for ai in range(len(algebras)):
                if isinstance(decided[(ai, ci)], Satisfied):
                    assert isinstance(decided[(ai, di)], Satisfied)


def test_exponent_cap() -> None:
    names = tuple(f"v{i}" for i in range(13))
    wide = LoopCondition("t", names, names)  # 2^13 table entries needed
    with pytest.raises(ExponentCap):
        satisfies_condition(Z2, wide)
    # a generous cap lets the same condition through (its loops decide it
    # immediately, so only the table-size gate is exercised)
    assert isinstance(satisfies_condition(Z2, wide, max_entries=8192), Satisfied)


def test_resource_exceeded_is_honest() -> None:
    decision = satisfies_condition(Z2, SIGGERS, max_elements=1)
    assert isinstance(decision, ResourceExceeded)
    assert decision.elements_generated == 2


def test_constant_term_route_matches_the_brute_unary_closure() -> None:
    # the route closes the unary terms from the identity map: it finds a
    # term exactly when some unary term is constant (22 of the 3-element
    # pool algebras, 11 of the 4-element ones), and each term it finds
    # takes one value on the whole universe
    found = 0
    for size, seeds in ((3, range(30)), (4, range(16))):
        for seed in seeds:
            a = pool_algebra(size, seed)
            term = _constant_term(a, DEFAULT_MAX_ELEMENTS)
            unary = subpower_brute(a, size, [tuple(range(size))])
            assert (term is not None) == any(len(set(u)) == 1 for u in unary), (size, seed)
            if term is not None:
                assert len({term_value_brute(a, term, (x,)) for x in range(size)}) == 1
                found += 1
    assert found == 33


@pytest.mark.parametrize("seed, graph, caps, expected", [
    # G's closure stops at 2000 elements, and f(...(x1)...) is constant
    (9, cycle(5), {"max_elements": 2000},
     "f(f(f(f(x1,x1),f(x1,x1)),x1),f(f(x1,x1),f(f(x1,x1),x1)))"),
    # 4^7 = 16,384 rows are past the default 4096 entries
    (0, cycle(7), {},
     "f(f(f(x1,f(x1,x1)),x1),f(f(f(x1,x1),f(x1,x1)),f(x1,x1)))"),
    # no unary term of pool algebra 3 is constant
    (3, cycle(7), {}, "free-algebra tables need 16384 entries, cap is 4096"),
], ids=["capped", "exponent", "no-constant"])
def test_capped_decisions_fall_back_on_a_constant_unary_term(seed, graph, caps,
                                                             expected) -> None:
    a, c = pool_algebra(4, seed), condition_from_graph(graph)
    if expected.startswith("free"):
        with pytest.raises(ExponentCap) as info:
            satisfies_condition(a, c, **caps)
        assert str(info.value) == expected
        return
    if "max_elements" in caps:
        assert isinstance(_refine(a, c, caps["max_elements"]), ResourceExceeded)
    decision = satisfies_condition(a, c, **caps)
    assert isinstance(decision, Satisfied)
    assert term_to_string(decision.term) == expected
    if len(c.variables) <= 5:
        assert witness_holds_brute(a, c, decision.term)
    assert len({term_value_brute(a, decision.term, (x,)) for x in range(a.size)}) == 1



def test_constant_operation_satisfies_everything() -> None:
    const = FiniteAlgebra(2, (Operation("c", 0, (1,)),))
    decision = satisfies_condition(const, COMMUT)
    assert isinstance(decision, Satisfied)
    assert decision.term == App("c", ())
    assert verify_witness(const, COMMUT, decision.term)


def test_affine_satisfies_frozen_values() -> None:
    assert affine_satisfies(2, SIGGERS) == (1, 0, 1, 0, 1, 0)
    assert affine_satisfies(2, COMMUT) is None
    assert affine_satisfies(3, COMMUT) == (2, 2)


def test_affine_satisfies_with_large_prime_modulus() -> None:
    p = 2**61 - 1
    assert affine_satisfies(p, COMMUT) == ((p + 1) // 2, (p + 1) // 2)
    # no primality test bounds the modulus: 2c = 1 has no solution mod an
    # even m and the solution (m + 1) / 2 mod an odd one
    assert affine_satisfies(10**25, COMMUT) is None
    m = 10**25 + 1
    assert affine_satisfies(m, COMMUT) == ((m + 1) // 2, (m + 1) // 2)


def test_affine_solutions_really_balance() -> None:
    rng = random.Random(303)
    for _ in range(120):
        arity = rng.randint(1, 6)
        names = [f"v{i}" for i in range(rng.randint(1, 3))]
        c = LoopCondition("t", tuple(rng.choice(names) for _ in range(arity)),
                          tuple(rng.choice(names) for _ in range(arity)))
        for m in (2, 3, 4, 5, 6):
            coeffs = affine_satisfies(m, c)
            if coeffs is None:
                continue
            assert sum(coeffs) % m == 1
            index = {v: i for i, v in enumerate(c.variables)}
            for asg in product(range(m), repeat=len(c.variables)):
                left = sum(cf * asg[index[u]] for cf, u in zip(coeffs, c.lhs))
                right = sum(cf * asg[index[v]] for cf, v in zip(coeffs, c.rhs))
                assert left % m == right % m


def test_affine_witness_mod_4_reduces_to_one_mod_2() -> None:
    rng = random.Random(404)
    # a mod-4 witness reduces mod 2, so solvability mod 4 implies mod 2
    for _ in range(60):
        arity = rng.randint(1, 4)
        names = [f"v{i}" for i in range(rng.randint(1, 3))]
        c = LoopCondition("t", tuple(rng.choice(names) for _ in range(arity)),
                          tuple(rng.choice(names) for _ in range(arity)))
        if affine_satisfies(4, c) is not None:
            assert affine_satisfies(2, c) is not None


def _random_condition(rng: random.Random, arity: int, variables: int) -> LoopCondition:
    names = [f"v{i}" for i in range(variables)]
    return LoopCondition("t", tuple(rng.choice(names) for _ in range(arity)),
                         tuple(rng.choice(names) for _ in range(arity)))


def test_affine_composite_moduli_match_least_brute_solution() -> None:
    # a composite modulus gives the witness least when read from the last
    # position, like a prime one, with arity small enough for the m^arity
    # brute force
    rng = random.Random(505)
    answers = set()
    for _ in range(300):
        m = rng.choice((4, 6, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 25, 27))
        arity = rng.randint(1, 4 if m < 9 else 3)
        c = _random_condition(rng, arity, rng.randint(1, 3))
        expected = affine_least_brute(m, c)
        assert affine_satisfies(m, c) == expected, (m, c)
        answers.add(expected is None)
    assert answers == {False, True}


def test_affine_prime_moduli_match_least_brute_solution_read_backwards() -> None:
    # a prime modulus gives the witness least when read from the last
    # position, which is what elimination with ascending pivots and free
    # variables set to 0 returns
    rng = random.Random(606)
    answers = set()
    for _ in range(200):
        m = rng.choice((2, 3, 5, 7))
        c = _random_condition(rng, rng.randint(1, 6 if m < 5 else 4), rng.randint(1, 4))
        expected = affine_least_brute(m, c)
        assert affine_satisfies(m, c) == expected, (m, c)
        answers.add(expected is None)
    assert answers == {False, True}


def test_affine_solutions_balance_for_large_moduli() -> None:
    # no brute force reaches these moduli: each answer is checked directly
    rng = random.Random(707)
    found = 0
    for _ in range(40):
        c = _random_condition(rng, rng.randint(1, 30), rng.randint(1, 8))
        for m in (2 ** 40, 6 * 10 ** 12, 10 ** 18 + 9, 10 ** 25 + 1, 3 ** 60):
            coeffs = affine_satisfies(m, c)
            if coeffs is None:
                continue
            found += 1
            assert all(0 <= x < m for x in coeffs) and sum(coeffs) % m == 1
            for w in c.variables:
                assert (sum(x for x, u in zip(coeffs, c.lhs) if u == w)
                        - sum(x for x, v in zip(coeffs, c.rhs) if v == w)) % m == 0
    assert found > 40


def test_affine_answers_follow_the_classification() -> None:
    # (Z_m, x+y-z) satisfies a condition iff m is coprime to the gcd of its
    # graph's cycle discrepancies: 2 for a symmetric bipartite graph, 1 for
    # a non-bipartite or looped one, k for the directed k-cycle
    rng = random.Random(808)
    graphs = [cycle(k) for k in range(1, 10)] + [clique(k) for k in range(2, 7)] + \
        [path(k) for k in range(2, 8)] + [petersen()]
    while len(graphs) < 100:
        n = rng.randint(1, 7)
        pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 2 * n))}
        pairs = {(a, b) for a, b in pairs if a != b or rng.random() < 0.3}
        pairs |= {(v, v) for v in range(n) if not any(v in e for e in pairs)}
        graphs.append(DiGraph(n, frozenset(e for a, b in pairs for e in ((a, b), (b, a)))))
    kinds = set()
    for g in graphs:
        c = condition_from_graph(g)
        kind = classify(c).kind
        kinds.add(kind)
        for m in range(2, 31):
            solvable = affine_satisfies(m, c) is not None
            assert solvable == (m % 2 == 1 or kind is not ConditionKind.BIPARTITE), (g, m)
    assert kinds == {ConditionKind.BIPARTITE, ConditionKind.NONBIPARTITE_LOOPLESS,
                     ConditionKind.TRIVIAL}
    for k in range(1, 13):
        c = condition_from_graph(directed_cycle(k))
        for m in range(2, 31):
            assert (affine_satisfies(m, c) is not None) == (gcd(m, k) == 1), (k, m)


def test_affine_composite_modulus_refuted_by_a_prime_factor() -> None:
    # the 12-cycle condition needs 12c = 1, which has no solution mod 2, so
    # none mod 4 or mod 2^40; mod 25 it has one, as 12 is coprime to 25
    c = parse_condition("t(a,b,c,d,e,f,g,h,i,j,k,l)=t(b,c,d,e,f,g,h,i,j,k,l,a)")
    assert affine_satisfies(4, c) is None
    assert affine_satisfies(2 ** 40, c) is None
    assert affine_satisfies(25, c) == (23,) * 12


def test_affine_rejects_bad_modulus() -> None:
    with pytest.raises(ValueError):
        affine_satisfies(1, COMMUT)


def test_verify_witness_and_bad_terms() -> None:
    looped = parse_condition("t(x,y)=t(x,x)")
    assert verify_witness(PROJ, looped, Var(0))
    assert not verify_witness(PROJ, looped, Var(1))
    wrong = App("m", (Var(0), Var(1), Var(2)))
    assert not verify_witness(Z2, SIGGERS, App("m", (Var(0), Var(1), Var(5))))
    assert verify_witness(Z2, SIGGERS, App("m", (Var(0), Var(2), Var(4))))
    with pytest.raises(BadTerm):
        verify_witness(Z2, SIGGERS, Var(6))
    with pytest.raises(BadTerm):
        verify_witness(Z2, SIGGERS, App("nope", (Var(0),)))
    with pytest.raises(BadTerm):
        verify_witness(Z2, SIGGERS, App("m", (Var(0), Var(1))))
    assert wrong is not None
    with pytest.raises(BadTerm):
        evaluate_term(Z2, Var(2), (0, 1))
    with pytest.raises(BadTerm):
        evaluate_term(Z2, Var(-1), (0, 1))
    with pytest.raises(BadTerm):
        evaluate_term(Z2, App("nope", (Var(0),)), (0, 1))
    with pytest.raises(BadTerm):
        evaluate_term(Z2, App("m", (Var(0), Var(1))), (0, 1))


def _random_term(rng: random.Random, a: FiniteAlgebra, arity: int):
    """A term whose subterms are drawn from a growing pool, so that later
    applications share earlier subterm objects."""
    pool = [Var(i) for i in range(arity)]
    for _ in range(rng.randint(0, 5)):
        op = rng.choice(a.operations)
        pool.append(App(op.name, tuple(rng.choice(pool) for _ in range(op.arity))))
    return pool[-1]


def test_verify_witness_matches_row_oracle() -> None:
    rng = random.Random(77)
    outcomes = set()
    for _ in range(60):
        a = _random_algebra(rng)
        arity = rng.randint(1, 4)
        names = [f"v{i}" for i in range(rng.randint(1, 3))]
        c = LoopCondition("t", tuple(rng.choice(names) for _ in range(arity)),
                          tuple(rng.choice(names) for _ in range(arity)))
        terms = [_random_term(rng, a, arity) for _ in range(3)]
        decision = satisfies_condition(a, c, max_elements=2000)
        if isinstance(decision, Satisfied):
            terms.append(decision.term)
        for t in terms:
            expected = witness_holds_brute(a, c, t)
            assert verify_witness(a, c, t) == expected
            outcomes.add(expected)
            row = tuple(rng.randrange(a.size) for _ in range(arity))
            assert evaluate_term(a, t, row) == term_value_brute(a, t, row)
    assert outcomes == {True, False}


def test_apply_rejects_bad_arguments() -> None:
    # a wrong argument count or an argument outside the universe used to be
    # read as some other table index
    m = Z2.operations[0]
    for args in [(0, 1), (0, 1, 1, 1), (0, 1, 2), (-1, 0, 0)]:
        with pytest.raises(ValueError):
            Z2.apply(m, args)


def test_apply_matches_evaluate_term() -> None:
    rng = random.Random(61)
    for _ in range(40):
        a = random_algebra(rng, max_size=4)
        for op in a.operations:
            term = App(op.name, tuple(Var(i) for i in range(op.arity)))
            for args in product(range(a.size), repeat=op.arity):
                assert a.apply(op, args) == evaluate_term(a, term, args)


def _differing_rows_by_row(a: FiniteAlgebra, c: LoopCondition, t) -> list[int]:
    """The rows, last variable fastest, where the two sides of c differ,
    each side's value taken by evaluate_term at that row alone."""
    value = cache(lambda args: evaluate_term(a, t, args))
    rows = []
    for r, row in enumerate(product(range(a.size), repeat=len(c.variables))):
        at = dict(zip(c.variables, row))
        if value(tuple(at[u] for u in c.lhs)) != value(tuple(at[v] for v in c.rhs)):
            rows.append(r)
    return rows


def test_differing_rows_match_row_by_row_evaluation() -> None:
    # bytes columns over small universes, with 0-ary operations among the
    # random ones, then tuple columns over a 257-element universe: a swap on
    # 2 variables (66,049 rows, each side's value is the other's at the
    # swapped row, so the oracle's cache halves its work) and 1 variable
    rng = random.Random(88)
    cases = []
    for _ in range(80):
        a = _random_algebra(rng, max_size=4)
        arity = rng.randint(1, 4)
        names = [f"v{i}" for i in range(rng.randint(1, 3))]
        c = LoopCondition("t", tuple(rng.choice(names) for _ in range(arity)),
                          tuple(rng.choice(names) for _ in range(arity)))
        cases += [(a, c, _random_term(rng, a, arity)) for _ in range(3)]
    big = FiniteAlgebra(257, (
        Operation("f", 2, tuple(rng.randrange(257) for _ in range(257 ** 2))),
        Operation("g", 1, tuple(rng.randrange(257) for _ in range(257))),
        Operation("c", 0, (rng.randrange(257),))))
    shared = App("g", (App("c", ()),))
    cases += [(big, LoopCondition("t", ("x", "y"), ("y", "x")),
               App("f", (App("f", (Var(0), shared)), App("g", (Var(1),))))),
              (big, LoopCondition("t", ("x", "x"), ("x", "x")), App("f", (Var(1), shared)))]
    seen = set()
    for a, c, t in cases:
        proj = _variable_columns(a, c)
        got = _differing_rows(a, c, t, proj)
        assert got == _differing_rows_by_row(a, c, t)
        seen.add((type(proj[c.variables[0]]), bool(got),
                  any(op.arity == 0 for op in a.operations)))
    assert {(kind, differ, True) for kind in (bytes, tuple) for differ in (False, True)} <= seen


def test_shared_dag_term_is_evaluated_once_per_subterm() -> None:
    term = Var(0)
    for _ in range(40):  # over 2^40 tree nodes, only 40 distinct applications
        term = App("m", (term, term, Var(1)))
    t0 = time.perf_counter()
    assert evaluate_term(Z2, term, (0, 1)) == 1  # m(t,t,y) = y over Z2
    assert not verify_witness(Z2, COMMUT, term)
    assert time.perf_counter() - t0 < 5.0


def test_evaluate_term_rejects_values_outside_the_universe() -> None:
    term = App("m", (Var(0), Var(1), Var(2)))
    for row in ((0, 0, 3), (0, 0, -1), (5, 5, 5)):
        with pytest.raises(ValueError, match="range"):
            evaluate_term(Z3, term, row)
    with pytest.raises(ValueError, match="range"):
        evaluate_term(Z3, Var(0), (99,))
    assert evaluate_term(Z3, term, (0, 0, 2)) == 1


def _tree_copy(t, bump: int = -1):
    """t rebuilt as a tree, every occurrence of a subterm a new object; the
    leaf at position `bump` (in order, if there is one) gets another index."""
    leaves = iter(range(1 << 30))

    def copy(u):
        if isinstance(u, Var):
            return Var((u.index + 1) % 3 if next(leaves) == bump else u.index)
        return App(u.op, tuple(copy(w) for w in u.args))
    return copy(t)


def _term_pair(rng: random.Random):
    """Two terms over the ops f/2, g/2 and h/1 of different shapes: a Var
    against an App, different ops, different argument counts, or the same
    structure with different sharing, maybe with one leaf changed."""
    pool = [Var(i) for i in range(3)]
    for _ in range(rng.randint(1, 6)):
        op, arity = rng.choice((("f", 2), ("g", 2), ("h", 1)))
        pool.append(App(op, tuple(rng.choice(pool) for _ in range(arity))))
    t = pool[-1]
    kind = rng.randrange(4)
    if kind == 0:
        return t, rng.choice(pool[:3])
    if kind == 1:
        return t, App("f" if t.op != "f" else "g", t.args)
    if kind == 2:
        return t, App(t.op, t.args + (Var(0),) if rng.random() < 0.5 else t.args[:-1])
    return t, _tree_copy(t, rng.randrange(-4, 4))


def test_term_equality_and_hash_match_recursive_reference() -> None:
    rng = random.Random(5050)
    outcomes = set()
    for _ in range(2000):
        s, t = _term_pair(rng)
        expected = term_eq_brute(s, t)
        outcomes.add(expected)
        for x, y in ((s, t), (t, s)):
            assert (x == y) == expected
            assert (x != y) == (not expected)
        if expected:
            assert hash(s) == hash(t)
    assert outcomes == {True, False}


def test_shared_dag_term_hashes_and_compares_once_per_subterm() -> None:
    def shared(depth: int, leaf: int):
        term = Var(0)
        for _ in range(depth):  # 2^depth tree nodes, depth distinct applications
            term = App("m", (term, term, Var(leaf)))
        return term

    t0 = time.perf_counter()
    term, copy = shared(40, 1), shared(40, 1)
    assert term is not copy
    assert hash(term) == hash(copy)
    assert term == copy
    assert term != shared(40, 2) and term != shared(39, 1)
    assert time.perf_counter() - t0 < 5.0


def test_deep_term_renders_and_replays_without_recursion() -> None:
    # 3000 levels of m(t,x2,x2): past the default recursion limit
    depth = 3000
    provenance = {"x": ("pos", 0), "y": ("pos", 1)}
    term, item = Var(0), "x"
    for level in range(depth):
        provenance[level] = ("m", (item, "y", "y"))
        term, item = App("m", (term, Var(1), Var(1))), level
    text = term_to_string(term)
    assert text == "m(" * depth + "x1" + ",x2,x2)" * depth
    rebuilt = _term_from_provenance(item, provenance)
    assert term_to_string(rebuilt) == text
    assert rebuilt.args[1] is rebuilt.args[2]  # one Term per provenance item
    # m(t,y,y) = t over Z2, so the term is x1 and commutativity fails
    assert evaluate_term(Z2, rebuilt, (1, 0)) == 1
    assert not verify_witness(Z2, COMMUT, rebuilt)


def test_an_operation_may_be_named_like_a_seed_tag() -> None:
    # seeds are tagged "pos" and told apart by their int payload, so an
    # operation named pos decides as the same table named m, name swapped
    named_pos = FiniteAlgebra(3, (Operation("pos", 3, Z3.operations[0].table),))
    for text in (SIGGERS_IDENTITY, COMMUTATIVITY_IDENTITY, "t(x,y,z)=t(y,z,x)",
                 "t(x,y)=t(y,z)"):
        c = parse_condition(text)
        ours, theirs = satisfies_condition(named_pos, c), satisfies_condition(Z3, c)
        assert type(ours) is type(theirs)
        if isinstance(theirs, Satisfied):
            assert term_to_string(ours.term) == term_to_string(theirs.term).replace("m(", "pos(")


def test_deep_terms_compare_hash_and_repr_without_recursion() -> None:
    def nested(depth: int, leaf: int) -> App:
        term = Var(leaf)
        for _ in range(depth):
            term = App("m", (term, Var(1), Var(1)))
        return term

    first, second = Satisfied(nested(3000, 0)), Satisfied(nested(3000, 0))
    assert first.term is not second.term
    assert first == second and hash(first) == hash(second)
    assert first != Satisfied(nested(3000, 1))
    assert first != Satisfied(nested(2999, 0))
    assert repr(first) == repr(second) == "Satisfied(term=" + \
        "App(op='m', args=(" * 3000 + "Var(index=0)" + \
        ", Var(index=1), Var(index=1)))" * 3000 + ")"
    # the dataclass repr format, including one-argument and nullary tuples
    assert repr(App("f", (Var(0),))) == "App(op='f', args=(Var(index=0),))"
    assert repr(App("c", ())) == "App(op='c', args=())"
    assert App("c", ()) != Var(0) and Var(0) != App("c", ())


def test_terms_and_decisions_keep_no_instance_dict() -> None:
    # a caller may hold many decisions, each with its witness DAG
    decisions = [Satisfied(App("m", (Var(0), Var(1), Var(1)))), NotSatisfied(),
                 ResourceExceeded(7)]
    objects = decisions + [decisions[0].term, Var(0)]
    assert not any(hasattr(x, "__dict__") for x in objects)
    with pytest.raises(AttributeError):
        Var(0).index = 1


def test_nonbipartite_loopless_conditions_agree_on_every_algebra() -> None:
    # the paper's theorem as an oracle the decision procedure does not use:
    # the conditions of K3, C5 and K4 are all equivalent, so no algebra may
    # satisfy one and refute another (a capped closure decides nothing)
    conditions = [condition_from_graph(g) for g in (clique(3), cycle(5), clique(4))]
    slow = {(3, 33), (3, 37)}  # K3's refutation alone takes 0.5-0.8 s each
    outcomes = []
    for size, seed in product((2, 3), range(40)):
        if (size, seed) in slow:
            continue
        a = pool_algebra(size, seed)
        kinds = {type(satisfies_condition(a, c, max_elements=2000)) for c in conditions}
        assert not {Satisfied, NotSatisfied} <= kinds, (size, seed, kinds)
        outcomes.append(kinds)
    assert outcomes.count({Satisfied}) >= 40 and outcomes.count({NotSatisfied}) >= 10


def test_term_rendering_and_evaluation() -> None:
    term = App("m", (Var(0), Var(0), Var(1)))
    assert term_to_string(term) == "m(x1,x1,x2)"
    assert evaluate_term(Z3, term, (2, 1)) == (2 + 2 - 1) % 3


def test_affine_remark_audit_flags_discrepancy() -> None:
    audit = affine_remark_audit()
    assert audit["discrepancy"] is True
    assert audit["mod3"]["commutativity_coefficients"] == [2, 2]
    assert audit["mod3"]["oracles_agree"] is True
    assert not audit["mod3"]["separates_classes"]
    assert audit["mod2"]["separates_classes"] is True
    assert "m(x,x,y)" in audit["note"] or "2x+2y" in audit["note"]
    # the audited witness really is commutative over Z_3
    assert verify_witness(Z3, COMMUT, App("m", (Var(0), Var(0), Var(1))))
