"""The closure decision on a refined row subset, against a decision that
refines no rows and against decisions frozen before refinement existed."""

import json
import random

from helpers import decide_by_subpower, random_algebra, witness_holds_brute
from loopcond import (COMMUTATIVITY_IDENTITY, SIGGERS_IDENTITY, FiniteAlgebra,
                      LoopCondition, ResourceExceeded, Satisfied, clique,
                      condition_from_graph, condition_graph, core, cycle,
                      decision_to_json_dict, mod_affine_algebra, parse_condition, path,
                      projection_algebra, satisfies_condition)
from loopcond import algebra as alg


def _loopless_condition(rng: random.Random, variables: int) -> LoopCondition:
    names = [f"v{i}" for i in range(variables)]
    edges = [rng.sample(names, 2) for _ in range(rng.randint(2, 5))]
    return LoopCondition("t", tuple(u for u, _ in edges), tuple(v for _, v in edges))


def test_decision_kind_matches_row_free_oracle() -> None:
    rng = random.Random(31)
    compared = {"Satisfied": 0, "NotSatisfied": 0}
    for _ in range(150):
        a = random_algebra(rng, max_size=4)
        c = _loopless_condition(rng, rng.randint(2, 3 if a.size < 4 else 2))
        cap = {1: 400, 2: 150, 3: 30}[max(op.arity for op in a.operations)]
        decision = satisfies_condition(a, c, max_elements=cap)
        if isinstance(decision, Satisfied):
            assert witness_holds_brute(a, c, decision.term)
        expected = decide_by_subpower(a, c, cap)
        if expected is None or isinstance(decision, ResourceExceeded):
            continue
        assert type(decision).__name__ == expected
        compared[expected] += 1
    assert compared["Satisfied"] >= 50 and compared["NotSatisfied"] >= 15


def _corpus() -> list[tuple[FiniteAlgebra, LoopCondition, int]]:
    """(algebra, condition, max_elements) queries: named algebras and
    conditions, then seeded random ones."""
    named_algebras = [projection_algebra(2), projection_algebra(3)] + \
        [mod_affine_algebra(m) for m in (2, 3, 4)]
    named_conditions = [parse_condition(SIGGERS_IDENTITY),
                        parse_condition(COMMUTATIVITY_IDENTITY),
                        parse_condition("t(x,y,z)=t(y,z,x)"),
                        condition_from_graph(cycle(5)), condition_from_graph(clique(4)),
                        condition_from_graph(path(4))]
    # (Z4, K4) and (Z4, P4), at 256 rows, are left out: the full-row
    # closure takes minutes on them
    corpus = [(a, c, 2000) for a in named_algebras for c in named_conditions
              if a.size ** len(c.variables) < 256]
    rng = random.Random(6)
    for _ in range(60):
        a = random_algebra(rng, max_size=3)
        c = _loopless_condition(rng, rng.randint(2, 3))
        corpus.append((a, c, {1: 400, 2: 400, 3: 40}[max(op.arity for op in a.operations)]))
    return corpus


#: json.dumps(decision_to_json_dict(...)) of each _corpus() query, as the
#: closure over all rows answered it before rows were refined; None where it
#: ended in ResourceExceeded, which a row subset may now answer.
FROZEN = [
    '{"decision": "NotSatisfied"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "Satisfied", "witness": "m(x5,x1,x3)"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "Satisfied", "witness": "m(x3,x1,x2)"}',
    '{"decision": "Satisfied", "witness": "m(m(x4,x1,x2),x6,x8)"}',
    '{"decision": "Satisfied", "witness": "m(x5,x1,x2)"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "Satisfied", "witness": "m(x2,x2,x1)"}',
    '{"decision": "Satisfied", "witness": "m(x2,x2,x1)"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "Satisfied", "witness": "m(x3,x3,x1)"}',
    '{"decision": "Satisfied", "witness": "m(x4,x4,x1)"}',
    '{"decision": "Satisfied", "witness": "m(x2,x2,x1)"}',
    '{"decision": "Satisfied", "witness": "m(x5,x1,x4)"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "Satisfied", "witness": "m(m(x2,x2,x1),x2,x3)"}',
    '{"decision": "Satisfied", "witness": "f1(x1,x1)"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "Satisfied", "witness": "f0(x1)"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "Satisfied", "witness": "f1(x1,x1,x1)"}',
    '{"decision": "Satisfied", "witness": "f1(x1,x1)"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "Satisfied", "witness": "f0(x1,x1)"}',
    None,
    '{"decision": "Satisfied", "witness": "f1()"}',
    '{"decision": "Satisfied", "witness": "f0(x1,x1,x1)"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "Satisfied", "witness": "f0(x1,x1,x1)"}',
    '{"decision": "Satisfied", "witness": "f1(x1,x1)"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "Satisfied", "witness": "f0(x1)"}',
    '{"decision": "Satisfied", "witness": "f1(x1,x1)"}',
    '{"decision": "Satisfied", "witness": "f1(x1)"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "Satisfied", "witness": "f0(x1,x1)"}',
    '{"decision": "Satisfied", "witness": "f1()"}',
    '{"decision": "Satisfied", "witness": "f0(x5,x5,x1)"}',
    '{"decision": "Satisfied", "witness": "f0(x1,x1,x1)"}',
    '{"decision": "Satisfied", "witness": "f1()"}',
    '{"decision": "Satisfied", "witness": "f0(x1,x1,x1)"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "Satisfied", "witness": "f1(x1,x1)"}',
    '{"decision": "Satisfied", "witness": "f1()"}',
    '{"decision": "Satisfied", "witness": "f0(x2,x1)"}',
    '{"decision": "Satisfied", "witness": "f1()"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "Satisfied", "witness": "f1()"}',
    '{"decision": "Satisfied", "witness": "f0(x1,x1,x1)"}',
    '{"decision": "Satisfied", "witness": "f0(x1,x1,x1)"}',
    '{"decision": "Satisfied", "witness": "f1()"}',
    '{"decision": "Satisfied", "witness": "f1(x1)"}',
    '{"decision": "Satisfied", "witness": "f1()"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "Satisfied", "witness": "f0(x1,x1)"}',
    '{"decision": "Satisfied", "witness": "f0(f0(x1,x1),x1)"}',
    '{"decision": "Satisfied", "witness": "f1()"}',
    '{"decision": "Satisfied", "witness": "f0(x1,x1)"}',
    '{"decision": "Satisfied", "witness": "f1()"}',
    '{"decision": "Satisfied", "witness": "f0(x2,x2,x1)"}',
    '{"decision": "Satisfied", "witness": "f1(x1,x1,x1)"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "Satisfied", "witness": "f1()"}',
    '{"decision": "Satisfied", "witness": "f0(x1,x1,x1)"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "Satisfied", "witness": "f0(x3,x1,x1)"}',
    '{"decision": "Satisfied", "witness": "f1()"}',
    '{"decision": "Satisfied", "witness": "f1()"}',
    '{"decision": "Satisfied", "witness": "f1(x2,x1,x1)"}',
    '{"decision": "NotSatisfied"}',
    '{"decision": "Satisfied", "witness": "f0(x1)"}',
    '{"decision": "Satisfied", "witness": "f0(x1,x1,x1)"}',
    '{"decision": "Satisfied", "witness": "f0(f0(x1,x1),f0(x1,x1))"}',
    '{"decision": "NotSatisfied"}',
]


def _text(d) -> str:
    return json.dumps(decision_to_json_dict(d))


def test_decisions_match_full_row_closure() -> None:
    # the condition's own closure on refined rows answers as the full one did
    corpus = _corpus()
    own = [alg._refine(a, c, cap) for a, c, cap in corpus]
    assert len(own) == len(FROZEN)
    assert [_text(d) for d, f in zip(own, FROZEN) if f is not None] == \
        [f for f in FROZEN if f is not None]
    # the decision answers alike, but where the graph's smaller core is
    # satisfied it returns the core's witness, carried to the graph
    carried = 0
    for (a, c, cap), expected in zip(corpus, own):
        decision = satisfies_condition(a, c, max_elements=cap)
        assert type(decision) is type(expected)
        g = condition_graph(c)
        if isinstance(decision, Satisfied) and core(g).target.n < g.n:
            assert witness_holds_brute(a, c, decision.term)
            carried += _text(decision) != _text(expected)
        else:
            assert _text(decision) == _text(expected)
    assert carried == 2


def test_capped_query_is_answered_on_a_row_subset() -> None:
    # the closure over all 16 rows has 32 elements, so at a cap of 10 it was
    # ResourceExceeded; on a row subset it closes and refutes the path
    z2, p4 = mod_affine_algebra(2), condition_from_graph(path(4))
    decision = satisfies_condition(z2, p4, max_elements=10)
    assert decision_to_json_dict(decision) == {"decision": "NotSatisfied"}
    assert decide_by_subpower(z2, p4, cap=100) == "NotSatisfied"
    assert decide_by_subpower(z2, p4, cap=10) is None
