import random

import pytest

from helpers import isomorphic
from loopcond import (ArityMismatch, ConditionSyntaxError, EmptyArgs,
                      LoopCondition, SIGGERS_IDENTITY, SymbolMismatch, clique,
                      condition_from_graph, condition_graph, cycle,
                      parse_condition, path, print_condition)


def test_parse_siggers() -> None:
    c = parse_condition(SIGGERS_IDENTITY)
    assert c.symbol == "s"
    assert c.arity == 6
    assert c.variables == ("x", "y", "z")
    assert c.lhs == ("x", "y", "y", "z", "z", "x")
    assert c.rhs == ("y", "x", "z", "y", "x", "z")


def test_parse_minimal_identity() -> None:
    c = parse_condition("t(x)=t(x)")
    assert c.arity == 1
    assert c.variables == ("x",)


def test_parse_first_occurrence_order_scans_lhs_then_rhs() -> None:
    c = parse_condition("f(b,a)=f(c,b)")
    assert c.variables == ("b", "a", "c")


@pytest.mark.parametrize("text,exc", [
    ("t(x,y)=s(y,x)", SymbolMismatch),
    ("t(x,y)=t(y)", ArityMismatch),
    ("t()=t()", EmptyArgs),
    ("t()=t(x)", EmptyArgs),
    ("t(x,y=t(y,x)", ConditionSyntaxError),
    ("t(x,,y)=t(y,x)", ConditionSyntaxError),
    ("t(x y)=t(y x)", ConditionSyntaxError),
    ("t(x)=t(x)=t(x)", ConditionSyntaxError),
    ("hello", ConditionSyntaxError),
    ("t(x-y)=t(y,x)", ConditionSyntaxError),
])
def test_parse_errors(text: str, exc) -> None:
    with pytest.raises(exc):
        parse_condition(text)


@pytest.mark.parametrize("text,exc,message", [
    ("t(x,y)=t(y)", ArityMismatch, "sides have 2 and 1 arguments"),
    ("t()=t(x)", EmptyArgs, "identity sides must have at least one argument"),
    ("t(x)=t()", EmptyArgs, "identity sides must have at least one argument"),
    ("t()=t(x,y,z)", EmptyArgs, "identity sides must have at least one argument"),
    ("t(x,y)=s(y)", SymbolMismatch, "function symbols differ: 't' vs 's'"),
])
def test_parse_error_messages(text: str, exc, message: str) -> None:
    with pytest.raises(exc) as info:
        parse_condition(text)
    assert str(info.value) == message


def test_siggers_graph_is_symmetric_triangle() -> None:
    g = condition_graph(parse_condition(SIGGERS_IDENTITY))
    assert g.n == 3
    assert g.labels == ("x", "y", "z")
    assert set(g.edges) == {(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)}


def test_commutativity_graph_is_single_unoriented_edge() -> None:
    g = condition_graph(parse_condition("t(x,y)=t(y,x)"))
    assert g.n == 2
    assert set(g.edges) == {(0, 1), (1, 0)}


def test_swap_two_arguments_graph_has_loop() -> None:
    # positions give (x,x), (y,z), (z,y); checked by listing them by hand
    g = condition_graph(parse_condition("t(x,y,z)=t(x,z,y)"))
    assert set(g.edges) == {(0, 0), (1, 2), (2, 1)}


def test_print_roundtrip_siggers() -> None:
    c = parse_condition(SIGGERS_IDENTITY)
    assert print_condition(c) == SIGGERS_IDENTITY
    assert parse_condition(print_condition(c)) == c


def test_print_normalizes_whitespace() -> None:
    c = parse_condition("t( x , y )=t(y,x)")
    assert print_condition(c) == "t(x,y)=t(y,x)"


def _random_condition(rng: random.Random) -> LoopCondition:
    arity = rng.randint(1, 6)
    names = [f"v{i}" for i in range(rng.randint(1, 4))]
    lhs = tuple(rng.choice(names) for _ in range(arity))
    rhs = tuple(rng.choice(names) for _ in range(arity))
    return LoopCondition("t", lhs, rhs)


def test_random_conditions_roundtrip_and_invariants() -> None:
    rng = random.Random(20240817)
    for _ in range(300):
        c = _random_condition(rng)
        assert parse_condition(print_condition(c)) == c
        g = condition_graph(c)
        # every variable occurs at some position, so no vertex is isolated
        touched = {v for e in g.edges for v in e}
        assert touched == set(range(g.n))
        assert len(g.edges) <= c.arity


def test_condition_graph_invariant_under_renaming() -> None:
    rng = random.Random(7)
    for _ in range(100):
        c = _random_condition(rng)
        names = list(dict.fromkeys(c.lhs + c.rhs))
        fresh = {v: f"w{i}" for i, v in enumerate(rng.sample(names, len(names)))}
        renamed = LoopCondition(c.symbol,
                                tuple(fresh[v] for v in c.lhs),
                                tuple(fresh[v] for v in c.rhs))
        assert isomorphic(condition_graph(c), condition_graph(renamed))


def test_condition_from_graph_roundtrips_up_to_iso() -> None:
    for g in (cycle(5), clique(4), path(3), cycle(2)):
        c = condition_from_graph(g)
        assert isomorphic(condition_graph(c), g)


def test_condition_from_graph_rejects_isolated_vertices() -> None:
    from loopcond import DiGraph
    with pytest.raises(ValueError):
        condition_from_graph(DiGraph(2, frozenset({(0, 0)})))
    with pytest.raises(ValueError):
        condition_from_graph(DiGraph(1, frozenset()))
