"""Value semantics of the package's immutable records: equality and hashing
by the field tuple, the dataclass-style repr, keyword and default
construction, no assignment or deletion, and copy, deepcopy and pickle."""

import copy
import pickle

import pytest

from loopcond import (App, Check, Classification, ConditionKind, DiGraph, FiniteAlgebra,
                      Gadget, Homomorphism, NotSatisfied, Operation, Relation, Report,
                      ResourceExceeded, Satisfied, Var, parse_condition)

EDGE = DiGraph(2, frozenset({(0, 1)}))
LOOP = DiGraph(1, frozenset({(0, 0)}), ("a",))
NOT1 = Operation("n", 1, (1, 0))
TERM = App("m", (Var(0), App("n", (Var(1),))))

# (make, fields, repr): make() builds a fresh value, fields names the fields
# that equality, hashing and repr read, in order
VALUES = {
    "DiGraph": (lambda: DiGraph(2, frozenset({(0, 1)})), ("n", "edges", "labels"),
                "DiGraph(n=2, edges=frozenset({(0, 1)}), labels=None)"),
    "Homomorphism": (lambda: Homomorphism(EDGE, LOOP, (0, 0)), ("source", "target", "mapping"),
                     "Homomorphism(source=DiGraph(n=2, edges=frozenset({(0, 1)}), labels=None), "
                     "target=DiGraph(n=1, edges=frozenset({(0, 0)}), labels=('a',)), "
                     "mapping=(0, 0))"),
    "LoopCondition": (lambda: parse_condition("t(x,y)=t(y,x)"),
                      ("symbol", "lhs", "rhs", "variables"),
                      "LoopCondition(symbol='t', lhs=('x', 'y'), rhs=('y', 'x'), "
                      "variables=('x', 'y'))"),
    "Classification": (lambda: Classification(ConditionKind.ORIENTED_UNRESOLVED, smooth=True),
                       ("kind", "smooth", "algebraic_length", "weakly_connected"),
                       "Classification(kind=<ConditionKind.ORIENTED_UNRESOLVED: "
                       "'OrientedUnresolved'>, smooth=True, algebraic_length=None, "
                       "weakly_connected=None)"),
    "Operation": (lambda: Operation("n", 1, (1, 0)), ("name", "arity", "table"),
                  "Operation(name='n', arity=1, table=(1, 0))"),
    "FiniteAlgebra": (lambda: FiniteAlgebra(2, (NOT1,)), ("size", "operations"),
                      "FiniteAlgebra(size=2, operations=(Operation(name='n', arity=1, "
                      "table=(1, 0)),))"),
    "Var": (lambda: Var(3), ("index",), "Var(index=3)"),
    "App": (lambda: App("m", (Var(0), App("n", (Var(1),)))), ("op", "args"),
            "App(op='m', args=(Var(index=0), App(op='n', args=(Var(index=1),))))"),
    "Satisfied": (lambda: Satisfied(TERM), ("term",),
                  "Satisfied(term=App(op='m', args=(Var(index=0), "
                  "App(op='n', args=(Var(index=1),)))))"),
    "NotSatisfied": (NotSatisfied, (), "NotSatisfied()"),
    "ResourceExceeded": (lambda: ResourceExceeded(elements_generated=7),
                         ("elements_generated",), "ResourceExceeded(elements_generated=7)"),
    "Relation": (lambda: Relation(2, 2, frozenset({(1, 0)})), ("universe_size", "arity", "tuples"),
                 "Relation(universe_size=2, arity=2, tuples=frozenset({(1, 0)}))"),
    "Gadget": (lambda: Gadget(3, ((0, 0, 1), (1, 1, 2)), (0, 2), 2),
               ("vertex_count", "typed_edges", "distinguished", "slot_count"),
               "Gadget(vertex_count=3, typed_edges=((0, 0, 1), (1, 1, 2)), "
               "distinguished=(0, 2), slot_count=2)"),
    "Check": (lambda: Check("c", True), ("name", "passed", "witness"),
              "Check(name='c', passed=True, witness=None)"),
    "Report": (lambda: Report((Check("c", False, [1, 2]),)), ("checks",),
               "Report(checks=(Check(name='c', passed=False, witness=[1, 2]),))"),
}


def _field_tuple(x, fields) -> tuple:
    return tuple(getattr(x, name) for name in fields)


@pytest.mark.parametrize("name", VALUES)
def test_value_semantics(name) -> None:
    make, fields, text = VALUES[name]
    x, y = make(), make()
    assert type(x).__name__ == name
    assert x == y and not x != y
    assert x != object() and x != _field_tuple(x, fields)
    # App hashes by its own fold, and a check by its name and outcome, as
    # its witness may be a list
    assert hash(x) == hash(y)
    if name == "Check":
        assert hash(x) == hash((x.name, x.passed))
    elif name != "App":
        assert hash(x) == hash(_field_tuple(x, fields))
    assert repr(x) == text
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert _field_tuple(x, fields) == _field_tuple(y, fields)
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(clone) is type(x)
        assert clone == x and repr(clone) == text


def test_values_differ_by_any_field() -> None:
    assert DiGraph(2, frozenset({(0, 1)})) != DiGraph(2, frozenset({(1, 0)}))
    assert DiGraph(1, frozenset(), ("a",)) != DiGraph(1, frozenset())
    assert Check("c", True) != Check("c", True, 0)
    assert Var(0) != Var(1) and Satisfied(Var(0)) != Satisfied(Var(1))
    assert ResourceExceeded(1) != NotSatisfied()


def test_keyword_and_default_construction() -> None:
    assert Classification(ConditionKind.TRIVIAL) == Classification(
        kind=ConditionKind.TRIVIAL, smooth=None, algebraic_length=None, weakly_connected=None)
    assert DiGraph(n=1, edges=frozenset()) == DiGraph(1, frozenset(), None)
    assert Check("c", passed=False).witness is None
    with pytest.raises(TypeError):
        Check("c")
    with pytest.raises(TypeError):
        Check("c", True, None, None)
    with pytest.raises(TypeError):
        Check("c", True, colour=1)
    with pytest.raises(TypeError):
        Check("c", True, name="d")


def test_construction_validates() -> None:
    with pytest.raises(ValueError):
        DiGraph(n=1, edges=frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        Homomorphism(EDGE, LOOP, (0,))
    with pytest.raises(ValueError):
        Relation(2, 1, frozenset({(2,)}))


def test_condition_graph_is_kept_but_not_compared() -> None:
    c, d = parse_condition("t(x,y)=t(y,x)"), parse_condition("t(x,y)=t(y,x)")
    object.__setattr__(d, "graph", LOOP)
    assert c == d and hash(c) == hash(d) and repr(c) == repr(d)
    for clone in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert clone.graph == c.graph == DiGraph(2, frozenset({(0, 1), (1, 0)}), ("x", "y"))


def test_cached_properties_survive_copies() -> None:
    g = DiGraph(3, frozenset({(0, 1), (1, 2)}))
    masks = g._masks
    for clone in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert clone == g and clone._masks == masks
    assert copy.deepcopy(NOT1).lookup == NOT1.lookup
