"""Checks that raise by themselves: soundness checks, which must survive
python -O, and checks on the arguments of public constructors and functions."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import loopcond
from loopcond import (AlgebraFormatError, ConditionSyntaxError, Gadget,
                      Homomorphism, LoopCondition, Relation, SlotMismatch,
                      algebra_from_json, clique, cycle, directed_cycle, evaluate,
                      generate_subpower, mod_affine_algebra, path, pp_flatten, pp_power,
                      walk_gadget, walk_relation, witness)

_OPTIMIZED_CHILD = """
from loopcond import algebra as alg, graph as gr, ppdef as pp
from loopcond import condition_from_graph, cycle, mod_affine_algebra
{setup}
try:
    {call}
except AssertionError as exc:
    print(exc)
"""

_Z3_C6 = "alg.satisfies_condition(mod_affine_algebra(3), condition_from_graph(cycle(6)), " \
    "max_elements=5)"


@pytest.mark.parametrize("setup, call, message", [
    ("", "gr._retraction(gr.path(3), [0, 1], [0, 1, 1])",
     "core step produced a map that is not a retraction"),
    # the constant map sends the directed path 0->1->2->3 to vertex 1, and
    # then no vertex can go, so the composed map is not onto the kept three
    ("calls = []\n"
     "def find_hom(g, h, **kwargs):\n"
     "    calls.append(h)\n"
     "    return gr.Homomorphism(g, h, (0,) * g.n) if len(calls) == 1 else None\n"
     "gr.find_hom = find_hom",
     "gr.core(gr.DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))",
     "a core's endomorphism is not onto"),
    ("pp._arc_search = lambda domains, constraints, order, budget, **kw: "
     "iter([(0,) * len(order)])",
     "pp.witness(pp.Gadget(2, ((0, 0, 1),), (0, 1), 1), [gr.directed_cycle(2)], (0, 1))",
     "search returned an assignment that breaks a constraint"),
    # 0 and 1 are no twins of the directed 3-cycle: swapping them reverses
    # the edge between them and moves the edges at 2
    ("pp._twin_classes = lambda graphs: [[0, 1], [2]]",
     "pp.evaluate(pp.Gadget(2, ((0, 0, 1),), (0, 1), 1), [gr.directed_cycle(3)])",
     "swapping twins 0 and 1 is not an automorphism of the inputs"),
    # C6 over Z_3 runs out of elements at 5, and its core (one edge) is
    # satisfied, so its witness is carried to C6
    ("alg.core = lambda g: gr.Homomorphism(\n"
     "    g, gr.DiGraph(2, gr.clique(2).edges, ('v0', 'v3')), (0,) * g.n)",
     _Z3_C6, "core edge is not an edge of the condition graph"),
    ("refine = alg._refine\n"
     "alg._refine = lambda a, c, cap: alg.Satisfied(alg.Var(0)) \\\n"
     "    if len(c.variables) < 6 else refine(a, c, cap)",
     _Z3_C6, "witness carried from the core fails on the condition"),
    # f(x1) = 0 is a constant unary term, found where the 2^3 rows of K3 are
    # over the cap; the term is then evaluated as not constant
    ("alg._term_column = lambda a, t, leaves, length, kind: tuple(range(length))",
     "alg.satisfies_condition(alg.FiniteAlgebra(2, (alg.Operation('f', 1, (0, 0)),)), "
     "condition_from_graph(gr.clique(3)), max_entries=0)",
     "unary term found constant takes more than one value"),
], ids=["retraction", "core onto", "ppdef witness", "ppdef twins", "core edge",
        "carried witness", "constant term"])
def test_soundness_checks_raise_under_optimize(setup, call, message) -> None:
    # python -O strips assert statements, so the checks must raise by themselves
    script = _OPTIMIZED_CHILD.format(setup=setup, call=call)
    env = dict(os.environ, PYTHONPATH=str(Path(loopcond.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == message + "\n"


_R4 = Relation(4, 1, frozenset({(0,), (3,)}))


@pytest.mark.parametrize("call, error, message", [
    (lambda: Homomorphism(path(2), path(2), (0,)), ValueError,
     "mapping must be total on the source vertices"),
    (lambda: Homomorphism(path(2), path(2), (0, 2)), ValueError,
     "mapping hits a vertex outside the target"),
    (lambda: cycle(0), ValueError, "cycle needs n >= 1"),
    (lambda: clique(0), ValueError, "clique needs n >= 1"),
    (lambda: directed_cycle(0), ValueError, "directed_cycle needs n >= 1"),
    (lambda: path(0), ValueError, "path needs n >= 1"),
    (lambda: LoopCondition("t!", ("x",), ("y",)), ConditionSyntaxError,
     "bad function symbol 't!'"),
    (lambda: LoopCondition("t", ("x-1",), ("y",)), ConditionSyntaxError,
     "bad variable name 'x-1'"),
    (lambda: Relation(0, 1, frozenset()), ValueError, "universe must be nonempty"),
    (lambda: Relation(2, -1, frozenset()), ValueError, "arity must be nonnegative"),
    (lambda: evaluate(Gadget(1, (), (0,), 0), []), SlotMismatch,
     "at least one input graph is required"),
    (lambda: witness(walk_gadget(1), [directed_cycle(2)], (0,)), ValueError,
     "witness tuple must match the gadget arity"),
    (lambda: pp_power(_R4, 0), ValueError, "power exponent must be positive"),
    (lambda: pp_flatten(_R4, 0, 2), ValueError, "power exponent must be positive"),
    (lambda: pp_flatten(_R4, 1, 2), ValueError, "universe is not the stated power"),
    (lambda: algebra_from_json(
        '{"size": 2, "operations": [{"name": "f", "arity": -1, "table": []}]}'),
     AlgebraFormatError, "bad algebra JSON: operation f has negative arity"),
    (lambda: mod_affine_algebra(2).operation("g"), KeyError, "'g'"),
    (lambda: mod_affine_algebra(1), ValueError, "modulus must be at least 2"),
    (lambda: generate_subpower(mod_affine_algebra(2), 1, [(2,)]), ValueError,
     "generator (2,) is not a valid 1-tuple"),
    (lambda: walk_relation(directed_cycle(2), 0), ValueError,
     "walk length must be positive"),
    (lambda: walk_gadget(0), ValueError, "walk length must be positive"),
], ids=["hom short", "hom range", "cycle", "clique", "directed_cycle", "path",
        "symbol", "variable", "relation size", "relation arity", "evaluate inputs",
        "witness arity", "pp_power", "pp_flatten power", "pp_flatten base",
        "algebra arity", "operation name", "affine modulus", "subpower generator",
        "walk_relation", "walk_gadget"])
def test_input_checks_raise(call, error, message) -> None:
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
