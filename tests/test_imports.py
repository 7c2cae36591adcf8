"""The package's public names, and the modules each CLI subcommand loads.

`import loopcond` loads the graph side only (errors, graph, identity,
classify); algebra, ppdef and constructions load on first use, so a CLI
process compiles only what its subcommand runs.  No process imports
`dataclasses`, the `inspect` it pulls in, or `typing`, which cost every CLI
run start-up time.  The child interpreters start without `site`, so that no
site `.pth` file can load one of them first and hide the package's import.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loopcond

from loopcond import algebra_to_json, mod_affine_algebra

# the package's public names as they stood when the algebra side was
# imported eagerly: every name its submodules lent it, and the six
# submodules themselves
PUBLIC = [
    "AlgebraFormatError", "App", "ArityMismatch", "ArityNotDivisible", "BadTerm",
    "BudgetExceeded", "COMMUTATIVITY_IDENTITY", "Check", "Classification", "ConditionKind",
    "ConditionSyntaxError", "Decision", "DiGraph", "EmptyArgs", "ExponentCap",
    "FiniteAlgebra", "Gadget", "GadgetFormatError", "GraphFormatError", "Homomorphism",
    "LoopCondition", "LoopcondError", "NotSatisfied", "NotSymmetric", "NotWeaklyConnected",
    "Operation", "Relation", "Report", "ResourceExceeded", "SIGGERS_IDENTITY", "Satisfied",
    "SizeCap", "SlotMismatch", "SymbolMismatch", "Term", "UniverseMismatch", "Var",
    "affine_remark_audit", "affine_satisfies", "algebra", "algebra_from_json",
    "algebra_to_json", "algebraic_length", "classification_to_json", "classify", "clique",
    "clique_F", "clique_Q", "clique_R", "condition_from_graph", "condition_graph",
    "constructions", "core", "cycle", "decision_to_json_dict", "directed_cycle",
    "equivalence_note", "errors", "evaluate", "evaluate_term", "find_embedding", "find_hom",
    "gadget_from_json", "gadget_to_json", "generate_subpower", "graph", "graph_from_json",
    "graph_to_json", "graph_to_relation", "has_loop", "identity", "implies_by_hom",
    "is_bipartite", "is_compatible", "is_smooth", "is_symmetric", "is_weakly_connected",
    "mod_affine_algebra", "odd_girth", "parse_condition", "path", "petersen", "pp_flatten",
    "pp_power", "ppdef", "print_condition", "projection_algebra", "relation_to_graph",
    "report_to_json", "satisfies_condition", "symmetric_part", "term_to_string", "to_dot",
    "verify_clique_claims", "verify_cycle_reduction", "verify_witness", "walk_gadget",
    "walk_relation", "witness",
]
SUBMODULES = ("algebra", "constructions", "errors", "graph", "identity", "ppdef")


def test_public_names_are_frozen() -> None:
    assert len(PUBLIC) == 99
    assert loopcond.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(loopcond))


def test_every_public_name_resolves() -> None:
    modules = [importlib.import_module(f"loopcond.{m}") for m in SUBMODULES + ("classify",)]
    for name in PUBLIC:
        value = getattr(loopcond, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"loopcond.{name}"]
        else:
            assert any(getattr(m, name, None) is value for m in modules), name


def test_star_import_binds_every_public_name() -> None:
    namespace: dict = {}
    exec("from loopcond import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    assert namespace["satisfies_condition"] is sys.modules["loopcond.algebra"].satisfies_condition


def test_classify_stays_the_function() -> None:
    # importing the submodule by name does not rebind the package attribute
    module = importlib.import_module("loopcond.classify")
    assert loopcond.classify is module.classify
    assert callable(loopcond.classify)


def test_unknown_attribute_raises_attribute_error() -> None:
    with pytest.raises(AttributeError, match="no_such_name"):
        loopcond.no_such_name
    assert not hasattr(loopcond, "cli_main")


# standard-library modules that no loopcond process may load
HEAVY = ("dataclasses", "inspect", "typing")

# runs cli.main in a fresh interpreter and prints the loopcond modules it
# loaded, then those of HEAVY
_FOOTPRINT_CHILD = f"""
import contextlib, io, json, sys
from loopcond.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("loopcond.")),
                  [m for m in {HEAVY!r} if m in sys.modules]]))
"""

GRAPH_SIDE = ["loopcond.classify", "loopcond.cli", "loopcond.errors", "loopcond.graph",
              "loopcond.identity"]
COMM = "t(x,y)=t(y,x)"


@pytest.fixture(scope="module")
def z3_file(tmp_path_factory):
    target = tmp_path_factory.mktemp("algebra") / "z3.json"
    target.write_text(algebra_to_json(mod_affine_algebra(3)))
    return str(target)


def _run_child(script: str, *argv: str):
    env = dict(os.environ, PYTHONPATH=str(Path(loopcond.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", script, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.stderr == ""
    return json.loads(proc.stdout)


def test_package_import_loads_the_graph_side_only() -> None:
    script = f"""
import json, sys
import loopcond
def loaded():
    return sorted(m for m in sys.modules if m.startswith("loopcond."))
before = loaded()
heavy = [m for m in {HEAVY!r} if m in sys.modules]
loopcond.App  # the first use of an algebra name loads algebra alone
print(json.dumps([before, loaded(), heavy]))
"""
    before, after, heavy = _run_child(script)
    assert before == [m for m in GRAPH_SIDE if m != "loopcond.cli"]
    assert after == sorted(before + ["loopcond.algebra"])
    assert heavy == []


@pytest.mark.parametrize("argv, code, extra", [
    (["parse", COMM], 0, []),
    (["classify", COMM], 0, []),
    (["graph-info", COMM], 0, []),
    (["implies", COMM, COMM], 0, []),
    (["verify", "--cycle-k", "5", "--clique-n", "3"], 0,
     ["loopcond.constructions", "loopcond.ppdef"]),
    (["satisfies", COMM, "--algebra", None, "--affine", "3"], 0, ["loopcond.algebra"]),
    (["audit"], 0, ["loopcond.algebra"]),
], ids=["parse", "classify", "graph-info", "implies", "verify", "satisfies", "audit"])
def test_subcommand_loads_only_what_it_runs(z3_file, argv, code, extra) -> None:
    assert _run_child(_FOOTPRINT_CHILD, *[z3_file if a is None else a for a in argv]) == [
        code, sorted(GRAPH_SIDE + extra), []]
