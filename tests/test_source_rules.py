"""Rules the package source must keep."""

import ast
from pathlib import Path

import loopcond


def _trees() -> list[tuple[str, ast.AST]]:
    sources = sorted(Path(loopcond.__file__).parent.glob("*.py"))
    assert sources
    return [(path.name, ast.parse(path.read_text(), filename=str(path)))
            for path in sources]


def test_package_has_no_assert_statements() -> None:
    # python -O strips assert statements, and soundness checks must survive it
    found = [f"{name}:{node.lineno}"
             for name, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_has_no_self_calling_functions() -> None:
    # recursion depth grows with the input, so deep terms or graphs would end
    # in RecursionError; walks keep explicit stacks instead
    found = [f"{name}:{fn.lineno} {fn.name}"
             for name, tree in _trees()
             for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == fn.name]
    assert found == []


def test_only_cli_main_writes_stdout() -> None:
    # subcommands return their text and --json payload and main alone prints
    # one of them, so stdout carries exactly one answer; diagnostics go to stderr
    trees = _trees()
    in_main = {id(node)
               for name, tree in trees if name == "cli.py"
               for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and fn.name == "main"
               for node in ast.walk(fn)}
    found = [f"{name}:{node.lineno}"
             for name, tree in trees
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "print"
             and not any(k.arg == "file" for k in node.keywords)
             and id(node) not in in_main]
    assert in_main
    assert found == []
