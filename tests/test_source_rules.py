"""Rules the package source must keep."""

import ast
from pathlib import Path

import loopcond


def test_package_has_no_assert_statements() -> None:
    # python -O strips assert statements, and soundness checks must survive it
    sources = sorted(Path(loopcond.__file__).parent.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
