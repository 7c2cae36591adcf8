"""Rules the package source must keep."""

import ast
import sys
from pathlib import Path

import loopcond


def _trees() -> list[tuple[str, ast.AST]]:
    sources = sorted(Path(loopcond.__file__).parent.glob("*.py"))
    assert sources
    return [(path.name, ast.parse(path.read_text(), filename=str(path)))
            for path in sources]


def test_package_imports_only_the_standard_library() -> None:
    # the package runs on a bare interpreter: numpy, hypothesis and the like
    # may be installed where it is developed, but must not become dependencies
    found = [f"{name}:{node.lineno} {module}"
             for name, tree in _trees()
             for node in ast.walk(tree)
             for module in ([alias.name for alias in node.names]
                            if isinstance(node, ast.Import) else
                            [node.module] if isinstance(node, ast.ImportFrom)
                            and node.level == 0 else [])
             if module.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []


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


def test_no_class_defined_inside_a_function() -> None:
    # a class object sits in a reference cycle of its own, so a class made
    # per call keeps what it refers to alive until a full collection
    found = [f"{name}:{node.lineno} {node.name}"
             for name, tree in _trees()
             for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for node in ast.walk(fn)
             if isinstance(node, ast.ClassDef)]
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


def test_only_the_kernel_reads_table_entries() -> None:
    # one table-composition kernel: _apply_columns composes columns, and
    # FiniteAlgebra.apply and the Operation.lookup builder are its row and
    # byte forms; everything else composes through them and reads op.table
    # only as a whole (validation, JSON, its length)
    allowed = {("algebra.py", None, "_apply_columns"), ("algebra.py", "FiniteAlgebra", "apply"),
               ("algebra.py", "Operation", "lookup")}
    trees = _trees()
    matched, inside = set(), set()
    for name, tree in trees:
        scopes = [(None, fn) for fn in tree.body] + \
            [(cls.name, fn) for cls in tree.body if isinstance(cls, ast.ClassDef)
             for fn in cls.body]
        for owner, fn in scopes:
            if isinstance(fn, ast.FunctionDef) and (name, owner, fn.name) in allowed:
                matched.add((name, owner, fn.name))
                inside |= {id(node) for node in ast.walk(fn)}
    assert matched == allowed

    def reads_entries(node: ast.AST) -> bool:
        if isinstance(node, ast.Subscript):
            target = node.value
        elif isinstance(node, ast.Attribute) and node.attr == "__getitem__":
            target = node.value
        else:
            return False
        return isinstance(target, ast.Attribute) and target.attr == "table"

    found = [f"{name}:{node.lineno}"
             for name, tree in trees
             for node in ast.walk(tree)
             if reads_entries(node) and id(node) not in inside]
    assert found == []


def test_term_dags_are_walked_by_fold() -> None:
    # one walker: algebra._fold visits each distinct subterm once, and every
    # other walk of a term is a fold; _render alone walks each occurrence,
    # as it prints one
    found = sorted({fn.name
                    for name, tree in _trees() if name == "algebra.py"
                    for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef) and fn.name != "_render"
                    for loop in ast.walk(fn) if isinstance(loop, ast.While)
                    for node in ast.walk(loop)
                    if isinstance(node, ast.Attribute) and node.attr == "args"})
    assert found == []


def test_search_core_takes_constraints_as_arcs_not_flags() -> None:
    # "pairwise different" and every other constraint kind is an arc of the
    # network that _network builds; the search itself only projects
    (search,) = [fn for name, tree in _trees() if name == "graph.py"
                 for fn in tree.body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "_arc_search"]
    assert [arg.arg for arg in search.args.kwonlyargs] == ["project"]


def test_graph_bitmask_adjacency_is_built_once() -> None:
    # one adjacency per graph: DiGraph._masks ORs each edge's bit into the
    # neighbour masks of its ends, and every other reader of a graph's
    # neighbours, in any module (the walk _walks, is_smooth, _network, core),
    # takes the masks from there rather than filling per-vertex masks or
    # lists while it loops over .edges
    def fills_per_vertex(node: ast.AST) -> bool:
        if isinstance(node, ast.AugAssign):
            return isinstance(node.target, ast.Subscript)
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in ("append", "add", "extend", "update") \
            and isinstance(node.func.value, ast.Subscript)

    def builds_adjacency(loop: ast.AST) -> bool:
        return isinstance(loop, ast.For) and isinstance(loop.iter, ast.Attribute) \
            and loop.iter.attr == "edges" \
            and any(fills_per_vertex(node) for node in ast.walk(loop))

    found = [f"{name}:{owner}.{fn.name}" if owner else f"{name}:{fn.name}"
             for name, tree in _trees()
             for owner, fn in [(None, fn) for fn in tree.body] +
             [(cls.name, fn) for cls in tree.body if isinstance(cls, ast.ClassDef)
              for fn in cls.body]
             if isinstance(fn, ast.FunctionDef)
             and any(builds_adjacency(loop) for loop in ast.walk(fn))]
    assert found == ["graph.py:DiGraph._masks"]


def test_graph_layer_has_one_walk() -> None:
    # one k-step walk: graph._walks ORs the previous rows of a vertex's
    # out-neighbours into its next row, and odd_girth and walk_relation read
    # the rows it yields.  Besides it only _arc_search ORs a subscripted row
    # into a variable, for its domain unions and its group counts
    found = sorted({f"{name}:{fn.name}"
                    for name, tree in _trees()
                    for fn in tree.body + [fn for cls in tree.body
                                           if isinstance(cls, ast.ClassDef) for fn in cls.body]
                    if isinstance(fn, ast.FunctionDef)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitOr)
                    and isinstance(node.target, ast.Name)
                    and isinstance(node.value, ast.Subscript)})
    assert found == ["graph.py:_arc_search", "graph.py:_walks"]


def test_affine_path_enumerates_no_candidates() -> None:
    # the affine oracle is exact for every modulus: affine_satisfies and its
    # solver fix one coefficient at a time and never enumerate vectors
    functions = {fn.name: fn for name, tree in _trees() if name == "algebra.py"
                 for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    found = [f"{name}:{node.lineno}"
             for name in ("affine_satisfies", "_affine_least")
             for node in ast.walk(functions[name])
             if (isinstance(node, ast.Name) and node.id == "product")
             or (isinstance(node, ast.Attribute) and node.attr == "product")]
    assert found == []


def test_affine_path_has_one_reading_order() -> None:
    # every modulus is read from the last position back, so algebra.py keeps
    # no primality test to choose an order and the solver takes no order
    (tree,) = [tree for name, tree in _trees() if name == "algebra.py"]
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))} | \
        {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not {name for name in names
                if name == "_is_prime" or name.startswith("_PRIME_BASES")}
    (solver,) = [fn for fn in tree.body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "_affine_least"]
    args = solver.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["m", "n", "edges"]
    assert args.vararg is None and args.kwarg is None


def test_one_tuple_closure() -> None:
    # the closure engine _close runs behind two closures only: the pair
    # closure of the decision and _close_tuples, which generate_subpower and
    # the constant-term route share.  Only _close_tuples joins the tuple
    # coordinate columns of a block for the kernel, so no second blockwise
    # composition of tuples grows beside it
    def callers(test) -> list[str]:
        return sorted({f"{name}:{fn.name}"
                       for name, tree in _trees()
                       for fn in tree.body if isinstance(fn, ast.FunctionDef)
                       for node in ast.walk(fn)
                       if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                       and test(node)})

    assert callers(lambda call: call.func.id == "_close") == \
        ["algebra.py:_close_pairs", "algebra.py:_close_tuples"]
    assert callers(lambda call: call.func.id == "_concat" and call.args
                   and isinstance(call.args[0], ast.Name) and call.args[0].id == "tuple") == \
        ["algebra.py:_close_tuples"]
