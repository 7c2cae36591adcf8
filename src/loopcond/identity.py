"""Single-equation linear identities t(u1,...,un) = t(v1,...,vn).

Grammar: ``ident '(' varlist ')' '=' ident '(' varlist ')'`` where identifiers
are nonempty runs of alphanumerics and underscores; whitespace is ignored.
"""

from __future__ import annotations

import re
from .errors import ArityMismatch, ConditionSyntaxError, EmptyArgs, SymbolMismatch, _Value
from .graph import DiGraph

#: The 6-ary identity whose assigned graph is the unoriented triangle.
SIGGERS_IDENTITY = "s(x,y,y,z,z,x)=s(y,x,z,y,x,z)"

#: The binary identity whose assigned graph is a single unoriented edge.
COMMUTATIVITY_IDENTITY = "t(x,y)=t(y,x)"

_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")
_EQUATION = re.compile(
    r"\s*([A-Za-z0-9_]+)\s*\(([^()=]*)\)\s*=\s*([A-Za-z0-9_]+)\s*\(([^()=]*)\)\s*\Z"
)


class LoopCondition(_Value):
    """A parsed identity, built from its symbol and sides; `variables` lists
    names in first-occurrence order.  `graph` is the assigned graph, built
    once (see condition_graph); it is an attribute, not a field, so
    equality, hashing and repr leave it out."""

    symbol: str
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]
    variables: tuple[str, ...]

    def __init__(self, symbol: str, lhs: tuple[str, ...], rhs: tuple[str, ...]):
        if not _IDENT.match(symbol):
            raise ConditionSyntaxError(f"bad function symbol {symbol!r}")
        for name in lhs + rhs:
            if not _IDENT.match(name):
                raise ConditionSyntaxError(f"bad variable name {name!r}")
        if not lhs or not rhs:
            raise EmptyArgs("identity sides must have at least one argument")
        if len(lhs) != len(rhs):
            raise ArityMismatch(f"sides have {len(lhs)} and {len(rhs)} arguments")
        variables = tuple(dict.fromkeys(lhs + rhs))
        index = {name: i for i, name in enumerate(variables)}
        edges = frozenset((index[u], index[v]) for u, v in zip(lhs, rhs))
        super().__init__(symbol, lhs, rhs, variables)
        object.__setattr__(self, "graph", DiGraph(len(variables), edges, variables))

    @property
    def arity(self) -> int:
        return len(self.lhs)


def _split_args(body: str) -> list[str] | None:
    if body.strip() == "":
        return []
    parts = [p.strip() for p in body.split(",")]
    if any(not _IDENT.match(p) for p in parts):
        return None
    return parts


def parse_condition(text: str) -> LoopCondition:
    """Parse an identity, normalizing whitespace.

    Raises ConditionSyntaxError, SymbolMismatch, EmptyArgs or ArityMismatch.
    """
    m = _EQUATION.match(text)
    if m is None:
        raise ConditionSyntaxError(f"cannot parse identity: {text!r}")
    lsym, lbody, rsym, rbody = m.groups()
    largs = _split_args(lbody)
    rargs = _split_args(rbody)
    if largs is None or rargs is None:
        raise ConditionSyntaxError(f"malformed argument list in {text!r}")
    if lsym != rsym:
        raise SymbolMismatch(f"function symbols differ: {lsym!r} vs {rsym!r}")
    return LoopCondition(lsym, tuple(largs), tuple(rargs))


def print_condition(c: LoopCondition) -> str:
    """Canonical text form; parse_condition(print_condition(c)) == c."""
    return f"{c.symbol}({','.join(c.lhs)})={c.symbol}({','.join(c.rhs)})"


def condition_graph(c: LoopCondition) -> DiGraph:
    """The assigned graph: variables as vertices, one edge (u_i, v_i) per
    argument position, deduplicated; loops are kept as ordinary edges.  It
    is built when c is, so every caller shares one graph."""
    return c.graph


def condition_from_graph(g: DiGraph, symbol: str = "t") -> LoopCondition:
    """The identity whose assigned graph is g (one position per edge).

    Every vertex must be incident to an edge, otherwise it could not occur
    in the identity at all.
    """
    if not g.edges:
        raise ValueError("graph has no edges; identities need arity >= 1")
    touched = {v for e in g.edges for v in e}
    if len(touched) != g.n:
        raise ValueError("graph has an isolated vertex; no identity assigns it")
    names = g.labels if g.labels is not None else tuple(f"v{i}" for i in range(g.n))
    edges = g.sorted_edges()
    lhs = tuple(names[a] for a, _ in edges)
    rhs = tuple(names[b] for _, b in edges)
    return LoopCondition(symbol, lhs, rhs)
