"""Finite directed graphs: structural predicates, homomorphism search, families.

Graphs are immutable; every operation here is a pure function of its inputs.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from math import gcd

from .errors import BudgetExceeded, NotSymmetric, NotWeaklyConnected

Edge = tuple[int, int]

#: Default node-expansion budget for backtracking searches.
DEFAULT_BUDGET = 10**7


@dataclass(frozen=True)
class DiGraph:
    """Directed graph on vertices 0..n-1 with optional vertex names."""

    n: int
    edges: frozenset[Edge]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for a, b in self.edges:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"edge ({a},{b}) out of range for n={self.n}")
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise ValueError("labels must name every vertex")
            if len(set(self.labels)) != self.n:
                raise ValueError("vertex labels must be distinct")

    @staticmethod
    def from_edges(n: int, edges, labels=None) -> "DiGraph":
        return DiGraph(n, frozenset((a, b) for a, b in edges),
                       tuple(labels) if labels is not None else None)

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


@dataclass(frozen=True)
class Homomorphism:
    """A vertex map source -> target claimed to preserve all edges."""

    source: DiGraph
    target: DiGraph
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.source.n:
            raise ValueError("mapping must be total on the source vertices")
        for v in self.mapping:
            if not 0 <= v < self.target.n:
                raise ValueError("mapping hits a vertex outside the target")

    def is_valid(self) -> bool:
        m = self.mapping
        return all((m[a], m[b]) in self.target.edges for a, b in self.source.edges)

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)


def has_loop(g: DiGraph) -> bool:
    return any(a == b for a, b in g.edges)


def symmetric_part(g: DiGraph) -> DiGraph:
    kept = frozenset(e for e in g.edges if (e[1], e[0]) in g.edges)
    return DiGraph(g.n, kept, g.labels)


def is_symmetric(g: DiGraph) -> bool:
    return all((b, a) in g.edges for a, b in g.edges)


def _undirected_adjacency(g: DiGraph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for a, b in sorted(g.edges):
        adj[a].append(b)
    return adj


def is_bipartite(g: DiGraph) -> bool:
    """2-colorability of a symmetric graph; a loop counts as an odd cycle."""
    if not is_symmetric(g):
        raise NotSymmetric("bipartiteness is defined for symmetric graphs only")
    if has_loop(g):
        return False
    adj = _undirected_adjacency(g)
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def odd_girth(g: DiGraph) -> int | None:
    """Length of a shortest odd cycle of a symmetric graph; None iff bipartite.

    A loop is an odd cycle of length 1.  Computed as the shortest odd closed
    walk via breadth-first search over (vertex, parity) states.
    """
    if not is_symmetric(g):
        raise NotSymmetric("odd girth is defined for symmetric graphs only")
    adj = _undirected_adjacency(g)
    best: int | None = None
    for s in range(g.n):
        dist = [[-1, -1] for _ in range(g.n)]
        dist[s][0] = 0
        queue = deque([(s, 0)])
        while queue:
            v, p = queue.popleft()
            d = dist[v][p]
            if best is not None and d + 1 >= best:
                continue
            for w in adj[v]:
                if dist[w][1 - p] == -1:
                    dist[w][1 - p] = d + 1
                    queue.append((w, 1 - p))
        if dist[s][1] != -1 and (best is None or dist[s][1] < best):
            best = dist[s][1]
    return best


def is_smooth(g: DiGraph) -> bool:
    """True iff every vertex has at least one incoming and one outgoing edge."""
    outdeg = [0] * g.n
    indeg = [0] * g.n
    for a, b in g.edges:
        outdeg[a] += 1
        indeg[b] += 1
    return all(outdeg[v] >= 1 and indeg[v] >= 1 for v in range(g.n))


def is_weakly_connected(g: DiGraph) -> bool:
    if g.n <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    return all(seen)


def algebraic_length(g: DiGraph) -> int:
    """gcd of closed-walk discrepancies (forward steps minus backward steps).

    Computed by spanning-tree potentials: traversing an edge forward costs +1,
    backward -1; each edge (a, b) then contributes |pot[a] + 1 - pot[b]|.
    A homomorphism g -> directed k-cycle exists iff k divides the result,
    where every k divides 0.
    """
    if g.n == 0 or not g.edges:
        raise NotWeaklyConnected("algebraic length needs at least one edge")
    und: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for a, b in g.edges:
        und[a].append((b, 1))
        if a != b:
            und[b].append((a, -1))
    pot: list[int | None] = [None] * g.n
    pot[0] = 0
    stack = [0]
    while stack:
        v = stack.pop()
        for w, step in und[v]:
            if pot[w] is None:
                pot[w] = pot[v] + step
                stack.append(w)
    if any(p is None for p in pot):
        raise NotWeaklyConnected("graph is not weakly connected")
    d = 0
    for a, b in g.edges:
        d = gcd(d, abs(pot[a] + 1 - pot[b]))
    return d


def _network(n: int, edges, targets: list[DiGraph]) -> tuple[list[int], list[list]]:
    """Domains and arcs for the maps 0..n-1 -> V that send every typed edge
    (t, a, b) to an edge of targets[t]; the targets share the vertex set V.

    Domains are bitmasks over V.  A loop (t, a, a) restricts a's domain to
    the loops of targets[t].  Every other edge gives an arc each way, and
    arcs[v] holds (table, cache, neighbours): when v takes value x, each
    neighbour may only take values in table[x].  Edges on the same ordered
    pair share one table, and pairs with equal tables share one group, so
    the union cache serves a whole slot for the length of one search.
    """
    size = targets[0].n
    succ = [[0] * size for _ in targets]
    pred = [[0] * size for _ in targets]
    for t, h in enumerate(targets):
        for a, b in h.edges:
            succ[t][a] |= 1 << b
            pred[t][b] |= 1 << a
    domains = [(1 << size) - 1] * n
    pair_tables: dict[Edge, list[int]] = {}
    for t, a, b in edges:
        if a == b:
            domains[a] &= sum(1 << x for x in range(size) if succ[t][x] >> x & 1)
            continue
        for key, rows in (((a, b), succ[t]), ((b, a), pred[t])):
            table = pair_tables.get(key)
            pair_tables[key] = list(rows) if table is None else \
                [x & y for x, y in zip(table, rows)]
    groups: list[dict[tuple[int, ...], list[int]]] = [{} for _ in range(n)]
    for (a, b), table in sorted(pair_tables.items()):
        groups[a].setdefault(tuple(table), []).append(b)
    caches: dict[tuple[int, ...], dict[int, int]] = {}
    arcs = [[(table, caches.setdefault(table, {}), nbrs) for table, nbrs in g.items()]
            for g in groups]
    return domains, arcs


def _arc_search(domains: list[int], arcs: list[list], order: list[int], budget: int,
                *, distinct: bool = False, project: int = 0):
    """Yield solutions of a binary constraint network, depth first.

    The search core behind find_hom, find_embedding, ppdef.evaluate and
    ppdef.witness.  Variables are assigned in `order`, values in ascending order, and
    each value tried counts one expansion against `budget`.  Arc consistency
    is maintained after every assignment; with `distinct`, a variable fixed
    to a value also removes it from every other domain.  Both remove only
    values that extend to no solution, so the first solution yielded is the
    least in that order.  The search yields one solution for each
    assignment of the first `project` variables in `order` that extends to
    one: after a solution it backtracks to variable project - 1.
    The search is iterative (an explicit stack and an undo trail), so its
    depth is not bounded by the Python recursion limit.
    """
    n = len(order)
    dom = list(domains)
    trail: list[tuple[int, int]] = []

    def undo(mark: int) -> None:
        while len(trail) > mark:
            v, d = trail.pop()
            dom[v] = d

    def propagate(queue: list[int]) -> bool:
        while queue:
            v = queue.pop()
            dv = dom[v]
            for table, cache, nbrs in arcs[v]:
                s = cache.get(dv)
                if s is None:
                    s, m = 0, dv
                    while m:
                        low = m & -m
                        s |= table[low.bit_length() - 1]
                        m ^= low
                    cache[dv] = s
                for u in nbrs:
                    du = dom[u]
                    if du & s != du:
                        if not du & s:
                            return False
                        trail.append((u, du))
                        dom[u] = du & s
                        queue.append(u)
            if distinct and not dv & (dv - 1):
                for u, du in enumerate(dom):
                    if du & dv and u != v:
                        if du == dv:
                            return False
                        trail.append((u, du))
                        dom[u] = du ^ dv
                        queue.append(u)
        return True

    if not all(dom) or not propagate(list(range(len(dom)))):
        return
    if n == 0:
        yield ()
        return
    candidates = [0] * n
    marks = [0] * n
    candidates[0] = dom[order[0]]
    expansions = 0
    depth = 0
    while depth >= 0:
        c = candidates[depth]
        if not c:
            depth -= 1
            if depth >= 0:
                undo(marks[depth])
            continue
        low = c & -c
        candidates[depth] = c ^ low
        expansions += 1
        if expansions > budget:
            raise BudgetExceeded(expansions)
        v = order[depth]
        marks[depth] = len(trail)
        if dom[v] != low:
            trail.append((v, dom[v]))
            dom[v] = low
            if not propagate([v]):
                undo(marks[depth])
                continue
        depth += 1
        if depth < n:
            candidates[depth] = dom[order[depth]]
            continue
        yield tuple(d.bit_length() - 1 for d in dom)
        depth = project - 1
        if depth >= 0:
            undo(marks[depth])


def _checked_hom(g: DiGraph, h: DiGraph, budget: int,
                injective: bool) -> Homomorphism | None:
    domains, arcs = _network(g.n, ((0, a, b) for a, b in g.edges), [h])
    mapping = next(_arc_search(domains, arcs, list(range(g.n)), budget,
                               distinct=injective), None)
    if mapping is None:
        return None
    hom = Homomorphism(g, h, mapping)
    if not hom.is_valid() or (injective and not hom.is_injective()):
        raise AssertionError("search returned a map that is not a witness")
    return hom


def find_hom(g: DiGraph, h: DiGraph, *,
             budget: int = DEFAULT_BUDGET) -> Homomorphism | None:
    """Find a graph homomorphism g -> h, or None if none exists.

    Deterministic: the search assigns g's vertices in index order, tries
    h's vertices in ascending order and maintains arc consistency, so the
    witness returned is the lexicographically least one.  The witness is
    re-checked edge by edge before it is returned.  Raises BudgetExceeded
    when the node-expansion budget runs out before an answer is known.
    """
    return _checked_hom(g, h, budget, False)


def find_embedding(g: DiGraph, h: DiGraph, *,
                   budget: int = DEFAULT_BUDGET) -> Homomorphism | None:
    """Like find_hom but the witness must be injective (a subgraph copy)."""
    if g.n > h.n:
        return None
    return _checked_hom(g, h, budget, True)


def cycle(n: int) -> DiGraph:
    """Symmetric n-cycle; cycle(1) is a loop, cycle(2) a symmetric edge."""
    if n < 1:
        raise ValueError("cycle needs n >= 1")
    edges = set()
    for i in range(n):
        edges.add((i, (i + 1) % n))
        edges.add(((i + 1) % n, i))
    return DiGraph(n, frozenset(edges))


def clique(n: int) -> DiGraph:
    """Loopless complete symmetric graph on n vertices."""
    if n < 1:
        raise ValueError("clique needs n >= 1")
    return DiGraph(n, frozenset((i, j) for i in range(n) for j in range(n) if i != j))


def directed_cycle(n: int) -> DiGraph:
    if n < 1:
        raise ValueError("directed_cycle needs n >= 1")
    return DiGraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> DiGraph:
    """Symmetric path on n vertices (n - 1 unoriented edges)."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    edges = set()
    for i in range(n - 1):
        edges.add((i, i + 1))
        edges.add((i + 1, i))
    return DiGraph(n, frozenset(edges))


def petersen() -> DiGraph:
    """The Petersen graph: outer 5-cycle 0-4, inner pentagram 5-9, spokes."""
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    pairs += [(i, i + 5) for i in range(5)]
    edges = set()
    for a, b in pairs:
        edges.add((a, b))
        edges.add((b, a))
    return DiGraph(10, frozenset(edges))


def to_dot(g: DiGraph) -> str:
    """DOT text; symmetric graphs render undirected with one `--` per pair."""
    lines = []
    touched = {v for e in g.edges for v in e}
    isolated = [f'  "{g.label(v)}";' for v in range(g.n) if v not in touched]
    if is_symmetric(g):
        lines.append("graph {")
        lines.extend(isolated)
        for a, b in g.sorted_edges():
            if a <= b:
                lines.append(f'  "{g.label(a)}" -- "{g.label(b)}";')
    else:
        lines.append("digraph {")
        lines.extend(isolated)
        for a, b in g.sorted_edges():
            lines.append(f'  "{g.label(a)}" -> "{g.label(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json_dict(g: DiGraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]}


def graph_to_json(g: DiGraph) -> str:
    return json.dumps(graph_to_json_dict(g), sort_keys=True)


def graph_from_json(text: str) -> DiGraph:
    data = json.loads(text)
    return DiGraph.from_edges(int(data["n"]), [tuple(e) for e in data["edges"]])
