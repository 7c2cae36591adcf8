"""Finite directed graphs: structural predicates, homomorphism search, families.

Graphs are immutable; every operation here is a pure function of its inputs.
"""

from __future__ import annotations

import json
from functools import cached_property, reduce
from itertools import chain
from math import gcd
from operator import and_

from .errors import (BudgetExceeded, GraphFormatError, NotSymmetric, NotWeaklyConnected,
                     _Value)

Edge = tuple[int, int]

#: Default node-expansion budget for backtracking searches.
DEFAULT_BUDGET = 10**7


def _fits(rows, width: int, n: int) -> bool:
    """Whether every row has `width` entries, each in range(n), decided at
    C speed from the set of row lengths and the set of values.  False also
    where deciding raises TypeError, so that a caller's own loop over the
    rows raises for the first bad row as it would alone."""
    try:
        return set(map(len, rows)) <= {width} and \
            all(map(range(n).__contains__, set(chain.from_iterable(rows))))
    except TypeError:
        return False


class DiGraph(_Value):
    """Directed graph on vertices 0..n-1 with optional vertex names."""

    n: int
    edges: frozenset[Edge]
    labels: tuple[str, ...] | None = None

    def _check(self):
        """Rejects a negative vertex count, an edge with an endpoint outside
        range(n) (naming the first such edge in iteration order) and labels
        that are not n distinct names.  The edges are checked at C speed
        (_fits); only a failed check walks them to name the edge."""
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if not _fits(self.edges, 2, self.n):
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

    @cached_property
    def _masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Every vertex's out-neighbours and in-neighbours as bitmasks."""
        outs, ins = [0] * self.n, [0] * self.n
        for a, b in self.edges:
            outs[a] |= 1 << b
            ins[b] |= 1 << a
        return tuple(outs), tuple(ins)


class Homomorphism(_Value):
    """A vertex map source -> target claimed to preserve all edges."""

    __slots__ = ("source", "target", "mapping")
    source: DiGraph
    target: DiGraph
    mapping: tuple[int, ...]

    def _check(self):
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


def _potentials(n: int, edges) -> tuple[list[int], list[int]]:
    """Potentials of the vertices 0..n-1 of the graph with these edges, and
    each vertex's weak component root, the component's least vertex: a root
    has potential 0, and a spanning tree walked from it adds 1 along an edge
    and subtracts 1 against one."""
    steps: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b in edges:
        steps[a].append((b, 1))
        steps[b].append((a, -1))
    pot: list = [None] * n
    root = list(range(n))
    for s in range(n):
        if pot[s] is not None:
            continue
        pot[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w, step in steps[v]:
                if pot[w] is None:
                    pot[w], root[w] = pot[v] + step, s
                    stack.append(w)
    return pot, root


def is_bipartite(g: DiGraph) -> bool:
    """2-colorability of a symmetric graph; a loop counts as an odd cycle."""
    if not is_symmetric(g):
        raise NotSymmetric("bipartiteness is defined for symmetric graphs only")
    return _two_colouring(g) is not None


def _two_colouring(g: DiGraph) -> list[int] | None:
    """A proper 0/1 colouring of a symmetric graph, each component's least
    vertex coloured 0, or None if it has an odd cycle (a loop is one): the
    potentials' parities, unless an edge joins two of equal parity."""
    pot, _ = _potentials(g.n, g.edges)
    if any((pot[a] - pot[b]) % 2 == 0 for a, b in g.edges):
        return None
    return [p % 2 for p in pot]


def odd_girth(g: DiGraph) -> int | None:
    """Length of a shortest odd cycle of a symmetric graph; None iff bipartite.

    A loop is an odd cycle of length 1.  Read off the walk rows (_walks):
    the least odd k at which some row v holds bit v, as a shortest odd
    closed walk is a cycle.  The stop rests on symmetry: a walk can step
    back and forth along its last edge, so from k to k + 2 the rows only
    grow, and the rows at k + 2 are those at k stepped twice.  Once two
    consecutive odd rows agree they stay fixed, so if they hold no loop the
    graph is bipartite.  A component of diameter d fixes its odd rows once
    k reaches d when it is bipartite, and has an odd cycle of length at
    most 2d + 1 otherwise, so the walk takes at most about twice the
    diameter in steps.
    """
    if not is_symmetric(g):
        raise NotSymmetric("odd girth is defined for symmetric graphs only")
    walks = _walks(g)
    rows, k = next(walks), 1
    while True:
        for v, row in enumerate(rows):
            if row >> v & 1:
                return k
        next(walks)
        later = next(walks)
        if later == rows:
            return None
        rows, k = later, k + 2


def is_smooth(g: DiGraph) -> bool:
    """True iff every vertex has at least one incoming and one outgoing edge."""
    outs, ins = g._masks
    return all(outs) and all(ins)


def is_weakly_connected(g: DiGraph) -> bool:
    return len(set(_potentials(g.n, g.edges)[1])) <= 1


def algebraic_length(g: DiGraph) -> int:
    """gcd of closed-walk discrepancies (forward steps minus backward steps).

    Computed by spanning-tree potentials (_potentials): each edge (a, b)
    contributes |pot[a] + 1 - pot[b]|.  A homomorphism g -> directed k-cycle
    exists iff k divides the result, where every k divides 0.
    """
    if g.n == 0 or not g.edges:
        raise NotWeaklyConnected("algebraic length needs at least one edge")
    pot, root = _potentials(g.n, g.edges)
    if len(set(root)) > 1:
        raise NotWeaklyConnected("graph is not weakly connected")
    d = 0
    for a, b in g.edges:
        d = gcd(d, abs(pot[a] + 1 - pot[b]))
    return d


def _bits(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _walks(g: DiGraph):
    """The rows of g's walk relations after 1, 2, 3, ... steps: row v is the
    bitmask of the vertices that walks of exactly k edges from v reach.

    The rows after one step are the out-masks (DiGraph._masks), and each
    further step sets row v to the OR of the previous rows of v's
    out-neighbours.  That is |E| ORs of n-bit integers per step, with two
    lists of n rows alive at a time; each list yielded is a new one.
    """
    rows = list(g._masks[0])
    succ = [list(_bits(m)) for m in rows]
    while True:
        yield rows
        prev, rows = rows, []
        for out in succ:
            row = 0
            for w in out:
                row |= prev[w]
            rows.append(row)


def _network(n: int, edges, targets: list[DiGraph]) -> tuple[list[int], tuple]:
    """Domains and constraints (arcs, groups) for the maps 0..n-1 -> V that
    send every typed edge (t, a, b) to an edge of targets[t]; the targets
    share the vertex set V.

    Domains are bitmasks over V.  Slot t has two mask rows, its target's
    out-rows rows[2t] and in-rows rows[2t + 1], and both have the target's
    loops as loop mask.  A loop (t, a, a) restricts a's domain to those
    loops.  Every other edge adds slot t's out-rows to the signature of the
    ordered pair (a, b) and its in-rows to that of (b, a), a signature
    being a bitmask of row indices.  Each distinct signature's table is
    built once, as the AND of its rows: when v takes value x, a neighbour
    on a pair with that signature may only take values in table[x].
    arcs[v] holds (table, cache, neighbours), one arc per table value over
    v's pairs in order, and equal tables share one union cache, so a cache
    serves a whole slot for the length of one search.

    Two variables take different values when their tables keep no value
    (no x with x in table[x]).  That holds exactly when the AND of the loop
    masks of the rows in their signature is 0.  Each such pair a < b grows
    one group of pairwise different variables: from {a, b}, every further
    variable in index order joins when it differs from all members so far.
    The distinct groups of at least three variables are kept as tuples, in
    order of discovery.  One group per pair keeps the derivation
    polynomial, where the maximal cliques of variables can be exponentially
    many (K_{2x20} has 2^20 of them).
    """
    rows = [r for h in targets for r in h._masks]
    loops = [sum(1 << x for x, nbrs in enumerate(r) if nbrs >> x & 1) for r in rows]
    domains = [(1 << targets[0].n) - 1] * n
    signature: dict[Edge, int] = {}
    for t, a, b in edges:
        if a == b:
            domains[a] &= loops[2 * t]
            continue
        signature[a, b] = signature.get((a, b), 0) | 1 << 2 * t
        signature[b, a] = signature.get((b, a), 0) | 2 << 2 * t
    # signature -> (index of its table among the distinct table values, loops kept)
    known: dict[int, tuple[int, int]] = {}
    tables: dict[tuple[int, ...], int] = {}
    differ = [0] * n
    by_row: list[dict[int, list[int]]] = [{} for _ in range(n)]
    for (a, b), sig in sorted(signature.items()):
        if sig not in known:
            table = reduce(lambda t, r: tuple(map(and_, t, r)), [rows[i] for i in _bits(sig)])
            known[sig] = (tables.setdefault(table, len(tables)),
                          reduce(and_, [loops[i] for i in _bits(sig)]))
        k, kept = known[sig]
        differ[a] |= (not kept) << b
        by_row[a].setdefault(k, []).append(b)
    found: dict[int, None] = {}
    for a in range(n):
        for b in _bits(differ[a] >> a + 1 << a + 1):
            members = 1 << a | 1 << b
            for c in _bits(differ[a] & differ[b]):
                if not members & ~differ[c]:
                    members |= 1 << c
            if members.bit_count() >= 3:
                found[members] = None
    groups = [tuple(v for v in range(n) if members >> v & 1) for members in found]
    values, caches = list(tables), [{} for _ in tables]
    arcs = [[(values[k], caches[k], nbrs) for k, nbrs in g.items()] for g in by_row]
    return domains, (arcs, groups)


def _arc_search(domains: list[int], constraints: tuple, order: list[int], budget: int,
                *, project: int = 0):
    """Yield solutions of a binary constraint network, depth first.

    The search core behind find_hom, find_embedding, ppdef.evaluate and
    ppdef.witness; `constraints` is the (arcs, groups) pair of _network.
    Variables are assigned in `order`, values in ascending order, and each
    value tried counts one expansion against `budget`.  Arc consistency is
    maintained after every assignment, and at every fixpoint, the first one
    before any expansion included, each group of pairwise different
    variables is counted: when its domains together hold fewer values than
    it has variables, the state is a dead end.  Both remove only values
    that extend to no solution, so the first solution yielded is the least
    in that order.  Every constraint, "pairwise different" included, is an
    arc or a group of the network, not an option of the search.  The search
    yields one solution for each assignment of the first `project`
    variables in `order` that extends to one: after a solution it
    backtracks to variable project - 1.  The search is iterative (an
    explicit stack and an undo trail), so its depth is not bounded by the
    Python recursion limit.  The trail is flat, a variable and its old
    domain per change, so a search that never backtracks keeps two list
    slots per change and no tuple.
    """
    arcs, groups = constraints
    n = len(order)
    dom = list(domains)
    trail: list[int] = []

    def undo(mark: int) -> None:
        while len(trail) > mark:
            d = trail.pop()
            dom[trail.pop()] = d

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
                        trail.append(u)
                        trail.append(du)
                        dom[u] = du & s
                        queue.append(u)
        for group in groups:
            values = 0
            for v in group:
                values |= dom[v]
            if values.bit_count() < len(group):
                return False
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
            trail.append(v)
            trail.append(dom[v])
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
    edges = [(0, a, b) for a, b in g.edges]
    targets = [h]
    if injective and h.n:  # clique(0) raises, and an empty h empties every domain
        edges += [(1, a, b) for a in range(g.n) for b in range(g.n) if a != b]
        targets.append(clique(h.n))
    domains, constraints = _network(g.n, edges, targets)
    mapping = next(_arc_search(domains, constraints, list(range(g.n)), budget), None)
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
    """Like find_hom but the witness must be injective (a subgraph copy): a
    second slot joins every two vertices of g and targets the clique on h's
    vertices, so g's vertices form one group of pairwise different
    variables, and counting refutes a g larger than h before the search."""
    return _checked_hom(g, h, budget, True)


def _induced(g: DiGraph, kept: list[int]) -> DiGraph:
    """The subgraph of g induced on the ascending vertices `kept`: vertex i
    stands for kept[i] and bears g's name for it."""
    index = {v: i for i, v in enumerate(kept)}
    return DiGraph(len(kept), frozenset((index[a], index[b]) for a, b in g.edges
                                        if a in index and b in index),
                   tuple(g.label(v) for v in kept))


def _retraction(g: DiGraph, kept: list[int], image: list[int]) -> Homomorphism:
    """The map v -> image[v] of g onto its subgraph induced on `kept`,
    checked to be a homomorphism that fixes every kept vertex."""
    index = {v: i for i, v in enumerate(kept)}
    hom = Homomorphism(g, _induced(g, kept), tuple(index[x] for x in image))
    if not hom.is_valid() or any(image[v] != v for v in kept):
        raise AssertionError("core step produced a map that is not a retraction")
    return hom


def core(g: DiGraph) -> Homomorphism:
    """A retraction of g onto a core C of g.

    C, the returned map's target, is the subgraph of g induced on some of
    its vertices (ascending, named by g's names for them) that has no
    homomorphism to a proper subgraph of itself; the map fixes every vertex
    of C.  The core is unique up to isomorphism (Hell and Nesetril, 1992),
    and g and C map to each other, so both satisfy the same loop
    conditions.

    Vertices are tried in ascending order, and v is removed when find_hom(C,
    C - v) finds a map; the maps compose into g -> C.  A vertex kept once
    stays kept, since the earlier C maps onto every later one.  Shortcuts
    answer without a search where graph theory decides:

    - a graph with a loop retracts onto its least looped vertex;
    - a symmetric loopless bipartite graph with an edge retracts onto its
      least edge, through a 2-colouring;
    - u is dominated by a later vertex v when its out- and in-neighbours
      among the vertices not yet folded are among v's (twins when equal).
      Taken downwards, u folds onto the image w of the last such v, which
      dominates u too, by transitivity; an edge between u and w would put
      a loop at w, so u -> w keeps every edge and the folds compose into a
      retraction.  The kept vertices are the same: when the search reaches
      u, the folds of later vertices and then u's map C into C - u, and a
      map C -> C - x, x kept, exists iff one exists after the folds;
    - the kept vertices, after the fold, form a core when every two are
      adjacent, as a map to fewer vertices merges two of them;
    - on a symmetric graph with odd girth k, v stays when C - v is
      bipartite or has odd girth above k (always so when C has at most k
      vertices, so odd cycles are cores at once), since a map sends a
      k-cycle to an odd closed walk of length k.

    Raises BudgetExceeded when one of the searches runs out of budget.
    """
    loops = sorted(a for a, b in g.edges if a == b)
    if loops:
        return _retraction(g, loops[:1], loops[:1] * g.n)
    symmetric = is_symmetric(g)
    colour = _two_colouring(g) if symmetric else None
    if colour is not None and g.edges:
        a, b = min(g.edges)
        ends = (a, b) if colour[a] == 0 else (b, a)
        return _retraction(g, sorted((a, b)), [ends[x] for x in colour])
    outs, ins = g._masks
    image, mask = list(range(g.n)), (1 << g.n) - 1
    for u in reversed(range(g.n)):
        image[u] = next((image[v] for v in reversed(range(u + 1, g.n))
                         if not (outs[u] & ~outs[v] | ins[u] & ~ins[v]) & mask), u)
        mask ^= (image[u] != u) << u
    kept = [v for v in range(g.n) if image[v] == v]
    if all((outs[v] | ins[v] | 1 << v) & mask == mask for v in kept):
        return _retraction(g, kept, image)
    girth = odd_girth(g) if symmetric else None
    for v in kept.copy():
        rest = [u for u in kept if u != v]
        if girth is not None:
            if len(rest) < girth:
                break
            rest_girth = odd_girth(_induced(g, rest))
            if rest_girth is None or rest_girth > girth:
                continue
        hom = find_hom(_induced(g, kept), _induced(g, rest))
        if hom is not None:
            position = {u: i for i, u in enumerate(kept)}
            image = [rest[hom.mapping[position[x]]] for x in image]
            kept = rest
    # the map g -> C restricted to the core C is an automorphism, whose
    # inverse turns the map into a retraction
    inverse = {image[v]: v for v in kept}
    if len(inverse) != len(kept):
        raise AssertionError("a core's endomorphism is not onto")
    return _retraction(g, kept, [inverse[x] for x in image])


def _undirected(n: int, pairs) -> DiGraph:
    """The symmetric graph on n vertices with both arcs of every pair.  The
    arcs pass through a set: a frozenset built from a set is sized from its
    count at once, while one filled from a generator grows as it fills and
    may end with a table twice as large."""
    return DiGraph(n, frozenset({e for a, b in pairs for e in ((a, b), (b, a))}))


def cycle(n: int) -> DiGraph:
    """Symmetric n-cycle; cycle(1) is a loop, cycle(2) a symmetric edge."""
    if n < 1:
        raise ValueError("cycle needs n >= 1")
    return _undirected(n, [(i, (i + 1) % n) for i in range(n)])


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
    return _undirected(n, [(i, i + 1) for i in range(n - 1)])


def petersen() -> DiGraph:
    """The Petersen graph: outer 5-cycle 0-4, inner pentagram 5-9, spokes."""
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    pairs += [(i, i + 5) for i in range(5)]
    return _undirected(10, pairs)


def to_dot(g: DiGraph) -> str:
    """DOT text: the isolated vertices, then the sorted edges; symmetric
    graphs render undirected with one `--` per pair (a <= b)."""
    symmetric = is_symmetric(g)
    touched = {v for e in g.edges for v in e}
    arrow = "--" if symmetric else "->"
    lines = ["graph {" if symmetric else "digraph {"]
    lines += [f'  "{g.label(v)}";' for v in range(g.n) if v not in touched]
    lines += [f'  "{g.label(a)}" {arrow} "{g.label(b)}";'
              for a, b in g.sorted_edges() if a <= b or not symmetric]
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json_dict(g: DiGraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]}


def graph_to_json(g: DiGraph) -> str:
    return json.dumps(graph_to_json_dict(g), sort_keys=True)


def _field(obj, key: str, kind: type):
    """obj[key], if obj is a JSON object and type(value) is kind (bool is not int)."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if type(value) is not kind:
        raise ValueError(f"expected an object with {kind.__name__} {key!r}")
    return value


def _ints(value, length: int | None = None) -> tuple[int, ...]:
    """value as a tuple, if it is a JSON list of ints (bool is not int) of the
    given length."""
    if type(value) is not list or any(type(x) is not int for x in value) \
            or length is not None and len(value) != length:
        raise ValueError("expected a list of "
                         + ("ints" if length is None else f"{length} ints"))
    return tuple(value)


def _decode(text: str, build, error: type[Exception], name: str):
    """build(json.loads(text)) for a file format.  A ValueError from either
    step, and the RecursionError of JSON nested too deeply for the decoder,
    become error(f"bad {name} JSON: ...")."""
    try:
        return build(json.loads(text))
    except (RecursionError, ValueError) as exc:
        raise error(f"bad {name} JSON: {exc}") from None


def graph_from_json(text: str) -> DiGraph:
    """Read the graph JSON format strictly: an object with int `n` and a
    list `edges` of [a, b] int pairs in range(n).  Raises GraphFormatError
    for anything else."""
    return _decode(text, lambda data: DiGraph.from_edges(
        _field(data, "n", int), [_ints(e, 2) for e in _field(data, "edges", list)]),
        GraphFormatError, "graph")
