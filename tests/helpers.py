"""Independent brute-force oracles used to compute and freeze expected values.

These deliberately avoid the library's search/composition code paths: full
enumeration of maps, naive fixpoints, and dynamic programming over walks.
"""

import random
from dataclasses import dataclass
from itertools import combinations, permutations, product

from loopcond import (DiGraph, FiniteAlgebra, Gadget, Operation, Relation, Var,
                      find_embedding, generate_subpower)


def all_homomorphisms(g: DiGraph, h: DiGraph) -> list[tuple[int, ...]]:
    """Every edge-preserving total map g -> h, by enumerating all |h|^|g|."""
    homs = []
    for mapping in product(range(h.n), repeat=g.n):
        if all((mapping[a], mapping[b]) in h.edges for a, b in g.edges):
            homs.append(mapping)
    return homs


def hom_exists_brute(g: DiGraph, h: DiGraph) -> bool:
    return any(all((m[a], m[b]) in h.edges for a, b in g.edges)
               for m in product(range(h.n), repeat=g.n))


def cycle_hom_exists_brute(g: DiGraph, k: int) -> bool:
    """Whether g maps to the directed k-cycle, by enumerating the maps into
    Z_k that send vertex 0 to 0 and checking that every edge steps by +1.
    Rotating a homomorphism keeps it one, so fixing vertex 0 loses none,
    and only k^(n-1) maps are tried."""
    return any(all((m[b] - m[a] - 1) % k == 0 for a, b in g.edges)
               for rest in product(range(k), repeat=max(g.n - 1, 0))
               for m in [(0, *rest)])


def induced_brute(g: DiGraph, kept) -> DiGraph:
    """The subgraph of g induced on the vertices `kept`, in that order."""
    kept = list(kept)
    return DiGraph(len(kept), frozenset((i, j) for i, a in enumerate(kept)
                                        for j, b in enumerate(kept) if (a, b) in g.edges))


def smallest_retract_brute(g: DiGraph) -> DiGraph:
    """An induced subgraph g[S] with |S| least such that some map g -> g[S]
    fixing S preserves every edge; every such g[S] is a core of g.  Tries
    each S by size, and each map of the vertices outside S into S."""
    for k in range(min(g.n, 1), g.n + 1):
        for kept in combinations(range(g.n), k):
            others = [v for v in range(g.n) if v not in kept]
            for images in product(kept, repeat=len(others)):
                m = dict(zip(kept, kept))
                m.update(zip(others, images))
                if all((m[a], m[b]) in g.edges for a, b in g.edges):
                    return induced_brute(g, kept)
    raise AssertionError("the identity map is a retraction")


def embedding_exists_brute(g: DiGraph, h: DiGraph) -> bool:
    if g.n > h.n:
        return False
    return any(all((m[a], m[b]) in h.edges for a, b in g.edges)
               for m in permutations(range(h.n), g.n))


def affine_least_brute(m: int, c) -> tuple[int, ...] | None:
    """The coefficient vector of an affine witness over (Z_m, x+y-z) that is
    least when read from its last position back, or None: coefficients
    summing to 1 mod m such that each variable's left and right coefficients
    have equal sums mod m.  Enumerates all m^arity vectors in lexicographic
    order, each read reversed."""
    for cand in product(range(m), repeat=c.arity):
        cand = cand[::-1]
        if sum(cand) % m == 1 and all(
                (sum(x for x, u in zip(cand, c.lhs) if u == w)
                 - sum(x for x, v in zip(cand, c.rhs) if v == w)) % m == 0
                for w in c.variables):
            return cand
    return None


def evaluate_brute(gadget: Gadget, inputs: list[DiGraph]) -> Relation:
    """Gadget semantics by enumerating all |V|^|U| assignments."""
    universe = inputs[0].n
    tuples = set()
    for f in product(range(universe), repeat=gadget.vertex_count):
        if all((f[a], f[b]) in inputs[t].edges for t, a, b in gadget.typed_edges):
            tuples.add(tuple(f[u] for u in gadget.distinguished))
    return Relation(universe, len(gadget.distinguished), frozenset(tuples))


def least_witnesses_brute(gadget: Gadget, inputs: list[DiGraph]) -> dict:
    """For each output tuple of the gadget, its least full assignment in
    search order: distinguished vertices first (each once, in order of first
    occurrence), then the others ascending, values compared in that order.
    Enumerates all |V|^|U| value vectors over that order, lexicographically."""
    first = list(dict.fromkeys(gadget.distinguished))
    order = first + [v for v in range(gadget.vertex_count) if v not in first]
    least: dict[tuple[int, ...], tuple[int, ...]] = {}
    for values in product(range(inputs[0].n), repeat=gadget.vertex_count):
        f = [0] * gadget.vertex_count
        for v, x in zip(order, values):
            f[v] = x
        if all((f[a], f[b]) in inputs[t].edges for t, a, b in gadget.typed_edges):
            least.setdefault(tuple(f[u] for u in gadget.distinguished), tuple(f))
    return least


def pool_algebra(size: int, pool_seed: int) -> FiniteAlgebra:
    """A fixed random binary algebra, drawn like the benchmark's pool."""
    rng = random.Random(pool_seed)
    return FiniteAlgebra(size, (Operation("f", 2, tuple(rng.randrange(size)
                                                        for _ in range(size * size))),))


def random_algebra(rng: random.Random, max_size: int) -> FiniteAlgebra:
    """Universe of 2..max_size elements, one or two operations of arity 1-3,
    the second possibly 0-ary, with random tables."""
    size = rng.randint(2, max_size)
    ops = []
    for i in range(rng.randint(1, 2)):
        arity = rng.randint(0 if i else 1, 3)
        ops.append(Operation(f"f{i}", arity,
                             tuple(rng.randrange(size) for _ in range(size ** arity))))
    return FiniteAlgebra(size, tuple(ops))


def walk_pairs_brute(g: DiGraph, k: int) -> set[tuple[int, int]]:
    """Pairs joined by a directed walk of exactly k edges, stepwise."""
    current = {(v, v) for v in range(g.n)}
    for _ in range(k):
        current = {(a, c) for a, b in current for b2, c in g.edges if b2 == b}
    return current


def odd_girth_brute(g: DiGraph) -> int | None:
    """Shortest odd closed walk of a symmetric graph, scanning lengths."""
    for length in range(1, g.n + 1, 2):
        if any(a == b for a, b in walk_pairs_brute(g, length)):
            return length
    return None


def weakly_reachable_brute(g: DiGraph, s: int) -> set[int]:
    """The vertices joined to s by a path that ignores edge directions,
    by full passes over the edges until nothing new appears."""
    reached = {s}
    changed = True
    while changed:
        changed = False
        for a, b in g.edges:
            if (a in reached) != (b in reached):
                reached |= {a, b}
                changed = True
    return reached


def network_by_pairs(n: int, edges, targets: list[DiGraph]) -> tuple:
    """The constraint network of graph._network derived pair by pair, as it
    was before tables were shared by edge signature: one table list per
    ordered pair of variables, ANDed again for every further edge on it, a
    loop mask per unordered pair, and the arcs grouped by the tuple of each
    table.  Returns (domains, arcs, groups), each arc a (table tuple,
    neighbours) pair, so tables compare by value."""
    size = targets[0].n
    succ = [[sum(1 << y for y in range(size) if (x, y) in h.edges) for x in range(size)]
            for h in targets]
    pred = [[sum(1 << y for y in range(size) if (y, x) in h.edges) for x in range(size)]
            for h in targets]
    loops = [sum(1 << x for x in range(size) if (x, x) in h.edges) for h in targets]
    domains = [(1 << size) - 1] * n
    pair_tables: dict = {}
    pair_loops: dict = {}
    for t, a, b in edges:
        if a == b:
            domains[a] &= loops[t]
            continue
        pair = (min(a, b), max(a, b))
        pair_loops[pair] = pair_loops.get(pair, loops[t]) & loops[t]
        for key, rows in (((a, b), succ[t]), ((b, a), pred[t])):
            table = pair_tables.get(key)
            pair_tables[key] = list(rows) if table is None else \
                [x & y for x, y in zip(table, rows)]
    differ = [{b for (x, b) in pair_tables if x == a and not pair_loops[min(a, b), max(a, b)]}
              for a in range(n)]
    groups: list = []
    for a, b in combinations(range(n), 2):
        if b in differ[a]:
            members = [a, b]
            for c in range(n):
                if c not in members and all(c in differ[m] for m in members):
                    members.append(c)
            group = tuple(sorted(members))
            if len(group) >= 3 and group not in groups:
                groups.append(group)
    by_row: list[dict] = [{} for _ in range(n)]
    for (a, b), table in sorted(pair_tables.items()):
        by_row[a].setdefault(tuple(table), []).append(b)
    return domains, [list(row.items()) for row in by_row], groups


def subpower_brute(algebra, k: int, generators) -> set[tuple[int, ...]]:
    """Naive fixpoint closure: full passes until nothing new appears."""
    current = {tuple(g) for g in generators}
    changed = True
    while changed:
        changed = False
        snapshot = sorted(current)
        for op in algebra.operations:
            for args in product(snapshot, repeat=op.arity):
                out = tuple(algebra.apply(op, tuple(t[j] for t in args))
                            for j in range(k))
                if out not in current:
                    current.add(out)
                    changed = True
    return current


def term_value_brute(algebra, t, args: tuple[int, ...]) -> int:
    """A term's value at one row, walking it as a tree with FiniteAlgebra.apply."""
    if isinstance(t, Var):
        return args[t.index]
    return algebra.apply(algebra.operation(t.op),
                         tuple(term_value_brute(algebra, s, args) for s in t.args))


def term_eq_brute(s, t) -> bool:
    """Structural equality as a dataclass defines it, recursing over both
    terms as trees."""
    if type(s) is not type(t):
        return False
    if isinstance(s, Var):
        return s.index == t.index
    return s.op == t.op and len(s.args) == len(t.args) and \
        all(term_eq_brute(x, y) for x, y in zip(s.args, t.args))


def witness_holds_brute(algebra, c, t) -> bool:
    """t(lhs) = t(rhs) checked row by row over every assignment of c's variables."""
    for row in product(range(algebra.size), repeat=len(c.variables)):
        value = dict(zip(c.variables, row))
        if term_value_brute(algebra, t, tuple(value[u] for u in c.lhs)) != \
                term_value_brute(algebra, t, tuple(value[v] for v in c.rhs)):
            return False
    return True


def decide_by_subpower(algebra, c, cap: int) -> str | None:
    """The decision kind, "Satisfied" or "NotSatisfied", without rows refined.

    Closes the tuples proj_u ++ proj_v, one per position of c, in
    A^(2 * size^n) with generate_subpower; c holds iff some element's two
    halves are equal.  None if the cap is hit before such an element shows.
    generate_subpower refines no rows and interns no tables, and is itself
    checked against subpower_brute.
    """
    rows = list(product(range(algebra.size), repeat=len(c.variables)))
    proj = {v: tuple(row[j] for row in rows) for j, v in enumerate(c.variables)}
    res = generate_subpower(algebra, 2 * len(rows),
                            [proj[u] + proj[v] for u, v in zip(c.lhs, c.rhs)], cap=cap)
    if any(t[:len(rows)] == t[len(rows):] for t in res.relation.tuples):
        return "Satisfied"
    return "NotSatisfied" if res.complete else None


def isomorphic(g: DiGraph, h: DiGraph) -> bool:
    """Same size, same edge count, and an injective hom: a graph isomorphism."""
    return (g.n == h.n and len(g.edges) == len(h.edges)
            and find_embedding(g, h) is not None)


@dataclass
class EagerClosure:
    items: list
    provenance: dict
    complete: bool
    found: object


def close_eager(seeds, ops, cap: int, stop=None) -> EagerClosure:
    """The worklist closure that deduplicates every combination as it is
    generated: the reference the block closure algebra._close is compared
    against.  ops: (name, arity, fn), fn mapping an argument tuple of items
    to an item; a 0-ary op's value follows the seeds.  Enumerates each
    combination once, at the step of its newest item, and stops at the
    first new item `stop` accepts, or once more than `cap` items are found."""
    items: list = []
    prov: dict = {}

    def candidates():
        yield from seeds
        for name, arity, fn in ops:
            if arity == 0:
                yield fn(()), (name, ())
        t = 0
        while t < len(items):
            newest = items[t:t + 1]
            for name, arity, fn in ops:
                before, upto = (items[:t], items[:t + 1]) if arity > 1 else ((), ())
                for p in range(arity):
                    for args in product(*[before] * p, newest, *[upto] * (arity - 1 - p)):
                        yield fn(args), (name, args)
            t += 1

    for item, p in candidates():
        if item in prov:
            continue
        items.append(item)
        prov[item] = p
        if stop is not None and stop(item):
            return EagerClosure(items, prov, False, item)
        if len(items) > cap:
            return EagerClosure(items, prov, False, None)
    return EagerClosure(items, prov, True, None)


def close_pairs_eager(algebra, c, cap: int) -> EagerClosure:
    """The pair closure of c over all rows, by close_eager: seeds (proj_u,
    proj_v) for each edge in order of first occurrence, tagged ("pos",
    position), tables composed row by row with FiniteAlgebra.apply (each
    distinct argument tuple once), and stopped at the first equal pair."""
    rows = list(product(range(algebra.size), repeat=len(c.variables)))
    proj = {v: tuple(row[j] for row in rows) for j, v in enumerate(c.variables)}
    memo: dict = {}

    def table(op, args: tuple) -> tuple:
        if (op.name, args) not in memo:
            memo[op.name, args] = tuple(algebra.apply(op, tuple(col[r] for col in args))
                                        for r in range(len(rows)))
        return memo[op.name, args]

    def pairwise(op):
        return lambda args: tuple(table(op, tuple(pair[i] for pair in args)) for i in (0, 1))

    first: dict = {}
    for pos, edge in enumerate(zip(c.lhs, c.rhs)):
        first.setdefault(edge, pos)
    seeds = [((proj[u], proj[v]), ("pos", pos)) for (u, v), pos in first.items()]
    ops = [(op.name, op.arity, pairwise(op)) for op in algebra.operations]
    return close_eager(seeds, ops, cap, stop=lambda pair: pair[0] == pair[1])
