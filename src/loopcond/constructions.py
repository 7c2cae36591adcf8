"""Gadget constructions behind the cycle and clique reductions, verified by
brute force on small instances, with machine-checkable reports."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, product

from .errors import NotSymmetric, SizeCap
from .graph import DiGraph, clique, cycle, find_hom, has_loop, is_symmetric
from .ppdef import Gadget, Relation, evaluate, pp_power, relation_to_graph, witness


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: object = None


@dataclass(frozen=True)
class Report:
    checks: tuple[Check, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        out = []
        for c in self.checks:
            entry: dict = {"name": c.name, "pass": c.passed}
            if c.witness is not None:
                entry["witness"] = c.witness
            out.append(entry)
        return {"checks": out, "all_pass": self.all_pass}


def report_to_json(r: Report) -> str:
    return json.dumps(r.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# walks

def walk_relation(g: DiGraph, k: int) -> DiGraph:
    """Edge (x, y) iff g has a directed walk of exactly k edges from x to y.

    Computed as k-fold relational composition of the edge set.
    """
    if k < 1:
        raise ValueError("walk length must be positive")
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for a, b in g.edges:
        adj[a].append(b)
    edges = set()
    for start in range(g.n):
        frontier = {start}
        for _ in range(k):
            frontier = {b for v in frontier for b in adj[v]}
        edges.update((start, b) for b in frontier)
    return DiGraph(g.n, frozenset(edges), g.labels)


def walk_gadget(k: int) -> Gadget:
    """Path of k edges with the endpoints distinguished; the pp-form of
    walk_relation, kept separate so the two routes can be cross-checked."""
    if k < 1:
        raise ValueError("walk length must be positive")
    edges = tuple((0, i, i + 1) for i in range(k))
    return Gadget(k + 1, edges, (0, k), 1)


# ---------------------------------------------------------------------------
# the 4-ary relation R, its diagonal F, and the pair-level graph Q

def clique_r_gadget(n: int) -> Gadget:
    """Pattern for R(u,v,x,y): witnesses x_1..x_{n-2} pairwise linked and
    linked to x, y, v, w, plus edges u->w, w->x, v->y."""
    if n < 3:
        raise ValueError("clique constructions need n >= 3")
    u, v, x, y = 0, 1, 2, 3
    mids = list(range(4, 4 + n - 2))
    w = n + 2
    edges: list[tuple[int, int, int]] = []

    def link(a: int, b: int) -> None:
        edges.append((0, a, b))
        edges.append((0, b, a))

    for a, b in combinations(mids, 2):
        link(a, b)
    for a in mids:
        for b in (x, y, v, w):
            link(a, b)
    edges.append((0, u, w))
    edges.append((0, w, x))
    edges.append((0, v, y))
    return Gadget(n + 3, tuple(edges), (u, v, x, y), 1)


def _append_copy(edges: list[tuple[int, int, int]], gadget: Gadget,
                 attach: tuple[int, ...], next_free: int) -> int:
    """Append the gadget's typed edges to `edges`, with its distinguished
    vertices relabelled to `attach` and every other vertex, in ascending
    order, to a fresh vertex numbered from next_free.  Returns the next
    free vertex number."""
    label = dict(zip(gadget.distinguished, attach))
    for v in range(gadget.vertex_count):
        if v not in label:
            label[v] = next_free
            next_free += 1
    edges.extend((t, label[a], label[b]) for t, a, b in gadget.typed_edges)
    return next_free


def clique_s_gadget(n: int) -> Gadget:
    """Pattern for S(u1,u2,v1,v2): witnesses x_1..x_{n+1} pairwise related by
    the second input (except the pairs {1,2} and {3,4}) with two copies of
    the R pattern wired to (u1,v1,x1,x2) and (u2,v2,x3,x4)."""
    r = clique_r_gadget(n)
    u1, u2, v1, v2 = 0, 1, 2, 3
    xs = list(range(4, 4 + n + 1))
    edges: list[tuple[int, int, int]] = []
    next_free = _append_copy(edges, r, (u1, v1, xs[0], xs[1]), 4 + n + 1)
    next_free = _append_copy(edges, r, (u2, v2, xs[2], xs[3]), next_free)
    for i, j in combinations(range(n + 1), 2):
        if {i, j} in ({0, 1}, {2, 3}):
            continue
        edges.append((1, xs[i], xs[j]))
        edges.append((1, xs[j], xs[i]))
    return Gadget(next_free, tuple(edges), (u1, u2, v1, v2), 2)


def _require_symmetric(g: DiGraph) -> None:
    if not is_symmetric(g):
        raise NotSymmetric("clique constructions expect a symmetric graph; "
                           "apply symmetric_part first")


def clique_R(g: DiGraph, n: int) -> Relation:
    """The 4-ary relation R evaluated over a symmetric graph."""
    _require_symmetric(g)
    return evaluate(clique_r_gadget(n), [g])


def clique_F(g: DiGraph, n: int) -> DiGraph:
    """F(x, y) iff R(u, u, x, y) for some u: diagonalize and project R."""
    r = clique_R(g, n)
    edges = frozenset((x, y) for u, v, x, y in r.tuples if u == v)
    return DiGraph(g.n, edges, g.labels)


def clique_Q(g: DiGraph, n: int) -> DiGraph:
    """The pair-level graph Q on universe |V|^2, with (a, b) coded a*|V|+b.

    Built by evaluating the S pattern over the base graph and the computed F,
    then regrouping the 4-ary result (u1,u2,v1,v2) as a binary relation on
    pairs.
    """
    _require_symmetric(g)
    f = clique_F(g, n)
    s = evaluate(clique_s_gadget(n), [g, f])
    return relation_to_graph(pp_power(s, 2))


# ---------------------------------------------------------------------------
# verification reports

def verify_cycle_reduction(k: int, *, size_cap: int = 2500) -> Report:
    """Check the two graph facts behind shrinking an odd-cycle condition:
    the k^2-cycle maps onto the (k+2)-cycle, and the k-step walk relation of
    the k^2-cycle contains a k-cycle on the vertices 0, k, 2k, ... (and is
    loopless)."""
    if k < 3 or k % 2 == 0:
        raise ValueError("cycle reduction needs odd k >= 3")
    if k * k > size_cap:
        raise SizeCap(f"k^2 = {k * k} exceeds the size cap {size_cap}")
    big = cycle(k * k)
    target = cycle(k + 2)
    hom = find_hom(big, target)
    checks = [Check("square_cycle_maps_to_target_cycle", hom is not None,
                    list(hom.mapping) if hom else None)]
    h = walk_relation(big, k)
    selected = [i * k for i in range(k)]
    missing = []
    for i in range(k):
        a, b = selected[i], selected[(i + 1) % k]
        for e in ((a, b), (b, a)):
            if e not in h.edges:
                missing.append(list(e))
    checks.append(Check("walk_power_contains_base_cycle", not missing,
                        selected if not missing else missing))
    loops = sorted(v for v, w in h.edges if v == w)
    checks.append(Check("walk_power_loopless", not loops,
                        None if not loops else loops))
    return Report(tuple(checks))


def _first_counterexample(pred, candidates):
    for c in candidates:
        if not pred(c):
            return c
    return None


def verify_clique_claims(n: int, *, max_n: int = 4) -> Report:
    """Brute-force the clique-reduction claims on K_n and K_{n+1}.

    On K_n: the sufficient cases (a) and (b) for R, completeness and symmetry
    and looplessness of F, and the pair-level claim that Q relates all
    distinct ordered pairs (an n^2-clique, which reaches size n+1).  On
    K_{n+1}: F acquires a loop, the loop unfolds into an (n+1)-clique of the
    base graph, and a loop of Q unfolds into n+1 pairwise-F-related elements.
    """
    if n < 3:
        raise ValueError("clique claims need n >= 3")
    if n > max_n:
        raise SizeCap(f"n = {n} exceeds the configured cap {max_n}")
    g = clique(n)
    verts = range(n)
    r = clique_R(g, n)
    f = clique_F(g, n)
    checks = []

    bad_a = _first_counterexample(
        lambda t: t in r.tuples,
        [(u, v, x, x) for u, v, x in product(verts, repeat=3) if u != v and x != v])
    checks.append(Check("r_case_a_sufficient", bad_a is None,
                        None if bad_a is None else list(bad_a)))
    bad_b = _first_counterexample(
        lambda t: t in r.tuples,
        [(u, u, u, y) for u, y in product(verts, repeat=2) if y != u])
    checks.append(Check("r_case_b_sufficient", bad_b is None,
                        None if bad_b is None else list(bad_b)))

    bad_f = _first_counterexample(
        lambda e: e in f.edges,
        [(x, y) for x, y in product(verts, repeat=2) if x != y])
    checks.append(Check("f_complete_off_diagonal", bad_f is None,
                        None if bad_f is None else list(bad_f)))
    checks.append(Check("f_symmetric", is_symmetric(f)))
    f_loops = sorted(x for x, y in f.edges if x == y)
    checks.append(Check("f_loopless_on_clique", not f_loops,
                        None if not f_loops else f_loops))

    q = clique_Q(g, n)
    codes = range(n * n)
    bad_q = _first_counterexample(
        lambda e: e in q.edges,
        [(p, qq) for p, qq in product(codes, repeat=2) if p != qq])
    checks.append(Check("q_relates_all_distinct_pairs", bad_q is None,
                        None if bad_q is None else list(bad_q)))
    checks.append(Check("q_clique_size_reaches_target",
                        bad_q is None and n * n >= n + 1,
                        {"clique_size": n * n, "target": n + 1}))

    bigger = clique(n + 1)
    r2 = clique_R(bigger, n)
    f2 = clique_F(bigger, n)
    f2_loops = sorted(x for x, y in f2.edges if x == y)
    checks.append(Check("f_loop_on_larger_clique", bool(f2_loops),
                        f2_loops[0] if f2_loops else None))

    unfolded = None
    if f2_loops:
        x0 = f2_loops[0]
        u0 = min(u for u, v, x, y in r2.tuples if u == v and (x, y) == (x0, x0))
        asg = witness(clique_r_gadget(n), [bigger], (u0, u0, x0, x0))
        members = sorted({asg[0], asg[2], asg[n + 2]}
                         | {asg[i] for i in range(4, n + 2)})
        clique_ok = (len(members) == n + 1
                     and all((a, b) in bigger.edges
                             for a, b in combinations(members, 2)))
        unfolded = members if clique_ok else None
    checks.append(Check("f_loop_unfolds_to_larger_clique", unfolded is not None,
                        unfolded))

    s_gadget = clique_s_gadget(n)
    q_loop = None
    for a, b in product(range(n + 1), repeat=2):
        asg = witness(s_gadget, [bigger, f2], (a, b, a, b))
        if asg is not None:
            q_loop = ((a, b), asg)
            break
    f_clique = None
    if q_loop is not None:
        xs = [q_loop[1][4 + i] for i in range(n + 1)]
        related = all((xs[i], xs[j]) in f2.edges
                      for i in range(n + 1) for j in range(n + 1) if i != j)
        f_clique = xs if related else None
    checks.append(Check("q_loop_unfolds_to_f_clique", f_clique is not None,
                        {"pair": list(q_loop[0]), "elements": f_clique}
                        if f_clique is not None else None))
    return Report(tuple(checks))
