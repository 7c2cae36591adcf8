"""Gadget constructions behind the cycle and clique reductions, verified by
brute force on small instances, with machine-checkable reports.

`verify_clique_claims` evaluates R on K_n, R on K_{n+1} and S once each,
and derives F and Q from those relations."""

from __future__ import annotations

import json
from itertools import combinations, islice, permutations, product

from .errors import NotSymmetric, SizeCap, _Value
from .graph import DiGraph, _bits, _walks, clique, cycle, find_hom, is_symmetric
from .ppdef import Gadget, Relation, evaluate, pp_power, relation_to_graph, witness


class Check(_Value, witness=None):
    """One named claim of a Report, whether it held, and what shows it.

    The witness may be a list or a dict, so a check hashes by (name, passed)
    alone: equal checks share both, so the hash agrees with ==, and reports
    hash like every other value.
    """

    __slots__ = ("name", "passed", "witness")
    name: str
    passed: bool
    witness: object

    def __hash__(self) -> int:
        return hash((self.name, self.passed))


class Report(_Value):
    __slots__ = ("checks",)
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

    The edges are the set bits of _walk_rows(g, k), written straight into
    the frozenset.
    """
    return DiGraph(g.n, frozenset((v, w) for v, row in enumerate(_walk_rows(g, k))
                                  for w in _bits(row)), g.labels)


def _walk_rows(g: DiGraph, k: int) -> list[int]:
    """Row v of the k-step walk relation of g: the bitmask of the vertices
    that walks of exactly k edges from v reach, the k-th rows of the one
    walk of the graph layer (graph._walks)."""
    if k < 1:
        raise ValueError("walk length must be positive")
    return next(islice(_walks(g), k - 1, None))


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


def clique_R(g: DiGraph, n: int) -> Relation:
    """The 4-ary relation R evaluated over a symmetric graph."""
    if not is_symmetric(g):
        raise NotSymmetric("clique constructions expect a symmetric graph; "
                           "apply symmetric_part first")
    return evaluate(clique_r_gadget(n), [g])


def _diagonal(r: Relation, g: DiGraph) -> DiGraph:
    """F(x, y) iff R(u, u, x, y) for some u."""
    return DiGraph(g.n, frozenset((x, y) for u, v, x, y in r.tuples if u == v), g.labels)


def _pair_graph(g: DiGraph, f: DiGraph, n: int) -> DiGraph:
    """S evaluated over g and F, its 4-ary result (u1,u2,v1,v2) regrouped as
    a binary relation on pairs."""
    return relation_to_graph(pp_power(evaluate(clique_s_gadget(n), [g, f]), 2))


def clique_F(g: DiGraph, n: int) -> DiGraph:
    """F(x, y) iff R(u, u, x, y) for some u: diagonalize and project R."""
    return _diagonal(clique_R(g, n), g)


def clique_Q(g: DiGraph, n: int) -> DiGraph:
    """The pair-level graph Q on universe |V|^2, with (a, b) coded a*|V|+b:
    the S pattern evaluated over the base graph and the computed F."""
    return _pair_graph(g, clique_F(g, n), n)


# ---------------------------------------------------------------------------
# verification reports

_CYCLE_SIZE_CAP = 2500  #: verify_cycle_reduction's cap on k^2: odd k <= 49


def verify_cycle_reduction(k: int) -> Report:
    """Check the two graph facts behind shrinking an odd-cycle condition:
    the k^2-cycle maps onto the (k+2)-cycle, and the k-step walk relation of
    the k^2-cycle contains a k-cycle on the vertices 0, k, 2k, ... (and is
    loopless).  The walk is read off its bitmask rows (_walk_checks); no
    walk graph is built."""
    if k < 3 or k % 2 == 0:
        raise ValueError("cycle reduction needs odd k >= 3")
    if k * k > _CYCLE_SIZE_CAP:
        raise SizeCap(f"k^2 = {k * k} exceeds the size cap {_CYCLE_SIZE_CAP}")
    big = cycle(k * k)
    target = cycle(k + 2)
    hom = find_hom(big, target)
    checks = [Check("square_cycle_maps_to_target_cycle", hom is not None,
                    list(hom.mapping) if hom else None)]
    checks += _walk_checks(_walk_rows(big, k), k)
    return Report(tuple(checks))


def _walk_checks(rows: list[int], k: int) -> list[Check]:
    """The two checks on a walk relation given by its bitmask rows (as from
    _walk_rows), with at least k*(k-1) + 1 rows: it relates the vertices 0,
    k, 2k, ... in a k-cycle both ways, and no vertex to itself.  Edge (a, b)
    is bit b of row a, so no edge set is built."""
    selected = [i * k for i in range(k)]
    missing = []
    for i in range(k):
        a, b = selected[i], selected[(i + 1) % k]
        for x, y in ((a, b), (b, a)):
            if not rows[x] >> y & 1:
                missing.append([x, y])
    loops = [v for v, row in enumerate(rows) if row >> v & 1]
    return [Check("walk_power_contains_base_cycle", not missing,
                  selected if not missing else missing),
            Check("walk_power_loopless", not loops, None if not loops else loops)]


def _missing(candidates, present) -> list | None:
    """The first candidate not in `present`, as a list, or None."""
    return next((list(c) for c in candidates if c not in present), None)


def verify_clique_claims(n: int, *, max_n: int = 6) -> Report:
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
    g, bigger = clique(n), clique(n + 1)
    verts = range(n)
    r, r2 = clique_R(g, n), clique_R(bigger, n)
    f, f2 = _diagonal(r, g), _diagonal(r2, bigger)
    q = _pair_graph(g, f, n)
    bad_a = _missing([(u, v, x, x) for u, v, x in product(verts, repeat=3)
                      if u != v and x != v], r.tuples)
    bad_b = _missing([(u, u, u, y) for u, y in product(verts, repeat=2) if y != u],
                     r.tuples)
    bad_f = _missing([(x, y) for x, y in product(verts, repeat=2) if x != y], f.edges)
    bad_q = _missing([(p, s) for p, s in product(range(n * n), repeat=2) if p != s],
                     q.edges)
    f_loops = sorted(x for x, y in f.edges if x == y)
    f2_loops = sorted(x for x, y in f2.edges if x == y)
    checks = [
        Check("r_case_a_sufficient", bad_a is None, bad_a),
        Check("r_case_b_sufficient", bad_b is None, bad_b),
        Check("f_complete_off_diagonal", bad_f is None, bad_f),
        Check("f_symmetric", is_symmetric(f)),
        Check("f_loopless_on_clique", not f_loops, f_loops or None),
        Check("q_relates_all_distinct_pairs", bad_q is None, bad_q),
        Check("q_clique_size_reaches_target", bad_q is None and n * n >= n + 1,
              {"clique_size": n * n, "target": n + 1}),
        Check("f_loop_on_larger_clique", bool(f2_loops),
              f2_loops[0] if f2_loops else None),
    ]

    unfolded = None
    if f2_loops:
        x0 = f2_loops[0]
        u0 = min(u for u, v, x, y in r2.tuples if u == v and (x, y) == (x0, x0))
        asg = witness(clique_r_gadget(n), [bigger], (u0, u0, x0, x0))
        members = sorted({asg[0], asg[2], asg[n + 2]}
                         | {asg[i] for i in range(4, n + 2)})
        if len(members) == n + 1 and all((a, b) in bigger.edges
                                         for a, b in combinations(members, 2)):
            unfolded = members
    checks.append(Check("f_loop_unfolds_to_larger_clique", unfolded is not None,
                        unfolded))

    # xs are compared by index, not by value: F on K_{n+1} has loops
    s_gadget = clique_s_gadget(n)
    f_clique = None
    for a, b in product(range(n + 1), repeat=2):
        asg = witness(s_gadget, [bigger, f2], (a, b, a, b))
        if asg is not None:
            xs = list(asg[4:n + 5])
            if all((xs[i], xs[j]) in f2.edges
                   for i, j in permutations(range(n + 1), 2)):
                f_clique = {"pair": [a, b], "elements": xs}
            break
    checks.append(Check("q_loop_unfolds_to_f_clique", f_clique is not None, f_clique))
    return Report(tuple(checks))
