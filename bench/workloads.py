"""Workload inputs for the loopcond benchmark, generated from a seed, and the
independent certificate that every answer is checked against.

Each workload is a list of queries run one after another.  A query's
``check`` classifies its outcome as "ok" (a real answer that its certificate
confirms), "resource" (an honest ResourceExceeded or BudgetExceeded) or
"failed" (an exception, or an answer its certificate contradicts).

The seed changes the inputs without changing the work they cost: algebras are
relabeled by a seeded permutation of their universe and condition variables
get seeded names, which leaves every closure, search order and witness
unchanged up to isomorphism.  Closure cost on fresh random algebras spans
0.02 s to more than 55 s, so drawing new ones per seed would make run-to-run
spread reflect the draw rather than the code.  The random binary algebras are
therefore a fixed pool (``pool_table``), and only the small seeded
implication pairs of ``search`` are drawn afresh.
"""

from __future__ import annotations

import importlib
import json
import os
import random
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

from loopcond import algebra, constructions, graph, identity
from loopcond.errors import BudgetExceeded

# the package re-exports the function classify under the module's name
classify = importlib.import_module("loopcond.classify")

#: Element cap carried by every query over a pool algebra, so any seed ends
#: in bounded time.
POOL_MAX_ELEMENTS = 20000

#: Pool algebras per size and condition in decide_found: pool seeds 0-11,
#: every (algebra, condition) whose decision at POOL_MAX_ELEMENTS is
#: Satisfied.  The rest of pool seeds 0-11 hit the cap (0.8-1.7 s each).
FOUND_POOL = {(3, "C5"): range(12),
              (3, "C7"): (0, 2, 5, 6, 8, 9, 10, 11),
              (4, "C5"): (1, 2, 4, 7, 10)}

#: The capped query of decide_exhaust: 4-element pool algebra 9 with C5 hits
#: the cap at 20000 elements (about 0.84 s); uncapped it is Satisfied after
#: about 2.4 s, so NotSatisfied would be a wrong answer.
CAPPED_POOL_SEED = 9

CYCLE_KS = (9, 11, 13, 15, 17)
CLIQUE_REFUTATIONS = range(3, 9)      # find_hom(K_{n+1}, K_n) is None
CLIQUE_CLAIMS = (3, 4, 5)
RANDOM_IMPLIES_PAIRS = 4

OK, RESOURCE, FAILED = "ok", "resource", "failed"


@dataclass
class Query:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str]


@dataclass
class Invocation:
    """One CLI run: argv after the program name, the exit code the answer
    requires, and a predicate on the parsed JSON stdout."""

    name: str
    argv: list[str]
    code: int
    check_json: Callable[[object], bool]


@dataclass
class Workload:
    name: str
    queries: list[Query] = field(default_factory=list)
    invocations: list[Invocation] = field(default_factory=list)


# ---------------------------------------------------------------------------
# graphs and condition text

def _sym(edges) -> set[tuple[int, int]]:
    edges = list(edges)
    return {(a, b) for a, b in edges} | {(b, a) for a, b in edges}


def cycle_edges(n: int) -> set[tuple[int, int]]:
    return _sym((i, (i + 1) % n) for i in range(n))


def clique_edges(n: int) -> set[tuple[int, int]]:
    return {(i, j) for i in range(n) for j in range(n) if i != j}


def path_edges(n: int) -> set[tuple[int, int]]:
    return _sym((i, i + 1) for i in range(n - 1))


def star_edges(leaves: int) -> set[tuple[int, int]]:
    return _sym((0, i) for i in range(1, leaves + 1))


def condition_text(edges, names: list[str], symbol: str) -> str:
    """The identity whose assigned graph has these edges, one position per
    edge in sorted order (the layout of condition_from_graph)."""
    es = sorted(edges)
    lhs = ",".join(names[a] for a, _ in es)
    rhs = ",".join(names[b] for _, b in es)
    return f"{symbol}({lhs})={symbol}({rhs})"


def names_for(rng: random.Random, n: int) -> list[str]:
    prefix = rng.choice("abcdeghkmnpqrvw")
    offset = rng.randrange(100)
    return [f"{prefix}{offset + i}" for i in range(n)]


class Conditions:
    """Seeded condition text; variable names and symbol vary with the seed,
    argument layout does not."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def graph(self, edges) -> str:
        n = 1 + max(max(e) for e in edges)
        return condition_text(edges, names_for(self.rng, n), self.rng.choice("stuw"))

    def triangle(self) -> str:
        x, y, z = names_for(self.rng, 3)
        s = self.rng.choice("stuw")
        return f"{s}({x},{y},{y},{z},{z},{x})={s}({y},{x},{z},{y},{x},{z})"

    def commutativity(self) -> str:
        x, y = names_for(self.rng, 2)
        s = self.rng.choice("stuw")
        return f"{s}({x},{y})={s}({y},{x})"


def hom_is_valid(mapping, source_edges, target_edges) -> bool:
    return all((mapping[a], mapping[b]) in target_edges for a, b in source_edges)


def hom_exists_brute(n_source: int, source_edges, n_target: int, target_edges) -> bool:
    return any(hom_is_valid(m, source_edges, target_edges)
               for m in product(range(n_target), repeat=n_source))


# ---------------------------------------------------------------------------
# algebras

def pool_table(size: int, pool_seed: int) -> list[int]:
    """Binary operation table of the fixed pool algebra, row-major."""
    rng = random.Random(pool_seed)
    return [rng.randrange(size) for _ in range(size * size)]


def affine_table(m: int) -> list[int]:
    return [(x + y - z) % m for x in range(m) for y in range(m) for z in range(m)]


def relabel(size: int, arity: int, table: list[int], perm: list[int]) -> list[int]:
    """Table of the isomorphic copy under the universe permutation perm."""
    inv = [0] * size
    for old, new in enumerate(perm):
        inv[new] = old
    out = []
    for ys in product(range(size), repeat=arity):
        idx = 0
        for y in ys:
            idx = idx * size + inv[y]
        out.append(perm[table[idx]])
    return out


def seeded_algebra(rng: random.Random, size: int, name: str, arity: int,
                   table: list[int]) -> dict:
    """Algebra JSON (the documented file format) of a seeded isomorphic copy."""
    perm = list(range(size))
    rng.shuffle(perm)
    return {"size": size, "operations": [
        {"name": name, "arity": arity, "table": relabel(size, arity, table, perm)}]}


def _load(data: dict) -> algebra.FiniteAlgebra:
    return algebra.algebra_from_json(json.dumps(data))


def _decision_check(a, c, affine_m: int | None, max_elements: int):
    """Satisfied: the witness re-verifies (and the affine oracle agrees).
    NotSatisfied: only certifiable on an affine algebra, by the oracle.
    ResourceExceeded: honest only if the cap was really passed."""
    def check(d) -> str:
        kind = type(d).__name__
        refuted = affine_m is not None and algebra.affine_satisfies(affine_m, c) is None
        if kind == "Satisfied":
            return OK if not refuted and algebra.verify_witness(a, c, d.term) else FAILED
        if kind == "NotSatisfied":
            return OK if refuted else FAILED
        if kind == "ResourceExceeded":
            return RESOURCE if d.elements_generated > max_elements else FAILED
        return FAILED
    return check


def _decide_query(label: str, a, c, affine_m: int | None,
                  max_elements: int = algebra.DEFAULT_MAX_ELEMENTS) -> Query:
    def run():
        return algebra.satisfies_condition(a, c, max_elements=max_elements)
    return Query(label, run, _decision_check(a, c, affine_m, max_elements))


# ---------------------------------------------------------------------------
# the four workloads

def _decide_found(rng: random.Random) -> Workload:
    conds = Conditions(rng)
    wl = Workload("decide_found")
    parse = identity.parse_condition
    affine = {2: ("triangle", "C5", "K4"),
              3: ("triangle", "commutativity", "C5", "C7", "K4"),
              4: ("triangle",)}
    texts = {"triangle": conds.triangle, "commutativity": conds.commutativity,
             "C5": lambda: conds.graph(cycle_edges(5)),
             "C7": lambda: conds.graph(cycle_edges(7)),
             "K4": lambda: conds.graph(clique_edges(4))}
    for m, names in affine.items():
        a = _load(seeded_algebra(rng, m, "m", 3, affine_table(m)))
        for cname in names:
            wl.queries.append(_decide_query(f"Z{m}/{cname}", a, parse(texts[cname]()), m))
    for (size, cname), seeds in FOUND_POOL.items():
        for pool_seed in seeds:
            a = _load(seeded_algebra(rng, size, "f", 2, pool_table(size, pool_seed)))
            wl.queries.append(_decide_query(
                f"pool{size}.{pool_seed}/{cname}", a, parse(texts[cname]()), None,
                POOL_MAX_ELEMENTS))
    return wl


def _decide_exhaust(rng: random.Random) -> Workload:
    conds = Conditions(rng)
    wl = Workload("decide_exhaust")
    parse = identity.parse_condition
    instances = {2: (("P4", path_edges(4)), ("C4", cycle_edges(4)),
                     ("K1,3", star_edges(3)), ("commutativity", None)),
                 4: (("P3", path_edges(3)), ("commutativity", None))}
    for m, items in instances.items():
        a = _load(seeded_algebra(rng, m, "m", 3, affine_table(m)))
        for cname, edges in items:
            text = conds.commutativity() if edges is None else conds.graph(edges)
            wl.queries.append(_decide_query(f"Z{m}/{cname}", a, parse(text), m))
    a = _load(seeded_algebra(rng, 4, "f", 2, pool_table(4, CAPPED_POOL_SEED)))
    wl.queries.append(_decide_query(
        f"pool4.{CAPPED_POOL_SEED}/C5 capped", a,
        parse(conds.graph(cycle_edges(5))), None, POOL_MAX_ELEMENTS))
    return wl


def _report_check(extra: Callable[[object], bool] = lambda r: True):
    def check(report) -> str:
        return OK if report.all_pass and extra(report) else FAILED
    return check


def _cycle_reduction_query(k: int) -> Query:
    source, target = cycle_edges(k * k), cycle_edges(k + 2)

    def hom_checks_out(report) -> bool:
        mapping = report.checks[0].witness
        return mapping is not None and hom_is_valid(mapping, source, target)

    return Query(f"cycle_reduction/{k}",
                 lambda: constructions.verify_cycle_reduction(k),
                 _report_check(hom_checks_out))


def _hom_check(source_edges, target_edges, exists: bool | None):
    """exists=None: decide by enumerating every map (small graphs only)."""
    def check(h) -> str:
        if h is None:
            if exists is None:
                n_s = 1 + max(max(e) for e in source_edges)
                n_t = 1 + max(max(e) for e in target_edges)
                return FAILED if hom_exists_brute(n_s, source_edges, n_t,
                                                  target_edges) else OK
            return FAILED if exists else OK
        if exists is False:
            return FAILED
        return OK if h.is_valid() and hom_is_valid(h.mapping, source_edges,
                                                  target_edges) else FAILED
    return check


def _random_graph(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """Symmetric loopless graph on n vertices with no isolated vertex."""
    while True:
        edges = _sym((a, b) for a in range(n) for b in range(a + 1, n)
                     if rng.random() < 0.5)
        if {v for e in edges for v in e} == set(range(n)):
            return edges


def _search(rng: random.Random) -> Workload:
    conds = Conditions(rng)
    wl = Workload("search")
    for k in CYCLE_KS:
        wl.queries.append(_cycle_reduction_query(k))
    for n in CLIQUE_REFUTATIONS:
        big, small = graph.clique(n + 1), graph.clique(n)
        wl.queries.append(Query(f"find_hom/K{n + 1}->K{n}",
                                lambda big=big, small=small: graph.find_hom(big, small),
                                _hom_check(clique_edges(n + 1), clique_edges(n), False)))
    for n in CLIQUE_CLAIMS:
        wl.queries.append(Query(f"clique_claims/{n}",
                                lambda n=n: constructions.verify_clique_claims(n, max_n=n),
                                _report_check()))
    # graph theory decides these: a longer odd cycle maps onto a shorter one
    # and not back; a clique maps to no smaller clique; odd cycles and
    # bipartite graphs are 3- and 2-colourable
    fixed = [("C9->C7", cycle_edges(9), cycle_edges(7), True),
             ("C7->C9", cycle_edges(7), cycle_edges(9), False),
             ("C5->K3", cycle_edges(5), clique_edges(3), True),
             ("K3->C5", clique_edges(3), cycle_edges(5), False),
             ("K4->K3", clique_edges(4), clique_edges(3), False),
             ("P4->K2", path_edges(4), clique_edges(2), True)]
    # seeded pairs, certified by enumerating all 4^6 maps
    for i in range(RANDOM_IMPLIES_PAIRS):
        fixed.append((f"random{i}", _random_graph(rng, 6), _random_graph(rng, 4), None))
    parse = identity.parse_condition
    for label, s, t, exists in fixed:
        c, d = parse(conds.graph(s)), parse(conds.graph(t))
        wl.queries.append(Query(f"implies/{label}",
                                lambda c=c, d=d: classify.implies_by_hom(c, d),
                                _hom_check(s, t, exists)))
    return wl


def _cli(rng: random.Random, out_dir: str) -> Workload:
    conds = Conditions(rng)
    wl = Workload("cli")
    c5_names, c7_names = names_for(rng, 5), names_for(rng, 7)
    c5 = condition_text(cycle_edges(5), c5_names, "t")
    c7 = condition_text(cycle_edges(7), c7_names, "t")
    tri = conds.triangle()
    alg_path = os.path.join(out_dir, "cli_algebra.json")
    with open(alg_path, "w") as fh:
        json.dump(seeded_algebra(rng, 3, "m", 3, affine_table(3)), fh)

    def implies_ok(p) -> bool:
        if not p["found"]:
            return False
        dst = {v: i for i, v in enumerate(c5_names)}
        mapping = [dst[p["map"][v]] for v in c7_names]
        return hom_is_valid(mapping, cycle_edges(7), cycle_edges(5))

    wl.invocations = [
        Invocation("parse", ["parse", tri, "--json"], 0,
                   lambda p: p["arity"] == 6 and len(p["graph"]["edges"]) == 6),
        Invocation("classify", ["classify", c5, "--json"], 0,
                   lambda p: p["class"] == "NonbipartiteLoopless"),
        Invocation("graph-info", ["graph-info", c5, "--json"], 0,
                   lambda p: p["odd_girth"] == 5 and p["bipartite"] is False),
        Invocation("implies", ["implies", c7, c5, "--json"], 0, implies_ok),
        Invocation("implies", ["implies", c5, c7, "--json"], 1,
                   lambda p: p["found"] is False),
        Invocation("satisfies", ["satisfies", c7, "--algebra", alg_path,
                                 "--affine", "3", "--json"], 0,
                   lambda p: p["decision"] == "Satisfied" and p["oracles_agree"] is True),
        Invocation("verify", ["verify", "--cycle-k", "13", "--clique-n", "3", "--json"], 0,
                   lambda p: p["all_pass"] is True),
        Invocation("audit", ["audit"], 0,
                   lambda p: p["discrepancy"] is True
                   and p["mod2"]["separates_classes"] is True),
    ]
    return wl


def build(name: str, seed: int, out_dir: str) -> Workload:
    """The workload's inputs for this seed; the same seed gives the same inputs."""
    rng = random.Random(f"{name}/{seed}")
    if name == "decide_found":
        return _decide_found(rng)
    if name == "decide_exhaust":
        return _decide_exhaust(rng)
    if name == "search":
        return _search(rng)
    if name == "cli":
        return _cli(rng, out_dir)
    raise ValueError(f"unknown workload {name!r}")


def certify_invocation(inv: Invocation, result, reference: bytes) -> str:
    """A CLI run is right when it exits with the answer's code and prints
    JSON that parses, passes the check and matches the first run's bytes."""
    if isinstance(result, Exception):
        return FAILED
    code, out = result[0], result[1]
    try:
        ok = code == inv.code and out == reference and inv.check_json(json.loads(out))
    except (ValueError, KeyError, TypeError):
        return FAILED
    return OK if ok else FAILED


def certify(query: Query, result) -> str:
    """Outcome of one query: an honest budget stop is a resource outcome,
    any other exception or a check that raises is a failure."""
    if isinstance(result, BudgetExceeded):
        return RESOURCE
    if isinstance(result, Exception):
        return FAILED
    try:
        return query.check(result)
    except Exception:
        return FAILED
