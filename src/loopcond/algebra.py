"""Finite algebras, compatible relations, and the loop-condition decision.

The decision procedure realizes the free algebra on the condition's variables
inside A^(A^n): elements are dense tables A^n -> A generated from the n
projections.  The condition holds iff the subpower of pair-tables generated
by the condition graph's edges reaches a diagonal element; provenance of the
closure is replayed to extract a witness term.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Callable, Union

from .errors import AlgebraFormatError, BadTerm, ExponentCap, UniverseMismatch
from .identity import LoopCondition
from .ppdef import Relation

#: Default cap on free-algebra table entries (size ** variables).
DEFAULT_MAX_ENTRIES = 4096

#: Default cap on elements generated by a closure.
DEFAULT_MAX_ELEMENTS = 10**6


@dataclass(frozen=True)
class Operation:
    """A finitary operation as a dense table, last argument varying fastest.

    The table index of (x1, .., xm) is sum of x_i * size^(m-i).
    """

    name: str
    arity: int
    table: tuple[int, ...]


@dataclass(frozen=True)
class FiniteAlgebra:
    size: int
    operations: tuple[Operation, ...]

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("universe must be nonempty")
        names = set()
        for op in self.operations:
            if op.arity < 0:
                raise ValueError(f"operation {op.name} has negative arity")
            # arity > len(table) is wrong for size > 1: never build size ** huge
            if self.size > 1 and op.arity > len(op.table) \
                    or len(op.table) != self.size ** op.arity:
                raise ValueError(f"operation {op.name} table has wrong length")
            if any(type(x) is not int or not 0 <= x < self.size for x in op.table):
                raise ValueError(f"operation {op.name} table entries must be ints "
                                 f"in range({self.size})")
            if op.name in names:
                raise ValueError(f"duplicate operation name {op.name}")
            names.add(op.name)

    def operation(self, name: str) -> Operation:
        for op in self.operations:
            if op.name == name:
                return op
        raise KeyError(name)

    def apply(self, op: Operation, args: tuple[int, ...]) -> int:
        idx = 0
        for x in args:
            idx = idx * self.size + x
        return op.table[idx]


def algebra_to_json(a: FiniteAlgebra) -> str:
    return json.dumps({
        "size": a.size,
        "operations": [{"name": op.name, "arity": op.arity, "table": list(op.table)}
                       for op in a.operations],
    }, sort_keys=True)


def _field(obj, key: str, kind: type):
    """obj[key], if obj is a JSON object and type(value) is kind (bool is not int)."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if type(value) is not kind:
        raise ValueError(f"expected an object with {kind.__name__} {key!r}")
    return value


def algebra_from_json(text: str) -> FiniteAlgebra:
    """Read the algebra JSON format strictly: an object with int `size` and
    a list of `operations`, each with str `name`, int `arity` and a list
    `table`.  Raises AlgebraFormatError for anything else, and for tables
    that FiniteAlgebra rejects (entries must be ints in range(size))."""
    try:
        data = json.loads(text)
        ops = tuple(Operation(_field(o, "name", str), _field(o, "arity", int),
                              tuple(_field(o, "table", list)))
                    for o in _field(data, "operations", list))
        return FiniteAlgebra(_field(data, "size", int), ops)
    except ValueError as exc:
        raise AlgebraFormatError(f"bad algebra JSON: {exc}") from None


def mod_affine_algebra(m: int) -> FiniteAlgebra:
    """(Z_m, m(x,y,z) = x + y - z mod m); for m = 2 this is x + y + z."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    table = tuple((x + y - z) % m
                  for x in range(m) for y in range(m) for z in range(m))
    return FiniteAlgebra(m, (Operation("m", 3, table),))


def projection_algebra(size: int = 2) -> FiniteAlgebra:
    """Universe of the given size with the single binary first projection."""
    table = tuple(a for a in range(size) for _ in range(size))
    return FiniteAlgebra(size, (Operation("p1", 2, table),))


# ---------------------------------------------------------------------------
# terms

@dataclass(frozen=True)
class Var:
    """Leaf referencing an argument position of the condition's term symbol."""
    index: int


@dataclass(frozen=True)
class App:
    op: str
    args: tuple["Term", ...]


Term = Union[Var, App]


def term_to_string(t: Term) -> str:
    if isinstance(t, Var):
        return f"x{t.index + 1}"
    return f"{t.op}({','.join(term_to_string(s) for s in t.args)})"


def _apply_columns(op: Operation, size: int, cols, length: int) -> tuple[int, ...]:
    """The table kernel: op applied row by row to `length`-long argument
    columns, one column per argument."""
    if op.arity == 0:
        return (op.table[0],) * length
    index = cols[0]
    for col in cols[1:]:
        index = [i * size + x for i, x in zip(index, col)]
    return tuple(map(op.table.__getitem__, index))


def _term_column(a: FiniteAlgebra, t: Term, leaves, length: int) -> tuple[int, ...]:
    """The `length`-row table of t, leaf x(i+1) reading the column leaves[i].

    Walks the term DAG once, composing each distinct subterm (by id) with
    the table kernel, and raises BadTerm for an unknown operation, a wrong
    argument count or a leaf out of range.
    """
    ops = {op.name: op for op in a.operations}
    done: dict[int, tuple[int, ...]] = {}
    stack = [t]
    while stack:
        s = stack.pop()
        if id(s) in done:
            continue
        if isinstance(s, Var):
            if not 0 <= s.index < len(leaves):
                raise BadTerm(f"leaf x{s.index + 1} outside arity {len(leaves)}")
            done[id(s)] = leaves[s.index]
            continue
        op = ops.get(s.op)
        if op is None:
            raise BadTerm(f"unknown operation {s.op!r}")
        if len(s.args) != op.arity:
            raise BadTerm(f"{s.op} expects {op.arity} arguments, got {len(s.args)}")
        pending = [u for u in s.args if id(u) not in done]
        if pending:
            stack += [s, *pending]
        else:
            cols = [done[id(u)] for u in s.args]
            done[id(s)] = _apply_columns(op, a.size, cols, length)
    return done[id(t)]


def evaluate_term(a: FiniteAlgebra, t: Term, args: tuple[int, ...]) -> int:
    """Value of t at one row of arguments; raises BadTerm for an unknown
    operation, a wrong argument count or a leaf outside args."""
    return _term_column(a, t, [(x,) for x in args], 1)[0]


def _projections(size: int, n: int) -> list[tuple[int, ...]]:
    """The n projection tables over all size^n rows, last variable fastest."""
    rows = list(product(range(size), repeat=n))
    return [tuple(row[j] for row in rows) for j in range(n)]


def verify_witness(a: FiniteAlgebra, c: LoopCondition, t: Term) -> bool:
    """Check t(u1..un) = t(v1..vn) as functions of the condition's variables.

    Composes the table of each side over all size^|variables| assignments,
    once per distinct subterm, and compares the two.  Raises BadTerm for
    structurally invalid terms.
    """
    proj = dict(zip(c.variables, _projections(a.size, len(c.variables))))
    length = a.size ** len(c.variables)
    left = _term_column(a, t, [proj[u] for u in c.lhs], length)
    return left == _term_column(a, t, [proj[v] for v in c.rhs], length)


# ---------------------------------------------------------------------------
# compatibility and subpower closure

def is_compatible(a: FiniteAlgebra, r: Relation) -> bool:
    """True iff r is closed under every operation applied coordinatewise."""
    if r.universe_size != a.size:
        raise UniverseMismatch(
            f"relation over {r.universe_size} elements, algebra over {a.size}")
    tuples = r.sorted_tuples()
    for op in a.operations:
        for args in product(tuples, repeat=op.arity):
            if _apply_columns(op, a.size, args, r.arity) not in r.tuples:
                return False
    return True


@dataclass
class _Closure:
    items: list
    provenance: dict
    complete: bool
    found: object


def _close(seeds, ops, cap: int, stop: Callable | None = None) -> _Closure:
    """Worklist closure with provenance.

    seeds: iterable of (item, provenance); ops: list of (name, arity, fn)
    where fn maps an argument tuple of items to an item.  Enumerates each
    argument combination exactly once (at the step of its newest element).
    Stops early when `stop` accepts a generated item.
    """
    items: list = []
    prov: dict = {}

    def candidates():
        yield from seeds
        for name, arity, fn in ops:
            if arity == 0:
                yield fn(()), (name, ())
        t = 0
        while t < len(items):
            for name, arity, fn in ops:
                # combinations over items[0..t] containing index t, grouped by
                # the position of the first occurrence of t
                for p in range(arity):
                    pools = [range(t)] * p + [range(t, t + 1)] + \
                            [range(t + 1)] * (arity - 1 - p)
                    for combo in product(*pools):
                        args = tuple(items[i] for i in combo)
                        yield fn(args), (name, args)
            t += 1

    for item, p in candidates():
        if item in prov:
            continue
        items.append(item)
        prov[item] = p
        if stop is not None and stop(item):
            return _Closure(items, prov, False, item)
        if len(items) > cap:
            return _Closure(items, prov, False, None)
    return _Closure(items, prov, True, None)


@dataclass
class SubpowerResult:
    """Closure of generators inside A^k, with provenance for term extraction.

    complete=False means the element cap was hit and `relation` only holds
    the elements generated so far.
    """

    relation: Relation
    provenance: dict[tuple[int, ...], tuple]
    complete: bool
    elements_generated: int


def generate_subpower(a: FiniteAlgebra, k: int, generators,
                      cap: int = DEFAULT_MAX_ELEMENTS) -> SubpowerResult:
    """Least subset of A^k containing the generators and closed under all
    operations coordinatewise."""
    gens = [tuple(g) for g in generators]
    for g in gens:
        if len(g) != k or any(not 0 <= x < a.size for x in g):
            raise ValueError(f"generator {g} is not a valid {k}-tuple")
    seeds = [(g, ("gen", i)) for i, g in enumerate(gens)]

    ops = [(op.name, op.arity, lambda args, op=op: _apply_columns(op, a.size, args, k))
           for op in a.operations]
    res = _close(seeds, ops, cap)
    return SubpowerResult(Relation(a.size, k, frozenset(res.items)),
                          res.provenance, res.complete, len(res.items))


# ---------------------------------------------------------------------------
# the decision procedure

@dataclass(frozen=True)
class Satisfied:
    term: Term


@dataclass(frozen=True)
class NotSatisfied:
    pass


@dataclass(frozen=True)
class ResourceExceeded:
    elements_generated: int


Decision = Union[Satisfied, NotSatisfied, ResourceExceeded]


def decision_to_json_dict(d: Decision) -> dict:
    if isinstance(d, Satisfied):
        return {"decision": "Satisfied", "witness": term_to_string(d.term)}
    if isinstance(d, NotSatisfied):
        return {"decision": "NotSatisfied"}
    return {"decision": "ResourceExceeded",
            "elements_generated": d.elements_generated}


def _term_from_provenance(item, provenance) -> Term:
    cache: dict = {}

    def build(x) -> Term:
        if x in cache:
            return cache[x]
        tag, payload = provenance[x]
        if tag == "pos":
            term: Term = Var(payload)
        else:
            term = App(tag, tuple(build(parent) for parent in payload))
        cache[x] = term
        return term

    return build(item)


def satisfies_condition(a: FiniteAlgebra, c: LoopCondition, *,
                        max_entries: int = DEFAULT_MAX_ENTRIES,
                        max_elements: int = DEFAULT_MAX_ELEMENTS) -> Decision:
    """Decide whether the algebra has a term satisfying the identity.

    Generates the subpower of pair-tables seeded with (proj_u, proj_v) for
    each deduplicated condition-graph edge; Satisfied iff a pair with equal
    coordinates appears.  The witness term is rebuilt from provenance and
    re-verified before being returned.  Honest resource outcomes: raises
    ExponentCap if size^|variables| exceeds max_entries, and returns
    ResourceExceeded when the element cap is hit.
    """
    n = len(c.variables)
    rows = a.size ** n
    if rows > max_entries:
        raise ExponentCap(
            f"free-algebra tables need {rows} entries, cap is {max_entries}")

    tables: list[tuple[int, ...]] = []
    table_id: dict[tuple[int, ...], int] = {}

    def intern(table: tuple[int, ...]) -> int:
        got = table_id.get(table)
        if got is not None:
            return got
        table_id[table] = len(tables)
        tables.append(table)
        return len(tables) - 1

    proj_id = {v: intern(p) for v, p in zip(c.variables, _projections(a.size, n))}
    compose_memo: dict[tuple, int] = {}

    def compose(op_idx: int, op: Operation, ids: tuple[int, ...]) -> int:
        key = (op_idx, *ids)
        got = compose_memo.get(key)
        if got is None:
            got = compose_memo[key] = intern(
                _apply_columns(op, a.size, [tables[i] for i in ids], rows))
        return got

    def pairwise(op_idx: int, op: Operation):
        def fn(args):
            left = compose(op_idx, op, tuple(p[0] for p in args))
            right = compose(op_idx, op, tuple(p[1] for p in args))
            return (left, right)
        return fn

    ops = [(op.name, op.arity, pairwise(i, op))
           for i, op in enumerate(a.operations)]

    # one generator per deduplicated edge, tagged with its first position
    first: dict[tuple[str, str], int] = {}
    for pos, edge in enumerate(zip(c.lhs, c.rhs)):
        first.setdefault(edge, pos)
    seeds = [((proj_id[u], proj_id[v]), ("pos", pos)) for (u, v), pos in first.items()]

    res = _close(seeds, ops, max_elements, stop=lambda pair: pair[0] == pair[1])
    if res.found is not None:
        term = _term_from_provenance(res.found, res.provenance)
        if not verify_witness(a, c, term):
            raise AssertionError("extracted witness failed verification")
        return Satisfied(term)
    if res.complete:
        return NotSatisfied()
    return ResourceExceeded(len(res.items))


# ---------------------------------------------------------------------------
# affine fast path

def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def _solve_mod_prime(rows: list[list[int]], rhs: list[int], ncols: int,
                     p: int) -> tuple[int, ...] | None:
    """Solve rows * x = rhs over Z_p by reduced row echelon form.

    Deterministic: pivots in ascending column order, free variables set to 0.
    """
    aug = [[x % p for x in row] + [b % p] for row, b in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = pow(aug[r][col], p - 2, p)
        aug[r] = [(x * inv) % p for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[r])]
        pivots.append((r, col))
        r += 1
    for i in range(r, len(aug)):
        if aug[i][-1]:
            return None
    x = [0] * ncols
    for row_i, col in pivots:
        x[col] = aug[row_i][-1]
    return tuple(x)


def affine_satisfies(m: int, c: LoopCondition) -> tuple[int, ...] | None:
    """Coefficients of an affine witness over (Z_m, x + y - z), or None.

    The term clone of (Z_m, x+y-z) is exactly the maps sum(c_i x_i) with
    sum(c_i) = 1 (mod m), so the condition holds there iff some such vector
    balances each variable's left and right occurrences.  Prime moduli are
    solved by elimination, composite ones by exhaustive search.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    rows = []
    rhs = []
    for w in c.variables:
        row = [0] * c.arity
        for i in range(c.arity):
            if c.lhs[i] == w:
                row[i] += 1
            if c.rhs[i] == w:
                row[i] -= 1
        rows.append(row)
        rhs.append(0)
    rows.append([1] * c.arity)
    rhs.append(1)
    if _is_prime(m):
        return _solve_mod_prime(rows, rhs, c.arity, m)
    if m ** c.arity > 10**7:
        raise ValueError("composite modulus too large for exhaustive search")
    for cand in product(range(m), repeat=c.arity):
        if all(sum(a * x for a, x in zip(row, cand)) % m == b % m
               for row, b in zip(rows, rhs)):
            return cand
    return None


def affine_remark_audit() -> dict:
    """Audit the often-quoted claim that (Z_3, x+y-z) satisfies the triangle
    condition but not commutativity.

    Computes both the affine oracle and the closure decision for both
    identities over Z_3, flags a discrepancy when commutativity turns out
    satisfiable (it does: 2x + 2y = m(x,x,y)), and reports the two-element
    algebra (Z_2, x+y+z) as the separation that does work.
    """
    from .identity import COMMUTATIVITY_IDENTITY, SIGGERS_IDENTITY, parse_condition

    commutativity = parse_condition(COMMUTATIVITY_IDENTITY)
    triangle = parse_condition(SIGGERS_IDENTITY)

    def side(m: int) -> dict:
        alg = mod_affine_algebra(m)
        aff_c = affine_satisfies(m, commutativity)
        aff_t = affine_satisfies(m, triangle)
        dec_c = satisfies_condition(alg, commutativity)
        dec_t = satisfies_condition(alg, triangle)
        return {
            "algebra": f"(Z_{m}, x+y-z)",
            "commutativity_coefficients": list(aff_c) if aff_c else None,
            "commutativity_decision": decision_to_json_dict(dec_c),
            "triangle_coefficients": list(aff_t) if aff_t else None,
            "triangle_decision": decision_to_json_dict(dec_t),
            "oracles_agree": (aff_c is not None) == isinstance(dec_c, Satisfied)
            and (aff_t is not None) == isinstance(dec_t, Satisfied),
            "separates_classes": aff_t is not None and aff_c is None,
        }

    mod3 = side(3)
    mod2 = side(2)
    discrepancy = not mod3["separates_classes"]
    return {
        "claim": "(Z_3, x+y-z) satisfies the triangle condition but not commutativity",
        "mod3": mod3,
        "mod2": mod2,
        "discrepancy": discrepancy,
        "note": ("The claimed separating example fails: over Z_3 the term "
                 "m(x,x,y) = 2x+2y is commutative, so (Z_3, x+y-z) satisfies "
                 "both conditions. (Z_2, x+y+z) separates the classes: it "
                 "satisfies the triangle condition but no commutative term "
                 "exists since 2c = 1 has no solution mod 2.")
        if discrepancy else
        "The claimed separating example checks out.",
    }
