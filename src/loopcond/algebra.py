"""Finite algebras, compatible relations, and the loop-condition decision.

The decision procedure realizes the free algebra on the condition's variables
inside A^(A^n): elements are dense tables A^n -> A generated from the n
projections.  The condition holds iff the subpower of pair-tables generated
by the condition graph's edges reaches a diagonal element.  The closure is
run on a subset R of the A^n rows, which starts empty: a closure on R
without a diagonal pair refutes the condition, and a diagonal pair on R is
replayed from provenance into a candidate term, which is checked on all rows
and either returned or refuted by rows that then join R.  On R empty every
table is empty and every pair equal, so the first candidate, the first
seed's projection x1, needs no closure.

A condition graph G is decided on its core C instead, when C is smaller: G
and C map to each other, so their conditions are equivalent, and the
closure on C runs on fewer variables.  A refutation on C is returned with
its certificate checked, the retraction G -> C being a homomorphism; a
witness for C is carried over to G, by renaming its leaves along the
inclusion C -> G, and checked on all rows.  Only where C's closure hits its
element cap does G's own closure decide.  The ExponentCap on table entries
still counts G's variables.

Where G's closure hits its element cap, or the ExponentCap gate would
raise, one cheap route runs last: a constant unary term c of A satisfies
every loop condition, with the witness t(x1..xn) = c(x1).  The unary term
operations are closed from the identity map, by the tuple closure
`generate_subpower` runs on, up to max_elements table entries, and the
first constant one, checked constant on A's elements, is the answer.

The closure engine `_close` hands each operation whole blocks of argument
combinations, runs that differ only in their last argument ranging over
the items.  A block is a tuple of equally long columns, one per component
of the items (a pair's left and right tables): its running argument is a
slice of the closure's own component lists, and what it generates stays
in columns in the stream, which is deduplicated lazily, building an item
only for each entry read: only as far as the worklist needs its next
item, or the element cap needs an exact count.  A closure that stops at
an equal pair thus never builds or hashes the thousands of pairs
generated past the items it reached, and an item's provenance is its
index in the stream of blocks, resolved only when a witness is replayed.
An item of the pair closure is a pair of tables, one canonical object per
distinct table.  Each operation keeps a memo row per fixed head and tail
tables of a block, from the running argument's table to the composed
one: a block side reads its tables from the row with one `map`, and only
when the row lacks some finds them by a set difference and composes them
all in one kernel call, on the running tables joined and each head and
tail table repeated as often.  A block's pairs are tested for equality
with one map of `operator.is_` over its two columns.  A bytes table
hashes once and caches its hash, so these lookups do not reread its rows.

One kernel, `_apply_columns`, composes tables.  On the decision path a
table over a universe of at most 256 elements is `bytes`, one byte per row.
For an operation with at most 256 table entries the kernel reads each
argument column as one big integer, combines them by Horner's rule into an
integer whose bytes are the rows' table indices, and maps those bytes
through the table with `bytes.translate`: a few big-integer operations per
composed table instead of a Python step per row.  Larger operations, 0-ary
ones, and the tuple columns of larger universes and of `generate_subpower`
(which `is_compatible` closes through) take the generic path.

Term DAGs are walked by one fold, `_fold`, which visits each distinct
subterm once: equality, hashing, composition, replay from provenance and
re-indexing are folds.  Only `_render` walks each occurrence, to print.
Terms and decisions are immutable values that name their fields in
`__slots__`, so they keep no instance dict, and a decision that a caller
keeps holds little beyond its witness DAG.
"""

from __future__ import annotations

import json
from bisect import bisect_right, insort
from collections.abc import Callable
from functools import cached_property
from itertools import chain, compress, count, islice, product, repeat
from math import gcd
from operator import is_, itemgetter, mul, ne

from .errors import (AlgebraFormatError, BadTerm, BudgetExceeded, ExponentCap,
                     UniverseMismatch, _Value)
from .graph import _decode, _field, _potentials, core
from .identity import LoopCondition, condition_from_graph, condition_graph

#: Default cap on free-algebra table entries (size ** variables).
DEFAULT_MAX_ENTRIES = 4096

#: Default cap on elements generated by a closure.
DEFAULT_MAX_ELEMENTS = 10**6

#: A table over rows, one element per row: bytes on the decision path when
#: every element fits in a byte, a tuple of ints otherwise.
Column = bytes | tuple[int, ...]


class Operation(_Value):
    """A finitary operation as a dense table, last argument varying fastest.

    The table index of (x1, .., xm) is sum of x_i * size^(m-i).
    """

    name: str
    arity: int
    table: tuple[int, ...]

    @cached_property
    def lookup(self) -> bytes:
        """The table padded to a 256-byte map for `bytes.translate`; the
        kernel builds it only for tables of at most 256 entries, each below
        256."""
        return bytes(self.table).ljust(256, b"\0")


class FiniteAlgebra(_Value):
    size: int
    operations: tuple[Operation, ...]

    def _check(self):
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
        """op at one row of arguments, read from its table by a row loop of
        its own, independent of the table kernel; raises ValueError for a
        wrong argument count or an argument outside range(size)."""
        if len(args) != op.arity:
            raise ValueError(f"{op.name} expects {op.arity} arguments, got {len(args)}")
        idx = 0
        for x in args:
            if not 0 <= x < self.size:
                raise ValueError(f"argument {x} is not in range({self.size})")
            idx = idx * self.size + x
        return op.table[idx]


def algebra_to_json(a: FiniteAlgebra) -> str:
    return json.dumps({
        "size": a.size,
        "operations": [{"name": op.name, "arity": op.arity, "table": list(op.table)}
                       for op in a.operations],
    }, sort_keys=True)


def algebra_from_json(text: str) -> FiniteAlgebra:
    """Read the algebra JSON format strictly: an object with int `size` and
    a list of `operations`, each with str `name`, int `arity` and a list
    `table`.  Raises AlgebraFormatError for anything else, and for tables
    that FiniteAlgebra rejects (entries must be ints in range(size))."""
    def build(data) -> FiniteAlgebra:
        ops = tuple(Operation(_field(o, "name", str), _field(o, "arity", int),
                              tuple(_field(o, "table", list)))
                    for o in _field(data, "operations", list))
        return FiniteAlgebra(_field(data, "size", int), ops)
    return _decode(text, build, AlgebraFormatError, "algebra")


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

class Var(_Value):
    """Leaf referencing an argument position of the condition's term symbol."""
    __slots__ = ("index",)
    index: int


class App(_Value):
    """An operation applied to argument terms.

    Equality, hashing and repr are structural, as for every value, but App
    defines its own, which walk the term without recursion, so terms of any
    depth compare and print; equality and hashing fold each shared subterm
    once.
    """

    __slots__ = ("op", "args")
    op: str
    args: tuple["Term", ...]

    def __eq__(self, other) -> bool:
        if type(other) is not App:
            return NotImplemented
        # equal terms fold to the same id: a Var is its own key, an App the
        # pair of its op and its arguments' ids
        ids: dict = {}

        def structure_id(s, kids: list[int]) -> int:
            return ids.setdefault((s.op, tuple(kids)) if type(s) is App else s, len(ids))
        return _fold(self, _subterms, structure_id) == _fold(other, _subterms, structure_id)

    def __hash__(self) -> int:
        return _fold(self, _subterms, lambda s, kids: hash((s.op, tuple(kids)))
                     if type(s) is App else hash(s))

    def __repr__(self) -> str:
        return _render(self, repr, lambda s: f"App(op={s.op!r}, args=(", ", ",
                       lambda s: ",))" if len(s.args) == 1 else "))")


Term = Var | App


def _subterms(s: Term) -> tuple[Term, ...]:
    return s.args if type(s) is App else ()


def _fold(root, children: Callable, combine: Callable):
    """combine(node, [values of children(node)]) at root, children first.

    The one walk of term DAGs.  Each distinct node (by id) is visited once,
    and children(node) is called at its first visit; the walk keeps an
    explicit stack, so a DAG of any depth folds in time linear in its size.
    The last child is visited first.
    """
    done: dict[int, object] = {}
    stack: list = [(root, None)]
    while stack:
        node, kids = stack.pop()
        if kids is not None:
            done[id(node)] = combine(node, [done[id(k)] for k in kids])
        elif id(node) not in done:
            kids = children(node)
            stack.append((node, kids))
            stack += [(k, None) for k in kids if id(k) not in done]
    return done[id(root)]


def _render(t: Term, leaf: Callable, opening: Callable, sep: str,
            closing: Callable) -> str:
    """Text of t: leaf(v) for a Var; for an App s, opening(s), the arguments'
    texts joined by sep, then closing(s).  Walks with an explicit stack, so
    any depth renders."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, str):
            out.append(s)
        elif isinstance(s, Var):
            out.append(leaf(s))
        else:
            out.append(opening(s))
            stack.append(closing(s))
            for i in range(len(s.args) - 1, -1, -1):
                stack.append(s.args[i])
                if i:
                    stack.append(sep)
    return "".join(out)


def term_to_string(t: Term) -> str:
    """`x1` for Var(0), `op(s1,..,sk)` for an application, at any depth."""
    return _render(t, lambda v: f"x{v.index + 1}", lambda s: f"{s.op}(", ",",
                   lambda s: ")")


def _apply_columns(op: Operation, size: int, cols, length: int, kind: type) -> Column:
    """The table kernel: op applied row by row to `length`-long argument
    columns, one column per argument, all of type `kind` (bytes or tuple);
    returns a column of that type.

    Bytes columns of an operation with at most 256 table entries are packed:
    each column is read as one little-endian integer, and Horner's rule
    combines them into one integer whose byte r is the table index of row
    r.  No lane carries, as every partial index is below size ** arity <=
    256, so `translate` maps the index bytes through the table at once.
    """
    if op.arity == 0:
        return kind((op.table[0],)) * length
    if kind is bytes and len(op.table) <= 256:
        index = 0
        for col in cols:
            index = index * size + int.from_bytes(col, "little")
        return index.to_bytes(length, "little").translate(op.lookup)
    index = cols[0]
    for col in cols[1:]:
        index = [i * size + x for i, x in zip(index, col)]
    return kind(map(op.table.__getitem__, index))


def _term_column(a: FiniteAlgebra, t: Term, leaves, length: int, kind: type) -> Column:
    """The `length`-row table of t, leaf x(i+1) reading the column leaves[i],
    as a column of type `kind` like the leaves.

    Folds the term DAG, composing each distinct subterm (by id) once with
    the table kernel, and raises BadTerm for an unknown operation, a wrong
    argument count or a leaf out of range.
    """
    ops = {op.name: op for op in a.operations}

    def checked(s: Term) -> tuple[Term, ...]:
        if isinstance(s, Var):
            if not 0 <= s.index < len(leaves):
                raise BadTerm(f"leaf x{s.index + 1} outside arity {len(leaves)}")
            return ()
        op = ops.get(s.op)
        if op is None:
            raise BadTerm(f"unknown operation {s.op!r}")
        if len(s.args) != op.arity:
            raise BadTerm(f"{s.op} expects {op.arity} arguments, got {len(s.args)}")
        return s.args

    def compose(s: Term, cols: list[Column]) -> Column:
        if isinstance(s, Var):
            return leaves[s.index]
        return _apply_columns(ops[s.op], a.size, cols, length, kind)
    return _fold(t, checked, compose)


def evaluate_term(a: FiniteAlgebra, t: Term, args: tuple[int, ...]) -> int:
    """Value of t at one row of arguments; raises ValueError for an argument
    outside range(a.size), and BadTerm for an unknown operation, a wrong
    argument count or a leaf outside args."""
    for x in args:
        if not 0 <= x < a.size:
            raise ValueError(f"argument {x} is not in range({a.size})")
    return _term_column(a, t, [(x,) for x in args], 1, tuple)[0]


def _concat(kind: type, columns) -> Column:
    """The columns, all of type `kind`, joined into one at C speed."""
    return b"".join(columns) if kind is bytes else tuple(chain.from_iterable(columns))


def _projections(size: int, n: int, kind: type = tuple) -> list[Column]:
    """The n projection tables over all size^n rows, last variable fastest,
    as columns of type `kind`: column j runs through range(size), each value
    size^(n-1-j) times in a row, size^j times over."""
    return [_concat(kind, [kind((x,)) * size ** (n - 1 - j) for x in range(size)]) * size ** j
            for j in range(n)]


def _column_kind(size: int) -> type:
    """The column type of the decision path: bytes, one per row, when every
    element fits in a byte, else tuple."""
    return bytes if size <= 256 else tuple


def _variable_columns(a: FiniteAlgebra, c: LoopCondition) -> dict[str, Column]:
    """Each variable of c mapped to its projection table over all rows, as a
    column of type _column_kind(a.size)."""
    return dict(zip(c.variables,
                    _projections(a.size, len(c.variables), _column_kind(a.size))))


def _differing_rows(a: FiniteAlgebra, c: LoopCondition, t: Term,
                    proj: dict[str, Column]) -> list[int]:
    """The rows where t(u1..un) and t(v1..vn) differ, as indices into proj's
    columns, ascending.

    proj maps each variable to a column of its values on some rows:
    _variable_columns(a, c) for all rows (assignments of the condition's
    variables, last variable fastest), or a slice or subset of those.
    Leaf x(i+1) reads proj[u_i] + proj[v_i], so one fold composes both
    sides over twice the rows, once per distinct subterm, and compares the
    halves.  Raises BadTerm for invalid terms.
    """
    length = len(proj[c.lhs[0]])
    both = _term_column(a, t, [proj[u] + proj[v] for u, v in zip(c.lhs, c.rhs)],
                        2 * length, _column_kind(a.size))
    left, right = both[:length], both[length:]
    if left == right:
        return []
    return list(compress(range(length), map(ne, left, right)))


def verify_witness(a: FiniteAlgebra, c: LoopCondition, t: Term) -> bool:
    """Check t(u1..un) = t(v1..vn) as functions of the condition's variables,
    over all size^|variables| assignments.  Raises BadTerm for structurally
    invalid terms."""
    return not _differing_rows(a, c, t, _variable_columns(a, c))


# ---------------------------------------------------------------------------
# compatibility and subpower closure

def is_compatible(a: FiniteAlgebra, r: "Relation") -> bool:
    """True iff r is closed under every operation applied coordinatewise:
    its closure, capped at |r| elements, stops at the first new tuple."""
    if r.universe_size != a.size:
        raise UniverseMismatch(
            f"relation over {r.universe_size} elements, algebra over {a.size}")
    return generate_subpower(a, r.arity, r.sorted_tuples(), cap=len(r.tuples)).complete


class _Closure:
    """What `_close` returns: `items` in the order the closure found them,
    whether it is `complete`, and the item `found` that stopped it, or None.

    On a found closure `items` holds only the items the worklist reached,
    then the found item: the combinations generated past them are never
    built into items.  `closure[item]` is an item's provenance, read from
    the stream as `_term_from_provenance` reads a dict: the seed's own, or
    (op name, argument items) of the first combination that generated it.
    """

    def __init__(self, seed_provenance: list):
        self.items: list = []
        self.complete = False
        self.found: object = None
        #: each item's index in the stream of generated items, first occurrence
        self.origin: dict = {}
        #: the provenance of the stream's first items, the seeds
        self.seed_provenance = seed_provenance
        #: each block as (stream index of its first item, op name, head, lo,
        #: tail): its item j is name(*head, items[lo + j], *tail)
        self.blocks: list = []

    def __getitem__(self, item) -> tuple:
        s = self.origin[item]
        if s < len(self.seed_provenance):
            return self.seed_provenance[s]
        start, name, head, lo, tail = \
            self.blocks[bisect_right(self.blocks, s, key=itemgetter(0)) - 1]
        return name, head + (self.items[lo + s - start],) + tail


def _close(seeds: list, ops, cap: int, stop: Callable | None = None) -> _Closure:
    """Worklist closure with provenance.

    seeds: list of (item, provenance), a 0-ary operation's value among
    them.  Items are equally long tuples, and a block is a tuple of their
    components, each a column (a list) of equal length.  ops: list of (name,
    arity, fn) with arity >= 1, where fn(head, column, tail) returns the
    block of items name(*head, x, *tail) for x running over the block
    `column`, whose columns are slices of the closure's own: one list per
    component of the items, extended before each step.  Step t enumerates
    each argument combination over items[0..t] that contains items[t]
    exactly once, in blocks that differ only in their last argument ranging
    over items: for a binary op, (items[t], items[j]) for j <= t, then
    (items[i], items[t]) for i < t.  A unary op takes the newest item
    alone, so a closure under unary ops stays linear.

    Blocks join a stream of generated items, kept as columns, which is
    deduplicated in order only as far as the worklist needs its next item;
    an item tuple is built only for the entries deduplicated.  Once the
    items and the rest of the stream together could hold more than `cap`
    items, it is deduplicated up to cap + 1 items or its end: items are
    counted exactly there, and the closure stops with cap + 1 items as soon
    as that many are distinct.  stop(block) is the position of the first
    item of a block that it accepts, or None; that item ends the closure
    unless the cap is passed before it.  stop must judge an item by its
    value, so the first item it accepts is a new one.
    """
    res = _Closure([p for _, p in seeds])
    items, origin, blocks = res.items, res.origin, res.blocks
    cap = max(cap, 0)  # a negative cap, like 0, ends the closure at its first item
    seed_block = list(zip(*[x for x, _ in seeds]))
    columns: list[list] = [[] for _ in seed_block]
    # the stream from index base on: `size` entries, one list per component
    # (there may be none); its first `done` are deduplicated
    pending: list[list] = [[] for _ in seed_block]
    base = done = size = 0

    def take(target: int) -> None:
        """Deduplicate the stream in order until `target` items are found or
        the stream is used up."""
        nonlocal base, done, size
        if len(items) < target:
            stream = zip(*map(islice, pending, repeat(done), repeat(None))) if pending \
                else repeat((), size - done)
            for done, x in enumerate(stream, done + 1):
                if x not in origin:
                    origin[x] = base + done - 1
                    items.append(x)
                    if len(items) == target:
                        break
        if 2 * done > size:
            for p in pending:
                del p[:done]
            base, size, done = base + done, size - done, 0

    def push(block, length: int) -> bool:
        """Append block, of `length` items, to the stream; True if the
        closure ends in it."""
        nonlocal size
        hit = None if stop is None else stop(block)
        if hit is not None:
            found = tuple(map(itemgetter(hit), block))
            block, length = [col[:hit] for col in block], hit
        for p, col in zip(pending, block):
            p.extend(col)
        size += length
        if len(items) + size - done > cap:
            take(cap + 1)
        if len(items) > cap:
            return True
        if hit is not None:
            res.found = found
            origin[found] = base + size
            items.append(found)
        return hit is not None

    if push(seed_block, len(seeds)):
        return res
    t = known = 0
    while True:
        take(t + 1)
        if len(items) <= t:
            res.complete = True
            return res
        for col, new in zip(columns, zip(*items[known:])):
            col.extend(new)
        known = len(items)
        newest = items[t]
        for name, arity, fn in ops:
            # only heads of arity >= 3 range over earlier items: copy them only then
            before, upto = (items[:t], items[:t + 1]) if arity > 2 else ((), ())
            for p in range(arity):
                # product(before^p, newest, upto^(arity-1-p)), run by run of
                # its last argument, items[lo:hi]
                if p < arity - 1:
                    heads = product(*[before] * p, (newest,), *[upto] * (arity - 2 - p))
                    lo, hi, tail = 0, t + 1, ()
                elif p:
                    heads, lo, hi, tail = product(*[before] * (p - 1)), 0, t, (newest,)
                else:
                    heads, lo, hi, tail = [()], t, t + 1, ()
                if lo == hi:
                    continue
                column = [col[lo:hi] for col in columns]
                for head in heads:
                    blocks.append((base + size, name, head, lo, tail))
                    if push(fn(head, column, tail), hi - lo):
                        return res
        t += 1


class SubpowerResult:
    """Closure of generators inside A^k, with provenance for term extraction.

    complete=False means the element cap was hit and `relation` only holds
    the elements generated so far.
    """

    def __init__(self, relation: "Relation", provenance: dict[tuple[int, ...], tuple],
                 complete: bool, elements_generated: int):
        self.relation = relation
        self.provenance = provenance
        self.complete = complete
        self.elements_generated = elements_generated


def _close_tuples(a: FiniteAlgebra, k: int, seeds: list, cap: int,
                  stop: Callable | None = None) -> _Closure:
    """`_close` of seeds, (k-tuple, provenance) pairs, under a's operations
    coordinatewise, each 0-ary operation's value a seed tagged (name, ())."""
    seeds = seeds + [(_apply_columns(op, a.size, (), k, tuple), (op.name, ()))
                     for op in a.operations if not op.arity]

    def blockwise(op: Operation):
        # a block is one kernel call on its k coordinate columns joined, each
        # head and tail item's coordinate j repeated along coordinate j's run
        # and the block's own columns between them; the result is sliced
        # back into k columns
        def fn(head, column, tail):
            length = len(column[0]) if k else 0
            cols = [_concat(tuple, map(repeat, x, repeat(length))) for x in head + tail]
            cols.insert(len(head), _concat(tuple, column))
            joined = _apply_columns(op, a.size, cols, k * length, tuple)
            return [joined[j * length:(j + 1) * length] for j in range(k)]
        return fn

    return _close(seeds, [(op.name, op.arity, blockwise(op)) for op in a.operations
                          if op.arity], cap, stop)


def generate_subpower(a: FiniteAlgebra, k: int, generators,
                      cap: int = DEFAULT_MAX_ELEMENTS) -> SubpowerResult:
    """Least subset of A^k containing the generators and closed under all
    operations coordinatewise.  Provenance: generator i has ("gen", i), an
    int payload, a generated element (op name, argument tuples); the
    payload's type tells them apart, as an operation may be named "gen"."""
    from .ppdef import Relation
    gens = [tuple(g) for g in generators]
    for g in gens:
        if len(g) != k or any(not 0 <= x < a.size for x in g):
            raise ValueError(f"generator {g} is not a valid {k}-tuple")
    res = _close_tuples(a, k, [(g, ("gen", i)) for i, g in enumerate(gens)], cap)
    return SubpowerResult(Relation(a.size, k, frozenset(res.items)),
                          {x: res[x] for x in res.items}, res.complete, len(res.items))


# ---------------------------------------------------------------------------
# the decision procedure

class Satisfied(_Value):
    __slots__ = ("term",)
    term: Term


class NotSatisfied(_Value):
    __slots__ = ()


class ResourceExceeded(_Value):
    __slots__ = ("elements_generated",)
    elements_generated: int


Decision = Satisfied | NotSatisfied | ResourceExceeded


def decision_to_json_dict(d: Decision) -> dict:
    if isinstance(d, Satisfied):
        return {"decision": "Satisfied", "witness": term_to_string(d.term)}
    if isinstance(d, NotSatisfied):
        return {"decision": "NotSatisfied"}
    return {"decision": "ResourceExceeded",
            "elements_generated": d.elements_generated}


def _term_from_provenance(item, provenance) -> Term:
    """The term that generated item: Var(i) for a seed, whose payload is the
    int i, and op(parents) for one tagged (op, parents), the parents a
    tuple.  A seed is told by its payload, not its tag, which an operation
    may share.  Folds the provenance, so any depth replays, into one Term
    per item object; the parents are the closure's own item objects, so
    shared parents give a shared DAG."""
    def parents(x) -> tuple:
        payload = provenance[x][1]
        return () if type(payload) is int else payload

    def build(x, terms: list[Term]) -> Term:
        tag, payload = provenance[x]
        return Var(payload) if type(payload) is int else App(tag, tuple(terms))
    return _fold(item, parents, build)


def _first_positions(c: LoopCondition) -> dict[tuple[str, str], int]:
    """Each edge (u, v) of c's graph, in order of first occurrence, mapped to
    the first position i with (lhs[i], rhs[i]) = (u, v)."""
    first: dict[tuple[str, str], int] = {}
    for pos, edge in enumerate(zip(c.lhs, c.rhs)):
        first.setdefault(edge, pos)
    return first


def _sides(pairs: tuple) -> tuple:
    """The left tables and the right tables of pairs, as two tuples."""
    return tuple(zip(*pairs)) or ((), ())


def _close_pairs(a: FiniteAlgebra, c: LoopCondition, columns: dict, cap: int) -> _Closure:
    """Close the pairs (proj_u, proj_v), one per deduplicated edge (u, v) of
    the condition, stopping at the first pair whose two tables are equal.

    columns maps each variable to its projection column, of type
    _column_kind(a.size), one entry per row.  Items are pairs of tables, one
    canonical object per distinct table, so an equal pair is one whose two
    tables are the same object; each seed is tagged ("pos", first position
    of its edge), each generated pair (op name, argument pairs).  A block is
    its column of left tables and its column of right tables.
    """
    kind, length = _column_kind(a.size), len(next(iter(columns.values())))
    canonical: dict[Column, Column] = {}

    def blockwise(op: Operation):
        # one memo row per (head tables, tail tables): the table x of the
        # argument that runs over a block -> op(*head, x, *tail)
        rows: dict[tuple, dict[Column, Column]] = {}

        def side(head: tuple, xs: list, tail: tuple) -> list:
            # read from the row when it holds every x (not tried on a fresh
            # row, nor on one that lacks the last x); else compose first
            # what it lacks
            row = rows.get((head, tail))
            if row is None:
                row = rows[head, tail] = {}
            elif xs[-1] in row:
                try:
                    return list(map(row.__getitem__, xs))
                except KeyError:
                    pass
            # all missing tables in one kernel call: each head and tail table
            # repeated once per missing table, those joined
            missing = list(set(xs).difference(row))
            m = len(missing)
            table = _apply_columns(op, a.size, [h * m for h in head] + [_concat(kind, missing)]
                                   + [x * m for x in tail], m * length, kind)
            for i, x in enumerate(missing):
                piece = table[i * length:(i + 1) * length]
                row[x] = canonical.setdefault(piece, piece)
            return list(map(row.__getitem__, xs))

        def fn(head, column, tail):
            (hl, hr), (tl, tr), (lefts, rights) = _sides(head), _sides(tail), column
            return side(hl, lefts, tl), side(hr, rights, tr)
        return fn

    def first_equal(block) -> int | None:
        return next(compress(count(), map(is_, *block)), None)

    proj = {v: canonical.setdefault(col, col) for v, col in columns.items()}
    seeds = [((proj[u], proj[v]), ("pos", pos))
             for (u, v), pos in _first_positions(c).items()]
    for op in a.operations:
        if not op.arity:
            const = _apply_columns(op, a.size, (), length, kind)
            const = canonical.setdefault(const, const)
            seeds.append(((const, const), (op.name, ())))
    ops = [(op.name, op.arity, blockwise(op)) for op in a.operations if op.arity]
    return _close(seeds, ops, cap, stop=first_equal)


#: _refine folds a failing candidate on the first _WINDOW * max(1, |R|) rows
#: before the rest, which it needs only when they hold too few differing rows
_WINDOW = 64


def _refine(a: FiniteAlgebra, c: LoopCondition, max_elements: int) -> Decision:
    """The closure decision of c on a row subset R that starts empty and
    grows on failed candidates (see satisfies_condition).

    A candidate is folded on a window of the first rows, and on the other
    rows only when the window holds fewer differing rows than R takes, so a
    failing candidate is mostly checked on a prefix.  Each candidate
    extracted from the closure on R is folded on R's own columns, where it
    must hold.
    """
    full = _variable_columns(a, c)
    rows = a.size ** len(c.variables)
    kind = _column_kind(a.size)
    subset: list[int] = []
    # on no rows every pair is equal, so the closure would stop at its first
    # seed, the projection pair of position 0: the first candidate is x1
    term: Term = Var(0)
    while True:
        take = max(1, len(subset))
        cut = _WINDOW * take
        differ = _differing_rows(a, c, term, {v: col[:cut] for v, col in full.items()})
        if len(differ) < take and cut < rows:
            rest = _differing_rows(a, c, term, {v: col[cut:] for v, col in full.items()})
            differ += [cut + row for row in rest]
        if not differ:
            return Satisfied(term)
        for row in differ[:take]:
            insort(subset, row)
        columns = {v: kind(map(col.__getitem__, subset)) for v, col in full.items()}
        res = _close_pairs(a, c, columns, max_elements)
        if res.found is None:
            return NotSatisfied() if res.complete else ResourceExceeded(len(res.items))
        term = _term_from_provenance(res.found, res)
        if _differing_rows(a, c, term, columns):
            raise AssertionError("extracted witness differs on a row it was closed over")


def _reindex(t: Term, positions: list[int]) -> Term:
    """t with every leaf Var(j) replaced by Var(positions[j]), rebuilt by one
    fold, so sharing is kept and any depth works."""
    return _fold(t, _subterms, lambda s, args: App(s.op, tuple(args))
                 if type(s) is App else Var(positions[s.index]))


def _constant_term(a: FiniteAlgebra, max_elements: int) -> Term | None:
    """A constant unary term c(x1) of a, or None if none shows up within
    max_elements // a.size unary terms (max_elements table entries).

    Closes the unary term operations, tuples over A from the identity map,
    and stops at the first constant one.  The term replayed from it is
    evaluated on A's elements, and AssertionError is raised unless every
    value is the same: that check certifies t(x1..xn) = c(x1) as a witness
    of every loop condition, whatever its number of rows.
    """
    def first_constant(block) -> int | None:
        return next(compress(count(), map((1).__eq__, map(len, map(set, zip(*block))))), None)

    identity = tuple(range(a.size))
    res = _close_tuples(a, a.size, [(identity, ("gen", 0))], max_elements // a.size,
                        stop=first_constant)
    if res.found is None:
        return None
    term = _term_from_provenance(res.found, res)
    if len(set(_term_column(a, term, [identity], a.size, tuple))) != 1:
        raise AssertionError("unary term found constant takes more than one value")
    return term


def satisfies_condition(a: FiniteAlgebra, c: LoopCondition, *,
                        max_entries: int = DEFAULT_MAX_ENTRIES,
                        max_elements: int = DEFAULT_MAX_ELEMENTS) -> Decision:
    """Decide whether the algebra has a term satisfying the identity.

    The condition holds iff the subpower of pair-tables over the
    size^|variables| rows generated by (proj_u, proj_v), one per
    deduplicated condition-graph edge, holds a pair with equal coordinates.
    That closure is computed on a row subset R, which starts empty:

    - no equal pair on R: NotSatisfied, since the closure projected onto R
      is the closure of the projected generators, and an equal pair over
      all rows would project to one on R;
    - an equal pair on R: its provenance is replayed into a term, whose two
      sides are checked to agree on R and then compared over all rows.  If
      they agree the term is the witness; otherwise the first max(1, |R|)
      rows where they differ (all, if fewer) join R, none of them in R as
      the sides agree there, and the closure is redone.  The comparison
      reads a window of the first _WINDOW * max(1, |R|) rows, and the rest
      only when the window holds fewer than max(1, |R|) differing rows.

    Taking up to |R| rows lets R double per round, so when candidates keep
    failing, few rounds redo a large closure.  R grows to all rows at most,
    where the closure is the full one.

    The condition graph G is first reduced to its core C (graph.core), and
    when C is smaller the condition of C (C's edges in sorted order, G's
    variable names) is decided instead.  G and C map to each other, so
    their conditions are equivalent:

    - NotSatisfied on C is returned once the retraction G -> C is checked
      to be a homomorphism, which carries any witness for G to one for C;
    - Satisfied on C: C's witness is carried to G along the inclusion
      C -> G, leaf x(j+1) going to the first position of G whose edge is
      C's edge j, and returned once it is checked on all rows of G;
    - ResourceExceeded on C: G's own closure decides, as it does when G is
      its own core or the core search runs over its budget.

    Where G's closure on R passes max_elements, or size^|variables| exceeds
    max_entries (G's variables, even where C has fewer), the unary terms of
    the algebra are closed from the identity map, up to max_elements // size
    terms, and the first constant one c is returned as Satisfied(c(x1)):
    it is checked to take one value on all of A, so t(u1..un) = c(u1) =
    c(v1) = t(v1..vn) on every row, however many rows there are.

    A soundness check that fails raises AssertionError.

    Honest resource outcomes, where no constant unary term shows up: raises
    ExponentCap if size^|variables| exceeds max_entries, and returns
    ResourceExceeded when the closure on R passes max_elements.  Its
    elements_generated counts that closure, which is never larger than the
    full one.
    """
    n = len(c.variables)
    rows = a.size ** n
    if rows > max_entries:
        term = _constant_term(a, max_elements)
        if term is None:
            raise ExponentCap(
                f"free-algebra tables need {rows} entries, cap is {max_entries}")
        return Satisfied(term)

    g = condition_graph(c)
    try:
        retraction = core(g)
    except BudgetExceeded:  # the core only saves work: decide G as it is
        retraction = None
    if retraction is not None and retraction.target.n < g.n:
        small = condition_from_graph(retraction.target, c.symbol)
        on_core = _refine(a, small, max_elements)
        if isinstance(on_core, NotSatisfied):
            if retraction.source != g or not retraction.is_valid():
                raise AssertionError("core refutation has no valid retraction to carry it")
            return on_core
        if isinstance(on_core, Satisfied):
            first = _first_positions(c)
            positions = [first.get(edge) for edge in zip(small.lhs, small.rhs)]
            if None in positions:
                raise AssertionError("core edge is not an edge of the condition graph")
            term = _reindex(on_core.term, positions)
            if not verify_witness(a, c, term):
                raise AssertionError("witness carried from the core fails on the condition")
            return Satisfied(term)
    decision = _refine(a, c, max_elements)
    if isinstance(decision, ResourceExceeded):
        term = _constant_term(a, max_elements)
        if term is not None:
            return Satisfied(term)
    return decision


# ---------------------------------------------------------------------------
# affine fast path

def _affine_least(m: int, n: int, edges: list) -> tuple[int, ...] | None:
    """The least coefficients, read from the last edge back, that sum to 1
    mod m and balance every vertex of 0..n-1 mod m, one per edge; or None.

    Balanced coefficients are a flow mod m on the edges.  Let pot and the
    component roots be _potentials of the still-free edges, P the sum of
    excess[w] * pot[w] and g the gcd of m and the discrepancies
    pot[a] + 1 - pot[b] of the free edges (a, b).  A flow of the free edges
    carrying excess[w] out of each vertex w exists iff each weak component's
    excess sums to 0 mod m; such a flow sums to -P plus multiples of the
    cycles' discrepancies, so one sums to `need` iff need + P = 0 mod g.
    With every edge free this is g = 1.  Then edges are fixed from the last
    back, each to its least value x that keeps the rest feasible, so every
    step has one: an edge (u, v) whose ends the earlier edges leave in two
    components must carry u's component's excess, and otherwise x solves
    (1 + pot[u] - pot[v]) x = need + P mod g, for pot, P and g of the
    earlier edges.
    """
    def free(rest: list) -> tuple[list[int], list[int], int]:
        pot, root = _potentials(n, rest)
        return pot, root, gcd(m, *(pot[a] + 1 - pot[b] for a, b in rest))

    if free(edges)[2] != 1:
        return None
    excess, need, x = [0] * n, 1, [0] * len(edges)
    for i in reversed(range(len(edges))):
        (u, v), (pot, root, g) = edges[i], free(edges[:i])
        if root[u] != root[v]:
            x[i] = sum(e for e, r in zip(excess, root) if r == root[u]) % m
        else:
            a, b = 1 + pot[u] - pot[v], need + sum(map(mul, excess, pot))
            d = gcd(a, g)
            x[i] = b // d * pow(a // d, -1, g // d) % (g // d)
        excess[u] -= x[i]
        excess[v] += x[i]
        need -= x[i]
    return tuple(x)


def affine_satisfies(m: int, c: LoopCondition) -> tuple[int, ...] | None:
    """Coefficients of an affine witness over (Z_m, x + y - z), or None.

    The term clone of (Z_m, x+y-z) is exactly the maps sum(c_i x_i) with
    sum(c_i) = 1 (mod m), so the condition holds there iff some such vector
    balances each variable's left and right occurrences: iff m is coprime
    to the gcd of the condition graph's cycle discrepancies (_affine_least).
    The answer, exact for every modulus, is the least such vector read from
    the last position back; for a prime m that is what elimination with
    ascending pivots and free variables 0 gives.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    index = {w: i for i, w in enumerate(c.variables)}
    edges = [(index[u], index[v]) for u, v in zip(c.lhs, c.rhs)]
    return _affine_least(m, len(index), edges)


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
