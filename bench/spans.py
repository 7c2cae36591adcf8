"""Spans around loopcond's public functions, recorded from outside the package.

Each traced function is replaced, as every calling module binds it, by a
wrapper that records one span: name, start, end, parent span, arguments and
result (or exception).  Spans stay in memory; ``layer_metrics`` turns one
traced batch into the per-layer metrics once the batch is over, so counting
costs nothing inside the timed spans.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

#: span name, function name, modules whose binding is replaced (the first
#: one owns the function).  A binding a module no longer has is skipped.
PATCHES = (
    ("identity.parse", "parse_condition", ("identity",)),
    ("identity.condition_graph", "condition_graph", ("identity", "algebra", "classify")),
    ("graph.find_hom", "find_hom", ("graph", "constructions", "classify")),
    ("ppdef.evaluate", "evaluate", ("ppdef", "constructions")),
    ("ppdef.witness", "witness", ("ppdef", "constructions")),
    ("constructions.walk_relation", "walk_relation", ("constructions",)),
    ("constructions.cycle_reduction", "verify_cycle_reduction", ("constructions",)),
    ("constructions.clique_claims", "verify_clique_claims", ("constructions",)),
    ("algebra.satisfies", "satisfies_condition", ("algebra",)),
    ("algebra.verify_witness", "verify_witness", ("algebra",)),
    ("classify.classify", "classify", ("classify", "cli")),
    ("classify.implies_by_hom", "implies_by_hom", ("classify", "cli")),
)

# span fields
NAME, START, END, PARENT, ARGS, RESULT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, args, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[RESULT] = exc
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            span[RESULT] = result
            return result
        return traced

    @contextmanager
    def patched(self):
        """Replace every binding in PATCHES for the duration of the block."""
        saved = []
        try:
            for span_name, attr, modules in PATCHES:
                mods = [importlib.import_module(f"loopcond.{m}") for m in modules]
                wrapper = self.wrap(span_name, getattr(mods[0], attr))
                for mod in mods:
                    if hasattr(mod, attr):
                        saved.append((mod, attr, getattr(mod, attr)))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


def _term_stats(term) -> tuple[int, int, int]:
    """Tree size, DAG size (distinct node objects) and depth of a term."""
    memo: dict[int, tuple[int, int]] = {}

    def visit(t) -> tuple[int, int]:
        key = id(t)
        if key not in memo:
            args = getattr(t, "args", ())
            subs = [visit(s) for s in args]
            memo[key] = (1 + sum(s[0] for s in subs), 1 + max((s[1] for s in subs), default=0))
        return memo[key]

    size, depth = visit(term)
    return size, len(memo), depth


def layer_metrics(spans: list[list], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced batch that took `wall` seconds."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    m: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0) + value

    for key in ("algebra.satisfies_s", "algebra.verify_witness_s", "algebra.closure_s",
                "algebra.rows", "algebra.satisfied", "algebra.not_satisfied",
                "algebra.resource_exceeded", "algebra.elements_generated",
                "algebra.witness_tree_nodes", "algebra.witness_dag_nodes",
                "algebra.witness_depth",
                "graph.find_hom_s", "graph.find_hom_calls", "graph.find_hom_found_s",
                "graph.find_hom_refuted_s", "graph.find_hom_found",
                "graph.find_hom_refuted", "graph.budget_exceeded",
                "ppdef.evaluate_s", "ppdef.evaluate_calls", "ppdef.evaluate_tuples",
                "ppdef.witness_s", "ppdef.witness_calls", "ppdef.witness_found",
                "constructions.cycle_reduction_s", "constructions.clique_claims_s",
                "constructions.walk_relation_s", "constructions.self_s",
                "constructions.checks_passed", "constructions.checks_total",
                "classify.implies_by_hom_s", "classify.classify_s", "classify.self_s",
                "identity.parse_s", "identity.condition_graph_s", "cli.self_s"):
        m[key] = 0
    top = 0.0
    for i, s in enumerate(spans):
        name, result = s[NAME], s[RESULT]
        dur = s[END] - s[START]
        self_time = dur - child_time[i]
        layer = name.split(".", 1)[0]
        if s[PARENT] < 0:
            top += dur
        if layer in ("constructions", "classify", "cli"):
            add(f"{layer}.self_s", self_time)
        kind = type(result).__name__
        if name == "algebra.satisfies":
            a, c = s[ARGS][0], s[ARGS][1]
            add("algebra.satisfies_s", dur)
            add("algebra.closure_s", self_time)
            add("algebra.rows", a.size ** len(c.variables))
            if kind == "Satisfied":
                add("algebra.satisfied", 1)
                size, dag, depth = _term_stats(result.term)
                add("algebra.witness_tree_nodes", size)
                add("algebra.witness_dag_nodes", dag)
                m["algebra.witness_depth"] = max(m["algebra.witness_depth"], depth)
            elif kind == "NotSatisfied":
                add("algebra.not_satisfied", 1)
            elif kind == "ResourceExceeded":
                add("algebra.resource_exceeded", 1)
                add("algebra.elements_generated", result.elements_generated)
        elif name == "algebra.verify_witness":
            add("algebra.verify_witness_s", dur)
        elif name == "graph.find_hom":
            add("graph.find_hom_s", dur)
            add("graph.find_hom_calls", 1)
            if kind == "BudgetExceeded":
                add("graph.budget_exceeded", 1)
            elif result is None:
                add("graph.find_hom_refuted", 1)
                add("graph.find_hom_refuted_s", dur)
            elif not isinstance(result, Exception):
                add("graph.find_hom_found", 1)
                add("graph.find_hom_found_s", dur)
        elif name == "ppdef.evaluate":
            add("ppdef.evaluate_s", dur)
            add("ppdef.evaluate_calls", 1)
            if hasattr(result, "tuples"):
                add("ppdef.evaluate_tuples", len(result.tuples))
        elif name == "ppdef.witness":
            add("ppdef.witness_s", dur)
            add("ppdef.witness_calls", 1)
            if result is not None and not isinstance(result, Exception):
                add("ppdef.witness_found", 1)
        elif name in ("constructions.cycle_reduction", "constructions.clique_claims",
                      "constructions.walk_relation"):
            add(name + "_s", dur)
            if hasattr(result, "checks"):
                add("constructions.checks_total", len(result.checks))
                add("constructions.checks_passed", sum(c.passed for c in result.checks))
        elif name == "classify.implies_by_hom":
            add("classify.implies_by_hom_s", dur)
        elif name == "classify.classify":
            add("classify.classify_s", dur)
        elif name == "identity.parse":
            add("identity.parse_s", dur)
        elif name == "identity.condition_graph":
            add("identity.condition_graph_s", dur)
    m["trace.loop_share"] = (wall - top) / wall if wall > 0 else 0.0
    return m


def spans_to_json(spans: list[list], t0: float) -> list[dict]:
    """Spans as JSON records, times in seconds from t0."""
    return [{"name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
             "parent": s[PARENT], "result": type(s[RESULT]).__name__}
            for s in spans]
