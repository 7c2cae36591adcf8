"""Command-line interface.

Exit codes: 0 for a positive answer, 1 for a negative mathematical answer
(no homomorphism found, condition not satisfied, a verification check
failed), 2 for usage or resource errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import algebra as alg
from . import constructions as cons
from . import graph as gr
from . import identity as ident
from .classify import classification_to_json_dict, classify, equivalence_note, implies_by_hom
from .errors import LoopcondError


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _cmd_parse(args) -> int:
    c = ident.parse_condition(args.identity)
    g = ident.condition_graph(c)
    if args.dot:
        print(gr.to_dot(g), end="")
        return 0
    if args.json:
        print(_dumps({
            "condition": ident.print_condition(c),
            "symbol": c.symbol,
            "arity": c.arity,
            "variables": list(c.variables),
            "graph": gr.graph_to_json_dict(g),
        }))
        return 0
    print(ident.print_condition(c))
    print("variables:", " ".join(c.variables))
    edges = " ".join(f"{g.label(a)}->{g.label(b)}" for a, b in g.sorted_edges())
    print("edges:", edges)
    return 0


def _cmd_classify(args) -> int:
    c = ident.parse_condition(args.identity)
    result = classify(c)
    if args.json:
        print(_dumps(classification_to_json_dict(result)))
    else:
        print(f"class: {result.kind.value}")
        print(equivalence_note(result))
    return 0


def _cmd_implies(args) -> int:
    c = ident.parse_condition(args.identity)
    d = ident.parse_condition(args.other)
    hom = implies_by_hom(c, d, budget=args.budget)
    gc = ident.condition_graph(c)
    gd = ident.condition_graph(d)
    if args.json:
        payload = {"found": hom is not None,
                   "map": {gc.label(i): gd.label(v)
                           for i, v in enumerate(hom.mapping)} if hom else None}
        print(_dumps(payload))
    elif hom is not None:
        assignment = ", ".join(f"{gc.label(i)}->{gd.label(v)}"
                               for i, v in enumerate(hom.mapping))
        print(f"implication witnessed by homomorphism: {assignment}")
    else:
        print("not established: no graph homomorphism exists "
              "(a reduction proof may still apply)")
    return 0 if hom is not None else 1


def _cmd_satisfies(args) -> int:
    if args.algebra is None and args.affine is None:
        print("satisfies: need --algebra FILE and/or --affine M", file=sys.stderr)
        return 2
    c = ident.parse_condition(args.identity)
    payload: dict = {"condition": ident.print_condition(c)}
    decision = None
    if args.algebra is not None:
        a = alg.algebra_from_json(Path(args.algebra).read_text())
        decision = alg.satisfies_condition(a, c, max_entries=args.max_entries,
                                           max_elements=args.max_elements)
        payload.update(alg.decision_to_json_dict(decision))
    affine = None
    if args.affine is not None:
        affine = alg.affine_satisfies(args.affine, c)
        payload["affine_modulus"] = args.affine
        payload["affine_coefficients"] = list(affine) if affine else None
    agreement = None
    if decision is not None and affine is not None \
            and not isinstance(decision, alg.ResourceExceeded):
        agreement = (affine is not None) == isinstance(decision, alg.Satisfied)
        payload["oracles_agree"] = agreement
        if not agreement:
            print("warning: affine oracle disagrees with the closure decision; "
                  f"is the algebra (Z_{args.affine}, x+y-z)?", file=sys.stderr)
    if args.json:
        print(_dumps(payload))
    else:
        if decision is not None:
            if isinstance(decision, alg.Satisfied):
                print(f"Satisfied: t = {alg.term_to_string(decision.term)}")
            elif isinstance(decision, alg.NotSatisfied):
                print("NotSatisfied")
            else:
                print(f"ResourceExceeded after {decision.elements_generated} elements")
        if args.affine is not None:
            if affine is not None:
                coeffs = ",".join(str(x) for x in affine)
                print(f"affine mod {args.affine}: coefficients ({coeffs})")
            else:
                print(f"affine mod {args.affine}: no solution")
    if decision is not None:
        if isinstance(decision, alg.Satisfied):
            return 0
        if isinstance(decision, alg.NotSatisfied):
            return 1
        return 2
    return 0 if affine is not None else 1


def _cmd_verify(args) -> int:
    if args.clique_n is None and args.cycle_k is None:
        print("verify: need --clique-n N and/or --cycle-k K", file=sys.stderr)
        return 2
    reports: dict[str, cons.Report] = {}
    if args.cycle_k is not None:
        reports["cycle_reduction"] = cons.verify_cycle_reduction(args.cycle_k)
    if args.clique_n is not None:
        reports["clique_claims"] = cons.verify_clique_claims(args.clique_n)
    ok = all(r.all_pass for r in reports.values())
    if args.json:
        payload = {name: r.to_json_dict() for name, r in reports.items()}
        payload["all_pass"] = ok
        print(_dumps(payload))
    else:
        for name, report in sorted(reports.items()):
            for check in report.checks:
                print(f"{'PASS' if check.passed else 'FAIL'} {name}.{check.name}")
    return 0 if ok else 1


def _cmd_graph_info(args) -> int:
    c = ident.parse_condition(args.identity)
    g = ident.condition_graph(c)
    symmetric = gr.is_symmetric(g)
    connected = gr.is_weakly_connected(g)
    info = {
        "condition": ident.print_condition(c),
        "n": g.n,
        "edges": [list(e) for e in g.sorted_edges()],
        "has_loop": gr.has_loop(g),
        "symmetric": symmetric,
        "bipartite": gr.is_bipartite(g) if symmetric else None,
        "odd_girth": gr.odd_girth(g) if symmetric else None,
        "smooth": gr.is_smooth(g),
        "weakly_connected": connected,
        "algebraic_length": gr.algebraic_length(g) if connected else None,
    }
    if args.json:
        print(_dumps(info))
    else:
        for key in ("has_loop", "symmetric", "bipartite", "odd_girth", "smooth",
                    "weakly_connected", "algebraic_length"):
            print(f"{key}: {info[key]}")
    return 0


def _cmd_audit(args) -> int:
    print(_dumps(alg.affine_remark_audit()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopcond",
        description="Parse, classify and decide single-equation loop conditions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="print the assigned graph of an identity")
    p.add_argument("identity")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of text")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("classify", help="classify an identity")
    p.add_argument("identity")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("implies",
                       help="search a graph homomorphism witnessing implication")
    p.add_argument("identity")
    p.add_argument("other")
    p.add_argument("--budget", type=int, default=gr.DEFAULT_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_implies)

    p = sub.add_parser("satisfies",
                       help="decide an identity over a finite algebra")
    p.add_argument("identity")
    p.add_argument("--algebra", help="algebra JSON file")
    p.add_argument("--max-entries", type=int, default=alg.DEFAULT_MAX_ENTRIES)
    p.add_argument("--max-elements", type=int, default=alg.DEFAULT_MAX_ELEMENTS)
    p.add_argument("--affine", type=int,
                   help="also run the (Z_M, x+y-z) fast path and cross-check")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_satisfies)

    p = sub.add_parser("verify", help="run the reduction verification reports")
    p.add_argument("--clique-n", type=int)
    p.add_argument("--cycle-k", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("graph-info",
                       help="structural predicates of an identity's graph")
    p.add_argument("identity")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_graph_info)

    p = sub.add_parser("audit",
                       help="audit the (Z_3, x+y-z) separation claim")
    p.set_defaults(fn=_cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except LoopcondError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
