"""Command-line interface.

Each subcommand returns (exit code, payload, text): payload is the dict that
--json prints, or None where the command has no JSON form (parse --dot, the
usage errors), and text is the exact human-readable stdout.  Only main writes
stdout; warnings and errors go to stderr.

Exit codes: 0 for a positive answer, 1 for a negative mathematical answer
(no homomorphism found, condition not satisfied, a verification check
failed), 2 for usage or resource errors, 3 for an internal error: a
soundness check found that a solver's answer does not check out, or any
other unexpected exception, reported on one stderr line without a traceback.

Every process imports only what its subcommand runs.  parse, classify,
graph-info and implies need the graph side alone, which `import loopcond`
loads; satisfies and audit import algebra, and verify imports
constructions (with ppdef), inside the subcommand.  So the parser reads no
algebra constant: omitted --max-entries and --max-elements are None, and
satisfies applies algebra's defaults.  The work caps (--budget,
--max-entries, --max-elements) must not be negative, or parsing exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import graph as gr
from . import identity as ident
from .classify import classification_to_json_dict, classify, implies_by_hom
from .errors import LoopcondError


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# what every _cmd_* returns: exit code, --json payload or None, stdout text
Result = tuple[int, dict | None, str]


def _text(*lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _cmd_parse(args) -> Result:
    c = ident.parse_condition(args.identity)
    g = ident.condition_graph(c)
    if args.dot:
        return 0, None, gr.to_dot(g)
    condition = ident.print_condition(c)
    edges = " ".join(f"{g.label(a)}->{g.label(b)}" for a, b in g.sorted_edges())
    return 0, {
        "condition": condition,
        "symbol": c.symbol,
        "arity": c.arity,
        "variables": list(c.variables),
        "graph": gr.graph_to_json_dict(g),
    }, _text(condition, f"variables: {' '.join(c.variables)}", f"edges: {edges}")


def _cmd_classify(args) -> Result:
    payload = classification_to_json_dict(classify(ident.parse_condition(args.identity)))
    return 0, payload, _text(f"class: {payload['class']}", payload["note"])


def _cmd_implies(args) -> Result:
    c = ident.parse_condition(args.identity)
    d = ident.parse_condition(args.other)
    hom = implies_by_hom(c, d, budget=args.budget)
    if hom is None:
        return 1, {"found": False, "map": None}, _text(
            "not established: no graph homomorphism exists "
            "(a reduction proof may still apply)")
    pairs = [(hom.source.label(i), hom.target.label(v)) for i, v in enumerate(hom.mapping)]
    assignment = ", ".join(f"{a}->{b}" for a, b in pairs)
    return 0, {"found": True, "map": dict(pairs)}, _text(
        f"implication witnessed by homomorphism: {assignment}")


# exit code and text line of each closure decision kind
_DECISIONS = {
    "Satisfied": (0, "Satisfied: t = {witness}"),
    "NotSatisfied": (1, "NotSatisfied"),
    "ResourceExceeded": (2, "ResourceExceeded after {elements_generated} elements"),
}


def _cmd_satisfies(args) -> Result:
    if args.algebra is None and args.affine is None:
        print("satisfies: need --algebra FILE and/or --affine M", file=sys.stderr)
        return 2, None, ""
    from . import algebra as alg
    c = ident.parse_condition(args.identity)
    payload: dict = {"condition": ident.print_condition(c)}
    lines = []
    code = None
    if args.algebra is not None:
        with open(args.algebra) as f:
            text = f.read()
        a = alg.algebra_from_json(text)
        max_entries, max_elements = args.max_entries, args.max_elements
        payload.update(alg.decision_to_json_dict(alg.satisfies_condition(
            a, c,
            max_entries=alg.DEFAULT_MAX_ENTRIES if max_entries is None else max_entries,
            max_elements=alg.DEFAULT_MAX_ELEMENTS if max_elements is None else max_elements)))
        code, line = _DECISIONS[payload["decision"]]
        lines.append(line.format(**payload))
    if args.affine is not None:
        affine = alg.affine_satisfies(args.affine, c)
        payload["affine_modulus"] = args.affine
        payload["affine_coefficients"] = list(affine) if affine else None
        found = affine is not None
        lines.append(f"affine mod {args.affine}: " + (
            f"coefficients ({','.join(str(x) for x in affine)})" if found else "no solution"))
        if code is None:
            code = 0 if found else 1
        elif code != 2:  # both oracles answered
            payload["oracles_agree"] = (code == 0) == found
            if not payload["oracles_agree"]:
                print("warning: affine oracle disagrees with the closure decision; "
                      f"is the algebra (Z_{args.affine}, x+y-z)?", file=sys.stderr)
    return code, payload, _text(*lines)


def _cmd_verify(args) -> Result:
    if args.clique_n is None and args.cycle_k is None:
        print("verify: need --clique-n N and/or --cycle-k K", file=sys.stderr)
        return 2, None, ""
    from . import constructions as cons
    reports: dict[str, cons.Report] = {}
    if args.cycle_k is not None:
        reports["cycle_reduction"] = cons.verify_cycle_reduction(args.cycle_k)
    if args.clique_n is not None:
        reports["clique_claims"] = cons.verify_clique_claims(args.clique_n)
    ok = all(r.all_pass for r in reports.values())
    payload = {name: r.to_json_dict() for name, r in reports.items()}
    payload["all_pass"] = ok
    return 0 if ok else 1, payload, _text(
        *(f"{'PASS' if check.passed else 'FAIL'} {name}.{check.name}"
          for name, report in sorted(reports.items()) for check in report.checks))


def _cmd_graph_info(args) -> Result:
    c = ident.parse_condition(args.identity)
    g = ident.condition_graph(c)
    symmetric = gr.is_symmetric(g)
    connected = gr.is_weakly_connected(g)
    girth = gr.odd_girth(g) if symmetric else None
    predicates = {
        "has_loop": gr.has_loop(g),
        "symmetric": symmetric,
        "bipartite": girth is None if symmetric else None,
        "odd_girth": girth,
        "smooth": gr.is_smooth(g),
        "weakly_connected": connected,
        "algebraic_length": gr.algebraic_length(g) if connected else None,
    }
    info = {"condition": ident.print_condition(c), **gr.graph_to_json_dict(g), **predicates}
    return 0, info, _text(*(f"{key}: {value}" for key, value in predicates.items()))


def _cmd_audit(args) -> Result:
    from . import algebra as alg
    return 0, None, _text(_dumps(alg.affine_remark_audit()))


def _count(text: str) -> int:
    """argparse type of the work caps: an int that is not negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


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
    p.add_argument("--budget", type=_count, default=gr.DEFAULT_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_implies)

    p = sub.add_parser("satisfies",
                       help="decide an identity over a finite algebra")
    p.add_argument("identity")
    p.add_argument("--algebra", help="algebra JSON file")
    # omitted caps are None; _cmd_satisfies applies algebra's defaults
    p.add_argument("--max-entries", type=_count)
    p.add_argument("--max-elements", type=_count)
    p.add_argument("--affine", type=int,
                   help="also run the (Z_M, x+y-z) fast path and cross-check")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_satisfies)

    p = sub.add_parser("verify", help="run the reduction verification reports")
    p.add_argument("--clique-n", type=int, metavar="N",
                   help="check the clique-reduction claims on K_N and K_(N+1); "
                        "N in 3..6")
    p.add_argument("--cycle-k", type=int, metavar="K",
                   help="check the cycle-reduction facts on C_(K^2) and C_(K+2); "
                        "odd K in 3..49")
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
        code, payload, text = args.fn(args)
        if getattr(args, "json", False) and payload is not None:
            text = _text(_dumps(payload))
        print(text, end="")
        return code
    except (LoopcondError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
