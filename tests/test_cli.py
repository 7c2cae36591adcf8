import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loopcond

from helpers import pool_algebra
from loopcond import (SIGGERS_IDENTITY, algebra, algebra_to_json, clique,
                      condition_from_graph, graph, mod_affine_algebra, projection_algebra)
from loopcond.cli import build_parser, main

SMOOTH = "s(a,r,e,a)=s(r,a,r,e)"
FIVE = "t(a,b,b,c,c,d,d,e,e,a)=t(b,a,c,b,d,c,e,d,a,e)"
SEVEN = "t(a,b,b,c,c,d,d,e,e,f,f,g,g,a)=t(b,a,c,b,d,c,e,d,f,e,g,f,a,g)"
COMM = "t(x,y)=t(y,x)"
PATH3 = "t(x,y,y,z)=t(y,x,z,y)"  # the symmetric path x-y-z: bipartite
# the symmetric 9-cycle a..i with the pendant path i-j-k
C9_PENDANT = ("t(a,b,b,c,c,d,d,e,e,f,f,g,g,h,h,i,i,a,i,j,j,k)"
              "=t(b,a,c,b,d,c,e,d,f,e,g,f,h,g,i,h,a,i,j,i,k,j)")
Z2 = None  # stands for the z2_file fixture in argv lists
# stand for files of the pool algebras (helpers.pool_algebra) in FROZEN_RUNS
POOL_4_9, POOL_4_0 = (4, 9), (4, 0)


@pytest.fixture
def z2_file(tmp_path):
    target = tmp_path / "z2.json"
    target.write_text(algebra_to_json(mod_affine_algebra(2)))
    return str(target)


def test_parse_human(capsys) -> None:
    assert main(["parse", "t( x , y )=t(y,x)"]) == 0
    out = capsys.readouterr().out
    assert "t(x,y)=t(y,x)" in out
    assert "variables: x y" in out
    assert "x->y" in out


def test_parse_dot(capsys) -> None:
    assert main(["parse", SIGGERS_IDENTITY, "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph {")
    assert '"x" -- "y";' in out


def test_parse_json(capsys) -> None:
    assert main(["parse", SIGGERS_IDENTITY, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["arity"] == 6
    assert data["variables"] == ["x", "y", "z"]
    assert data["graph"]["n"] == 3
    assert len(data["graph"]["edges"]) == 6


def test_parse_error_exit_code(capsys) -> None:
    assert main(["parse", "t(x,y)=s(y,x)"]) == 2
    assert "error" in capsys.readouterr().err


def test_classify_siggers(capsys) -> None:
    assert main(["classify", SIGGERS_IDENTITY]) == 0
    out = capsys.readouterr().out
    assert "NonbipartiteLoopless" in out
    assert main(["classify", SIGGERS_IDENTITY, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["class"] == "NonbipartiteLoopless"
    assert "weakest non-trivial" in data["note"]


def test_implies_exit_codes(capsys) -> None:
    assert main(["implies", FIVE, SIGGERS_IDENTITY]) == 0
    assert "homomorphism" in capsys.readouterr().out
    assert main(["implies", SIGGERS_IDENTITY, FIVE]) == 1
    assert "not established" in capsys.readouterr().out
    assert main(["implies", SIGGERS_IDENTITY, FIVE, "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["found"] is False


def test_implies_between_clique_conditions_needs_no_budget(capsys) -> None:
    # K10 -> K9 is refuted by pigeonhole before the search spends anything
    k10, k9 = (condition_from_graph(clique(n)) for n in (10, 9))
    argv = [f"t({','.join(c.lhs)})=t({','.join(c.rhs)})" for c in (k10, k9)]
    assert main(["implies", *argv, "--budget", "0"]) == 1
    assert capsys.readouterr().out == ("not established: no graph homomorphism exists "
                                       "(a reduction proof may still apply)\n")


def test_implies_prints_the_variable_map(capsys) -> None:
    args = ["implies", "t(x,y,y)=t(y,x,z)", "t(a,b)=t(b,a)"]
    assert main(args) == 0
    assert capsys.readouterr().out == \
        "implication witnessed by homomorphism: x->a, y->b, z->a\n"
    assert main(args + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "found": True, "map": {"x": "a", "y": "b", "z": "a"}}


def test_satisfies_decisions(z2_file, capsys) -> None:
    assert main(["satisfies", "--algebra", z2_file, "t(x,y)=t(y,x)"]) == 1
    assert "NotSatisfied" in capsys.readouterr().out
    assert main(["satisfies", "--algebra", z2_file, SIGGERS_IDENTITY]) == 0
    assert "Satisfied" in capsys.readouterr().out


@pytest.mark.parametrize("text", [
    '{"operations": []}',
    '[1]',
    '{"size": 2, "operations": [{"name": "f", "arity": 1, "table": [0, 1.5]}]}',
    '{"size": 2, "operations": [{"name": "f", "arity": 1, "table": [0, true]}]}',
    '{"size": 2, "operations": [{"name": "f", "arity": 1}]}',
    '{"size": 3, "operations": [{"name": "f", "arity": 100000000, "table": [0]}]}',
    '[' * 100000 + ']' * 100000,
], ids=["no-size", "top-level-list", "float-entry", "bool-entry", "no-table",
        "huge-arity", "deep-nesting"])
def test_satisfies_rejects_malformed_algebra(tmp_path, text) -> None:
    target = tmp_path / "bad.json"
    target.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(loopcond.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "loopcond.cli", "satisfies",
                           "t(x,y)=t(y,x)", "--algebra", str(target)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_satisfies_affine_cross_check(z2_file, capsys) -> None:
    code = main(["satisfies", "--algebra", z2_file, SIGGERS_IDENTITY,
                 "--affine", "2", "--json"])
    assert code == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["decision"] == "Satisfied"
    assert data["affine_coefficients"] == [1, 0, 1, 0, 1, 0]
    assert data["oracles_agree"] is True
    assert captured.err == ""


def test_satisfies_cross_checks_a_negative_affine_answer(z2_file, tmp_path, capsys) -> None:
    # both oracles say no: they agree
    assert main(["satisfies", COMM, "--algebra", z2_file, "--affine", "2", "--json"]) == 1
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert (data["decision"], data["affine_coefficients"]) == ("NotSatisfied", None)
    assert data["oracles_agree"] is True
    assert captured.err == ""
    # the closure finds a term over Z_3 that no affine map over Z_2 matches
    z3_file = tmp_path / "z3.json"
    z3_file.write_text(algebra_to_json(mod_affine_algebra(3)))
    assert main(["satisfies", COMM, "--algebra", str(z3_file), "--affine", "2", "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["oracles_agree"] is False
    assert captured.err.startswith("warning: affine oracle disagrees")


def test_satisfies_affine_only(capsys) -> None:
    assert main(["satisfies", "t(x,y)=t(y,x)", "--affine", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["affine_coefficients"] == [2, 2]
    assert main(["satisfies", "t(x,y)=t(y,x)", "--affine", "2"]) == 1


def test_satisfies_affine_composite_modulus_refuted_by_a_prime_factor(capsys) -> None:
    cycle12 = "t(a,b,c,d,e,f,g,h,i,j,k,l)=t(b,c,d,e,f,g,h,i,j,k,l,a)"
    assert main(["satisfies", cycle12, "--affine", "4"]) == 1
    assert capsys.readouterr().out == "affine mod 4: no solution\n"


def test_satisfies_affine_composite_moduli_are_exact(capsys) -> None:
    # 12 is coprime to 25, so the 12-cycle condition holds mod 25 (12 * 23 = 1)
    cycle12 = "t(a,b,c,d,e,f,g,h,i,j,k,l)=t(b,c,d,e,f,g,h,i,j,k,l,a)"
    assert main(["satisfies", cycle12, "--affine", "25"]) == 0
    assert capsys.readouterr().out == f"affine mod 25: coefficients ({','.join(['23'] * 12)})\n"
    # 2021 = 43 * 47, so the directed 43-cycle condition has no witness mod 2021
    names = [f"v{i}" for i in range(43)]
    cycle43 = f"t({','.join(names)})=t({','.join(names[1:] + names[:1])})"
    assert main(["satisfies", cycle43, "--affine", "2021"]) == 1
    assert capsys.readouterr().out == "affine mod 2021: no solution\n"


def test_satisfies_affine_composite_modulus_reads_from_the_last_position(capsys) -> None:
    # mod 6 the Siggers condition has several witnesses; the one printed is
    # least when read from the last position back, as for a prime modulus
    assert main(["satisfies", "s(x,y,y,z,z,x)=s(y,x,z,y,x,z)", "--affine", "6"]) == 0
    assert capsys.readouterr().out == "affine mod 6: coefficients (3,2,1,0,1,0)\n"


def test_satisfies_affine_large_modulus(capsys) -> None:
    assert main(["satisfies", "t(x,y)=t(y,x)", "--affine", "2305843009213693951"]) == 0
    assert capsys.readouterr().out == (
        "affine mod 2305843009213693951: coefficients "
        "(1152921504606846976,1152921504606846976)\n")
    # no primality test bounds the modulus
    assert main(["satisfies", "t(x,y)=t(y,x)", "--affine", str(10**25)]) == 1
    assert capsys.readouterr().out == "affine mod 10000000000000000000000000: no solution\n"
    assert main(["satisfies", "t(x,y)=t(y,x)", "--affine", str(10**25 + 1)]) == 0
    half = (10**25 + 2) // 2
    assert capsys.readouterr().out == \
        f"affine mod 10000000000000000000000001: coefficients ({half},{half})\n"


def test_satisfies_resource_errors(z2_file, capsys) -> None:
    assert main(["satisfies", "--algebra", z2_file, SIGGERS_IDENTITY,
                 "--max-elements", "1"]) == 2
    capsys.readouterr()
    wide = "t(" + ",".join(f"v{i}" for i in range(13)) + ")=t(" + \
        ",".join(f"v{i}" for i in range(13)) + ")"
    assert main(["satisfies", "--algebra", z2_file, wide]) == 2
    assert "error" in capsys.readouterr().err


def test_satisfies_requires_some_oracle(capsys) -> None:
    assert main(["satisfies", "t(x,y)=t(y,x)"]) == 2
    assert "need --algebra" in capsys.readouterr().err


def test_verify_subcommand(capsys) -> None:
    assert main(["verify", "--clique-n", "3", "--cycle-k", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS clique_claims.f_symmetric" in out
    assert "FAIL" not in out
    assert main(["verify", "--cycle-k", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_pass"] is True
    assert data["cycle_reduction"]["all_pass"] is True
    assert main(["verify"]) == 2
    capsys.readouterr()
    assert main(["verify", "--cycle-k", "2"]) == 2


def test_verify_largest_cycle_reduction(capsys) -> None:
    assert main(["verify", "--cycle-k", "49", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True


def test_graph_info(capsys) -> None:
    assert main(["graph-info", SMOOTH, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["smooth"] is True
    assert data["weakly_connected"] is True
    assert data["algebraic_length"] == 1
    assert data["symmetric"] is False
    assert data["bipartite"] is None
    assert main(["graph-info", SIGGERS_IDENTITY, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bipartite"] is False and data["odd_girth"] == 3


def test_audit_subcommand(capsys) -> None:
    assert main(["audit"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["discrepancy"] is True
    assert data["mod3"]["commutativity_coefficients"] == [2, 2]


def test_usage_error_exit_code(capsys) -> None:
    assert main([]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2


def test_json_outputs_are_deterministic(z2_file, capsys) -> None:
    runs = []
    for _ in range(2):
        main(["classify", SIGGERS_IDENTITY, "--json"])
        main(["graph-info", SMOOTH, "--json"])
        main(["satisfies", "--algebra", z2_file, SIGGERS_IDENTITY,
              "--affine", "2", "--json"])
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def _bogus_search(domains, arcs, order, budget, **kwargs):
    yield (0,) * len(order)  # maps every vertex to 0: no witness on loopless targets


@pytest.mark.parametrize("module, name, replacement, argv", [
    # a differing row already in R trips the refinement loop's own check
    ("algebra", "_differing_rows", lambda a, c, t, proj: [0],
     ["satisfies", "--algebra", None, SIGGERS_IDENTITY]),
    # a map that is not a homomorphism trips find_hom's re-check
    ("graph", "_arc_search", _bogus_search, ["implies", "t(x,y)=t(y,x)", "t(x,y)=t(y,x)"]),
    ("graph", "_arc_search", _bogus_search, ["verify", "--cycle-k", "5"]),
], ids=["satisfies", "implies", "verify"])
def test_failed_soundness_check_exits_3(monkeypatch, capsys, z2_file,
                                        module, name, replacement, argv) -> None:
    monkeypatch.setattr(importlib.import_module(f"loopcond.{module}"), name, replacement)
    argv = [z2_file if a is None else a for a in argv]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: ")
    assert "Traceback" not in captured.err


_OPTIMIZED_CHILD = """
import sys
import loopcond.algebra, loopcond.graph
from loopcond.cli import main

def bogus_search(domains, arcs, order, budget, **kwargs):
    yield (0,) * len(order)

setattr(loopcond.{module}, {name!r}, {replacement})
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("module, name, replacement, argv", [
    ("algebra", "_differing_rows", "lambda a, c, t, proj: [0]",
     ["satisfies", "--algebra", None, SIGGERS_IDENTITY]),
    ("graph", "_arc_search", "bogus_search", ["implies", COMM, COMM]),
    ("graph", "_arc_search", "bogus_search", ["verify", "--cycle-k", "5"]),
], ids=["satisfies", "implies", "verify"])
def test_failed_soundness_check_exits_3_under_optimize(z2_file, module, name,
                                                       replacement, argv) -> None:
    # python -O strips assert statements, so the checks must raise by themselves
    script = _OPTIMIZED_CHILD.format(module=module, name=name, replacement=replacement)
    env = dict(os.environ, PYTHONPATH=str(Path(loopcond.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script,
                           *[z2_file if a is None else a for a in argv]],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert proc.stderr.startswith("internal error: ")
    assert "Traceback" not in proc.stderr


def test_verify_largest_cycle_reduction_under_optimize() -> None:
    # under -O the 2401-vertex homomorphism is still re-checked by is_valid
    # (a failed check exits 3), and the report reads the same walk rows, so
    # stdout is byte for byte that of a run without -O
    env = dict(os.environ, PYTHONPATH=str(Path(loopcond.__file__).parents[1]))
    runs = [subprocess.run([sys.executable, *flags, "-m", "loopcond.cli", "verify",
                            "--cycle-k", "49", "--json"],
                           capture_output=True, text=True, env=env, timeout=60)
            for flags in ([], ["-O"])]
    assert [(proc.returncode, proc.stderr) for proc in runs] == [(0, "")] * 2
    assert runs[1].stdout == runs[0].stdout
    assert json.loads(runs[1].stdout)["all_pass"] is True


def test_an_operation_may_be_named_pos(tmp_path, capsys) -> None:
    # a seed's provenance tag is "pos" too: seeds are told by their int payload
    table = [(x + y - z) % 3 for x in range(3) for y in range(3) for z in range(3)]
    target = tmp_path / "pos.json"
    target.write_text(json.dumps({"size": 3, "operations": [
        {"name": "pos", "arity": 3, "table": table}]}))
    assert main(["satisfies", "--algebra", str(target), SIGGERS_IDENTITY]) == 0
    assert capsys.readouterr().out == "Satisfied: t = pos(x2,x2,x1)\n"


@pytest.mark.parametrize("exc", [KeyError("lost"), RuntimeError("broken")],
                         ids=["KeyError", "RuntimeError"])
def test_unexpected_exception_exits_3(monkeypatch, capsys, z2_file, exc) -> None:
    # exit 1 means "no", so a bug must not end in the traceback-and-1 of an
    # uncaught exception
    def boom(*args, **kwargs):
        raise exc
    monkeypatch.setattr(loopcond.algebra, "satisfies_condition", boom)
    assert main(["satisfies", SIGGERS_IDENTITY, "--algebra", z2_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {type(exc).__name__}: {exc}\n"
    assert "Traceback" not in captured.err


# argv, then the exit code and the first 16 hex digits of the sha256 of stdout
# and of stderr; E is the digest of empty output
E = "e3b0c44298fc1c14"
FROZEN_RUNS = {
    "parse": (["parse", SIGGERS_IDENTITY], 0, "732d088fa8d93802", E),
    "parse-json": (["parse", SIGGERS_IDENTITY, "--json"], 0, "cfdd6d0a75cdc05e", E),
    "parse-dot": (["parse", SIGGERS_IDENTITY, "--dot"], 0, "8d3d9a7238c35fc2", E),
    "classify": (["classify", SMOOTH], 0, "f375e7849a621ca7", E),
    "classify-json": (["classify", SMOOTH, "--json"], 0, "8f2059e0902c495a", E),
    "graph-info": (["graph-info", SMOOTH], 0, "0c71e397219013f0", E),
    "graph-info-json": (["graph-info", SMOOTH, "--json"], 0, "332995f74cb118c1", E),
    "graph-info-bipartite": (["graph-info", PATH3], 0, "b6c2545a6bc01634", E),
    "graph-info-bipartite-json": (["graph-info", PATH3, "--json"], 0,
                                  "86e2663a086db6f7", E),
    "graph-info-odd-cycle": (["graph-info", FIVE], 0, "c38c5bf8c137ac9e", E),
    "graph-info-odd-cycle-json": (["graph-info", FIVE, "--json"], 0,
                                  "b78b480c479d119d", E),
    "graph-info-pendant-odd-cycle": (["graph-info", C9_PENDANT], 0, "81c660d6138edad6", E),
    "graph-info-pendant-odd-cycle-json": (["graph-info", C9_PENDANT, "--json"], 0,
                                          "6fb56f070bfd3d61", E),
    "implies-found": (["implies", FIVE, SIGGERS_IDENTITY], 0, "7a3d10b67d7f0fe3", E),
    "implies-found-json": (["implies", FIVE, SIGGERS_IDENTITY, "--json"], 0,
                           "934f2d2655e49af0", E),
    "implies-none": (["implies", SIGGERS_IDENTITY, FIVE], 1, "e61fc61b0e5da6e6", E),
    "implies-none-json": (["implies", SIGGERS_IDENTITY, FIVE, "--json"], 1,
                          "1f8dc30812936f44", E),
    "satisfied": (["satisfies", SIGGERS_IDENTITY, "--algebra", Z2], 0,
                  "507c34d9c7f9d6f8", E),
    "satisfied-json": (["satisfies", SIGGERS_IDENTITY, "--algebra", Z2, "--json"], 0,
                       "c3ebaec7aeac93ca", E),
    "not-satisfied": (["satisfies", COMM, "--algebra", Z2], 1, "9c773eaa747bd856", E),
    "not-satisfied-json": (["satisfies", COMM, "--algebra", Z2, "--json"], 1,
                           "b109f6c6f4a7b378", E),
    "resource-exceeded": (["satisfies", SIGGERS_IDENTITY, "--algebra", Z2,
                           "--max-elements", "1"], 2, "2f2ca35768c7c160", E),
    "resource-exceeded-json": (["satisfies", SIGGERS_IDENTITY, "--algebra", Z2,
                                "--max-elements", "1", "--json"], 2, "7f4289b48fb4203f", E),
    "affine-found": (["satisfies", COMM, "--affine", "3"], 0, "e76fcae575395f74", E),
    "affine-found-json": (["satisfies", COMM, "--affine", "3", "--json"], 0,
                          "ae99f08918abb50e", E),
    "affine-none": (["satisfies", COMM, "--affine", "2"], 1, "a72786a33e9130d0", E),
    "affine-none-json": (["satisfies", COMM, "--affine", "2", "--json"], 1,
                         "5248af2f2ccc5ce2", E),
    "oracles-agree": (["satisfies", SIGGERS_IDENTITY, "--algebra", Z2, "--affine", "2"], 0,
                      "0c604dc03cac921a", E),
    "oracles-agree-json": (["satisfies", SIGGERS_IDENTITY, "--algebra", Z2,
                            "--affine", "2", "--json"], 0, "1c929f9902c02632", E),
    "oracles-disagree": (["satisfies", COMM, "--algebra", Z2, "--affine", "3"], 1,
                         "62bff8aa4d69c82a", "b1fb5c56b2ea3fab"),
    "oracles-disagree-json": (["satisfies", COMM, "--algebra", Z2, "--affine", "3",
                               "--json"], 1, "4372f98a91b9d4d7", "b1fb5c56b2ea3fab"),
    "verify": (["verify", "--cycle-k", "5", "--clique-n", "3"], 0, "a3f3ae32e38afb79", E),
    "verify-json": (["verify", "--cycle-k", "5", "--clique-n", "3", "--json"], 0,
                    "939f56c0c78be9c0", E),
    "audit": (["audit"], 0, "1331d0789f7fbd43", E),
    # G's closure stops at the cap, and a constant unary term answers
    "constant-term-capped": (["satisfies", FIVE, "--algebra", POOL_4_9,
                              "--max-elements", "2000"], 0, "f0903e230545666c", E),
    "constant-term-capped-json": (["satisfies", FIVE, "--algebra", POOL_4_9,
                                   "--max-elements", "2000", "--json"], 0,
                                  "e9983f7d29461b50", E),
    # 4^7 rows are past the default entry cap, and a constant unary term answers
    "constant-term-exponent": (["satisfies", SEVEN, "--algebra", POOL_4_0], 0,
                               "e5cea64d238c61e9", E),
    "constant-term-exponent-json": (["satisfies", SEVEN, "--algebra", POOL_4_0, "--json"], 0,
                                    "7a0ff3d303cba320", E),
    "satisfies-needs-oracle": (["satisfies", COMM], 2, E, "2cb2a820e24b7c1c"),
    "verify-needs-report": (["verify"], 2, E, "63e84b2c748a61d5"),
}


@pytest.mark.parametrize("argv, code, out, err", FROZEN_RUNS.values(), ids=FROZEN_RUNS)
def test_cli_output_is_frozen(z2_file, tmp_path, capsys, argv, code, out, err) -> None:
    def path(a):
        if a is Z2:
            return z2_file
        if type(a) is tuple:
            target = tmp_path / "pool{}.{}.json".format(*a)
            target.write_text(algebra_to_json(pool_algebra(*a)))
            return str(target)
        return a
    assert main(list(map(path, argv))) == code
    captured = capsys.readouterr()
    assert [hashlib.sha256(s.encode()).hexdigest()[:16]
            for s in (captured.out, captured.err)] == [out, err]


@pytest.mark.parametrize("argv, flag", [
    (["implies", FIVE, SIGGERS_IDENTITY, "--budget", "-1"], "--budget"),
    (["satisfies", COMM, "--algebra", Z2, "--max-entries", "-1"], "--max-entries"),
    (["satisfies", COMM, "--algebra", Z2, "--max-elements", "-1"], "--max-elements"),
    (["satisfies", COMM, "--affine", "3", "--max-elements", "-5", "--json"], "--max-elements"),
], ids=["budget", "max-entries", "max-elements", "max-elements-json"])
def test_negative_caps_are_usage_errors(z2_file, capsys, argv, flag) -> None:
    # a negative cap is refused before any work, so no answer is printed
    assert main([z2_file if a is Z2 else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: must not be negative" in captured.err
    assert "Traceback" not in captured.err


def test_zero_caps_and_non_integers_parse_as_before(capsys) -> None:
    args = build_parser().parse_args(["satisfies", COMM, "--max-entries", "0",
                                      "--max-elements", "0"])
    assert (args.max_entries, args.max_elements) == (0, 0)
    assert build_parser().parse_args(["implies", COMM, COMM, "--budget", "0"]).budget == 0
    assert main(["implies", COMM, COMM, "--budget", "x"]) == 2
    assert "argument --budget: invalid int value: 'x'" in capsys.readouterr().err


def test_omitted_caps_are_the_library_defaults(tmp_path, z2_file, capsys, monkeypatch) -> None:
    # 65^2 = 4225 rows, just over algebra.DEFAULT_MAX_ENTRIES
    assert algebra.DEFAULT_MAX_ENTRIES == 4096
    target = tmp_path / "p65.json"
    target.write_text(algebra_to_json(projection_algebra(65)))
    assert main(["satisfies", COMM, "--algebra", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: free-algebra tables need 4225 entries, cap is 4096\n"
    assert main(["satisfies", COMM, "--algebra", str(target), "--max-entries", "4225"]) == 1
    assert capsys.readouterr().out == "NotSatisfied\n"
    # the omitted caps are read from the library's constants when a command runs
    assert build_parser().parse_args(["implies", COMM, COMM]).budget == graph.DEFAULT_BUDGET
    monkeypatch.setattr(algebra, "DEFAULT_MAX_ELEMENTS", 1)
    monkeypatch.setattr(graph, "DEFAULT_BUDGET", 0)
    assert main(["satisfies", SIGGERS_IDENTITY, "--algebra", z2_file]) == 2
    assert capsys.readouterr().out == "ResourceExceeded after 2 elements\n"
    assert main(["implies", COMM, COMM]) == 2
    assert capsys.readouterr().err.startswith("error: search budget exhausted")


# first 16 hex digits of the sha256 of the help texts, at 80 columns
FROZEN_HELP = {
    "loopcond": (["--help"], "e8d12651b9559d43"),
    "satisfies": (["satisfies", "--help"], "feb846f5b2813e7b"),
}


@pytest.mark.parametrize("argv, digest", FROZEN_HELP.values(), ids=FROZEN_HELP)
def test_help_is_frozen(capsys, monkeypatch, argv, digest) -> None:
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == digest
