import json

import pytest

from loopcond import SIGGERS_IDENTITY, algebra_to_json, mod_affine_algebra
from loopcond.cli import main

SMOOTH = "s(a,r,e,a)=s(r,a,r,e)"


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
    five = "t(a,b,b,c,c,d,d,e,e,a)=t(b,a,c,b,d,c,e,d,a,e)"
    assert main(["implies", five, SIGGERS_IDENTITY]) == 0
    assert "homomorphism" in capsys.readouterr().out
    assert main(["implies", SIGGERS_IDENTITY, five]) == 1
    assert "not established" in capsys.readouterr().out
    assert main(["implies", SIGGERS_IDENTITY, five, "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["found"] is False


def test_satisfies_decisions(z2_file, capsys) -> None:
    assert main(["satisfies", "--algebra", z2_file, "t(x,y)=t(y,x)"]) == 1
    assert "NotSatisfied" in capsys.readouterr().out
    assert main(["satisfies", "--algebra", z2_file, SIGGERS_IDENTITY]) == 0
    assert "Satisfied" in capsys.readouterr().out


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


def test_satisfies_affine_only(capsys) -> None:
    assert main(["satisfies", "t(x,y)=t(y,x)", "--affine", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["affine_coefficients"] == [2, 2]
    assert main(["satisfies", "t(x,y)=t(y,x)", "--affine", "2"]) == 1


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
