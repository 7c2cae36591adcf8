"""Seeded fuzzing of the command line, in process: random identities, algebra
files and flags.  Every run must end in a documented exit code without a
traceback, every positive answer the CLI reports must check out, and so must
every refutation small enough for the row-free oracle."""

import json
import random

from helpers import decide_by_subpower
from loopcond import (FiniteAlgebra, NotSatisfied, Operation, Satisfied, algebra_to_json,
                      verify_witness)
from loopcond import algebra as alg
from loopcond import cli

NAMES = ("x", "y", "z", "w", "v")


def _identity(rng: random.Random) -> str:
    """Mostly well-formed, mostly loopless; sometimes a symbol or arity
    mismatch or one character mangled."""
    names = rng.sample(NAMES, rng.randint(1, 4))
    lhs, rhs = [], []
    for _ in range(rng.randint(1, 5)):
        u = rng.choice(names)
        others = [v for v in names if v != u]
        lhs.append(u)
        rhs.append(rng.choice(others) if others and rng.random() < 0.85 else u)
    if rng.random() < 0.05:
        rhs.append(rng.choice(names))
    text = f"t({','.join(lhs)})={'s' if rng.random() < 0.05 else 't'}({','.join(rhs)})"
    if rng.random() < 0.1:
        i = rng.randrange(len(text))
        text = text[:i] + rng.choice("(),= x1_") + text[i + 1:]
    return text


def _algebra_text(rng: random.Random) -> str:
    size = rng.randint(1, 3)
    ops = []
    for i in range(rng.randint(1, 2)):
        arity = rng.randint(0 if i else 1, 3)
        ops.append(Operation(f"f{i}", arity,
                             tuple(rng.randrange(size) for _ in range(size ** arity))))
    text = algebra_to_json(FiniteAlgebra(size, tuple(ops)))
    if rng.random() < 0.2:
        i = rng.randrange(len(text))
        text = text[:i] + rng.choice(['"', "{", "]", "1.5", "true", "-1", "9", ""]) + text[i + 1:]
    return text


def _argv(rng: random.Random, algebra_file: str) -> list[str]:
    command = rng.choices(["parse", "classify", "graph-info", "implies", "satisfies",
                           "verify", "audit", "bogus"], [2, 2, 2, 3, 8, 2, 1, 1])[0]
    argv = [command]
    if command in ("parse", "classify", "graph-info", "implies", "satisfies"):
        argv.append(_identity(rng))
    if command == "parse" and rng.random() < 0.3:
        argv.append("--dot")
    if command == "implies":
        argv.append(_identity(rng))
        if rng.random() < 0.3:
            argv += ["--budget", str(rng.choice([0, 5, 1000]))]
    if command == "satisfies":
        if rng.random() < 0.9:
            argv += ["--algebra", algebra_file]
        if rng.random() < 0.3:
            argv += ["--affine", str(rng.choice([-1, 0, 2, 3, 4, 6]))]
        # the default cap of 10^6 elements can take seconds on a 3-element
        # ternary algebra
        argv += ["--max-elements", str(rng.choice([0, 1, 20, 300, 2000]))]
        if rng.random() < 0.2:
            argv += ["--max-entries", str(rng.choice([1, 8, 64]))]
    if command == "verify":
        if rng.random() < 0.8:
            argv += ["--cycle-k", str(rng.choice([-1, 1, 3, 4, 5, 7]))]
        if rng.random() < 0.5:
            argv += ["--clique-n", str(rng.choice([0, 2, 3, 4]))]
    if command != "audit" and rng.random() < 0.5:
        argv.append("--json")
    return argv


def test_cli_fuzz(tmp_path, monkeypatch, capsys) -> None:
    decisions, homs = [], []

    def satisfies_condition(a, c, **kwargs):
        decision = real_satisfies(a, c, **kwargs)
        decisions.append((a, c, decision))
        return decision

    def implies_by_hom(c, d, **kwargs):
        hom = real_implies(c, d, **kwargs)
        homs.append(hom)
        return hom

    real_satisfies, real_implies = alg.satisfies_condition, cli.implies_by_hom
    monkeypatch.setattr(alg, "satisfies_condition", satisfies_condition)
    monkeypatch.setattr(cli, "implies_by_hom", implies_by_hom)
    rng = random.Random(8)
    algebra_file = tmp_path / "algebra.json"
    codes = {}
    for _ in range(1500):
        algebra_file.write_text(_algebra_text(rng))
        argv = _argv(rng, str(algebra_file))
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code in {0, 1, 2, 3}, argv
        assert code != 3, (argv, err)  # a soundness check failed: a real bug
        assert "Traceback" not in out + err, argv
        if code in (0, 1) and "--json" in argv and "--dot" not in argv:
            data = json.loads(out)
            if "--algebra" in argv and "--affine" in argv:
                # both oracles answered, so the CLI cross-checks them
                agree = (data["decision"] == "Satisfied") == \
                    (data["affine_coefficients"] is not None)
                assert data.get("oracles_agree") is agree, argv
        codes[code] = codes.get(code, 0) + 1
    refuted = 0
    for a, c, decision in decisions:
        if isinstance(decision, Satisfied):
            assert verify_witness(a, c, decision.term)
        elif isinstance(decision, NotSatisfied) and a.size <= 2 and len(c.variables) <= 3:
            cap = {1: 400, 2: 150, 3: 30}[max(op.arity for op in a.operations)]
            expected = decide_by_subpower(a, c, cap)
            assert expected in (None, "NotSatisfied"), (a, c)
            refuted += expected == "NotSatisfied"
    assert all(hom.is_valid() for hom in homs if hom is not None)
    # the corpus reaches every answer the CLI gives
    assert codes.keys() == {0, 1, 2}
    kinds = {type(d).__name__ for _, _, d in decisions}
    assert kinds == {"Satisfied", "NotSatisfied", "ResourceExceeded"}
    assert None in homs and any(hom is not None for hom in homs)
    assert refuted >= 50
