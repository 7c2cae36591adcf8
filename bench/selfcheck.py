"""The benchmark's own tests.

    python3 bench/selfcheck.py

For every workload: a traced run of the default seed 0 twice and of seed 1
once, each with every answer certified (failed == 0), and every deterministic
counter (per-layer metrics with unit count or bytes) equal between the two
seed-0 runs; an untraced run whose result line carries exactly the end-to-end
metrics of BENCHMARK.json.  Also checks that the capped query's algebra does
satisfy its condition, so NotSatisfied there is a wrong answer, and that the
benchmark refuses to run without the loopcond sources.  Not collected by
pytest: it takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
COUNTER_UNITS = ("count", "bytes")


def run(workload: str, seed: int, trace: int, cwd: str = ROOT) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines[-2]
    return result


def check_workload(name: str) -> None:
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    first, again = run(name, 0, 1), run(name, 0, 1)
    for result in (first, again, run(name, 1, 1)):
        assert {k: v["unit"] for k, v in result["metrics"].items()} == layer, result["metrics"]
    for key, unit in layer.items():
        if unit in COUNTER_UNITS:
            a, b = first["metrics"][key]["value"], again["metrics"][key]["value"]
            assert a == b, f"{name}: counter {key} changed between runs: {a} != {b}"
    untraced = run(name, 0, 0)["metrics"]
    assert set(untraced) == {m["name"] for m in SPEC["end_to_end"]}, untraced.keys()
    for m in SPEC["end_to_end"]:
        assert untraced[m["name"]]["unit"] == m["unit"]
        assert untraced[m["name"]]["value"] > 0, m["name"]
    print(f"ok {name}", flush=True)


def check_capped_query_is_satisfiable() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import workloads
    from loopcond import (FiniteAlgebra, Operation, Satisfied, cycle,
                          condition_from_graph, satisfies_condition, verify_witness)
    table = tuple(workloads.pool_table(4, workloads.CAPPED_POOL_SEED))
    a = FiniteAlgebra(4, (Operation("f", 2, table),))
    c5 = condition_from_graph(cycle(5))
    d = satisfies_condition(a, c5)
    assert isinstance(d, Satisfied) and verify_witness(a, c5, d.term), d
    print("ok capped query's algebra satisfies C5", flush=True)


def check_refuses_without_sources() -> None:
    bare = os.path.join(ROOT, "bench", "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for f in os.listdir(os.path.join(ROOT, "bench")):
        if f.endswith(".py") or f.endswith(".md"):
            shutil.copy(os.path.join(ROOT, "bench", f), os.path.join(bare, "bench"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    print("ok refuses to run without src/loopcond", flush=True)


if __name__ == "__main__":
    for w in SPEC["workloads"]:
        check_workload(w["name"])
    check_capped_query_is_satisfiable()
    check_refuses_without_sources()
