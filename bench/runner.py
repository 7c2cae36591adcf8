"""One workload in one fresh interpreter, started by run.py.

Sets up (imports loopcond from this checkout's src/ and generates the seeded
inputs), runs the query batch one query after another until the time is up,
certifies every answer outside the timed region, and prints the result line.
With ``--setup-only 1`` it prints the set-up time and exits.  With
``--trace 0`` set-up is also timed in SETUP_REPEATS fresh interpreters, one at
a time, half of them before the timed loop and half after it, and
``setup_s`` is the median of all set-ups.

Only os, sys and time are imported before set-up is timed, so the set-up time
includes every module ``import loopcond`` pulls in; the rest of the
benchmark's imports wait until set-up is over.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
SETUP_REPEATS = 10
SETUP_TIMEOUT_S = 60


def setup(opts):
    os.makedirs(OUT, exist_ok=True)
    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import loopcond
    import workloads
    wl = workloads.build(opts["--workload"], int(opts["--seed"]), OUT)
    elapsed = time.perf_counter() - t
    if not os.path.abspath(loopcond.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"loopcond imported from {loopcond.__file__}, not {SRC}")
    return wl, elapsed


def setup_samples(argv, count: int) -> list[float]:
    """Set-up times of `count` fresh interpreters started one after another."""
    import subprocess
    command = [sys.executable, "-s", os.path.abspath(__file__)] + argv + ["--setup-only", "1"]
    return [float(subprocess.run(command, capture_output=True, text=True, check=True,
                                 timeout=SETUP_TIMEOUT_S).stdout)
            for _ in range(count)]


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv) -> int:
    opts = dict(zip(argv[::2], argv[1::2]))
    wl, setup_s = setup(opts)
    if opts.get("--setup-only") == "1":
        print(repr(setup_s))
        return 0

    import json
    import statistics
    from measure import Measurement

    seed = int(opts["--seed"])
    seconds = float(opts["--seconds"])
    trace = opts["--trace"] == "1"
    run = Measurement(wl, SRC)
    trace_path = os.path.join(OUT, f"trace-{wl.name}-{seed}.json")
    if trace:
        metrics = run.traced(seconds, trace_path)
        attempted, failed = run.certify()
    else:
        samples = [setup_s] + setup_samples(argv, SETUP_REPEATS // 2)
        run.timed(seconds)
        samples += setup_samples(argv, SETUP_REPEATS - SETUP_REPEATS // 2)
        attempted, failed = run.certify()
        metrics = run.end_to_end(statistics.median(samples))
    info = {"workload": wl.name, "seed": seed, "trace": int(trace),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "batches": len(run.batches), "queries_per_batch": run.batch_size,
            "trace_file": os.path.relpath(trace_path, ROOT) if trace else None,
            "raw_wall_s": None if trace else run.raw_wall_s(),
            "ref_slice_s": None if trace else run.ref_slice_s(),
            "failures": run.failures[:20]}
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
