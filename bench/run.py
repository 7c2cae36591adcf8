"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in a fresh interpreter (runner.py, which replaces this
process, so one workload process is alive at a time) with PYTHONHASHSEED
fixed, importing loopcond from this checkout's src/.  The run and every
process it starts stay on the CPU this one started on, so the reference
slices that wall_norm_s is measured against (measure.py) run on the core
that ran the calls they are set against.  The last line of stdout is the
result JSON; see README.md in this directory.
"""

import argparse
import os
import sys

WORKLOADS = ("decide_found", "decide_exhaust", "search", "cli")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def current_cpu():
    """The CPU this process is running on, or None if /proc does not say."""
    try:
        with open("/proc/self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "loopcond", "__init__.py")):
        print(f"error: no loopcond sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    cpu = current_cpu()
    if cpu is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [sys.executable, "-s", os.path.join(ROOT, "bench", "runner.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    os.execve(sys.executable, command, env)


if __name__ == "__main__":
    sys.exit(main())
