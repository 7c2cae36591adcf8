"""The timed loop, the traced loop and certification for one workload.

A batch runs every query of the workload once, one after another (a closed
loop with one client: loopcond is a batch and CLI tool).  Batches repeat until
the time is up; end-to-end times are medians over batches.  Answers are kept
and certified only after the clock has stopped.

The speed of a core on the shared host this benchmark was written on drifts
by up to 1.6x over seconds to minutes, so raw batch times of identical code
differ by up to 50% between runs.  After each call the
loop therefore runs a fixed piece of the benchmark's own interpreter work
(``reference_slice``) for about REF_SHARE of the call's time, outside the
call's timing; ``wall_norm_s`` is the batch time in units of that slice's
time in the same batch, converted to seconds at REF_SLICE_S per slice.  The
raw batch time is reported beside it.
"""

from __future__ import annotations

import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from functools import partial
from time import perf_counter

import spans
import workloads
from workloads import FAILED, OK, RESOURCE

CLI_MAIN = "import sys; from loopcond.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 60
FLOOR_REPEATS = 5

#: Share of each call's time spent on reference slices after it.
REF_SHARE = 0.05
#: A reference slice's time on an unloaded core of the machine the benchmark
#: was written on (Xeon at 2.1 GHz, Python 3.11.7); only converts units.
REF_SLICE_S = 0.0025
_REF_TABLE = [(i * 37 + 11) % 4096 for i in range(4096)]

LAYER_COUNTERS_CLI = ("cli.interpreter_ms", "cli.import_ms", "cli.stdout_bytes") + tuple(
    f"cli.{sub}_ms" for sub in ("parse", "classify", "graph-info", "implies",
                                "satisfies", "verify", "audit"))


def spawn(argv: list[str], env: dict, timeout: float):
    """Run a process to completion; (exit code, stdout, peak RSS in KiB).

    Reaps the child with wait4 so its own peak RSS is known."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=env)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def reference_slice() -> int:
    """Fixed interpreter work of the kind loopcond does: table lookups,
    tuple keys and dict updates."""
    seen: dict[tuple, int] = {}
    x = 1
    for i in range(8000):
        x = _REF_TABLE[(x * 31 + i) % 4096]
        key = (x, i & 63, x ^ (i & 7))
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def normalized(batch: tuple[float, float, int]) -> float:
    """A batch's time measured against its reference slices, in seconds at
    REF_SLICE_S per slice."""
    wall, ref, slices = batch
    return wall * REF_SLICE_S * slices / ref


def own_peak_rss_kib() -> int:
    """Peak resident set of this process image (VmHWM), in KiB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Measurement:
    def __init__(self, wl: workloads.Workload, src: str):
        self.wl = wl
        self.is_cli = bool(wl.invocations)
        self.batch_size = len(wl.invocations) if self.is_cli else len(wl.queries)
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
        self.cli_prefix = [sys.executable, "-c", CLI_MAIN]
        # (kind, [(result, seconds)]) per batch, kind "query", "cli" or "inproc"
        self.batches: list[tuple[str, list]] = []
        # (batch time, reference time, reference slices) of the untraced run
        self.walls: list[tuple[float, float, int]] = []
        self.outcomes = {OK: 0, RESOURCE: 0, FAILED: 0}
        self.failures: list[str] = []

    # -- one batch of each kind -------------------------------------------

    def _timed(self, calls) -> tuple[tuple[float, float, int], list]:
        """Run the calls; ((batch time, reference time, reference slices),
        [(result, seconds)]).  The batch time is the sum of the calls' times,
        so the reference slices between them are not in it."""
        results = []
        wall = ref = owed = 0.0
        slices = 0
        for call in calls:
            t = perf_counter()
            try:
                r = call()
            except Exception as exc:   # certified later as a failure or budget stop
                r = exc
            dt = perf_counter() - t
            results.append((r, dt))
            wall += dt
            owed += REF_SHARE * dt
            while owed > 0:
                t = perf_counter()
                reference_slice()
                d = perf_counter() - t
                owed -= d
                ref += d
                slices += 1
        return (wall, ref, slices), results

    def query_batch(self):
        return "query", self._timed([q.run for q in self.wl.queries])

    def cli_batch(self):
        calls = [lambda inv=inv: spawn(self.cli_prefix + inv.argv, self.env, CLI_TIMEOUT_S)
                 for inv in self.wl.invocations]
        return "cli", self._timed(calls)

    def inproc_batch(self, mains):
        def call(inv, fn):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = fn(list(inv.argv))
            return code, buf.getvalue().encode()
        return "inproc", self._timed([lambda inv=inv, fn=fn: call(inv, fn)
                                      for inv, fn in zip(self.wl.invocations, mains)])

    def repeat(self, batch, seconds: float) -> list[tuple[float, float, int]]:
        """Run batches until `seconds` have passed (at least one); their
        (batch time, reference time, reference slices)."""
        walls = []
        deadline = perf_counter() + seconds
        while not walls or perf_counter() < deadline:
            kind, (wall, results) = batch()
            self.batches.append((kind, results))
            walls.append(wall)
        return walls

    # -- untraced end-to-end run -------------------------------------------

    def timed(self, seconds: float) -> None:
        """One warm-up batch, then timed batches until `seconds` have passed
        since the start."""
        batch = self.cli_batch if self.is_cli else self.query_batch
        start = perf_counter()
        self.repeat(batch, 0)
        self.walls = self.repeat(batch, seconds - (perf_counter() - start))

    def raw_wall_s(self) -> float:
        return statistics.median(w for w, _, _ in self.walls)

    def ref_slice_s(self) -> float:
        return statistics.median(ref / slices for _, ref, slices in self.walls)

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        if self.is_cli:
            peak_kib = max(r[2] for _, results in self.batches for r, _ in results
                           if isinstance(r, tuple))
        else:
            peak_kib = own_peak_rss_kib()
        attempted = sum(self.outcomes.values())
        return {"setup_s": setup_s,
                "wall_norm_s": statistics.median(map(normalized, self.walls)),
                "peak_rss_mb": peak_kib / 1024,
                "certified_share": (attempted - self.outcomes[FAILED]) / attempted,
                "answered_share": self.outcomes[OK] / attempted}

    # -- traced run ----------------------------------------------------------

    def traced(self, seconds: float, trace_path: str) -> dict[str, float]:
        """Untraced and traced batches in alternation, so both see the same
        machine; per-layer metrics are medians over the traced batches, and
        the ratio of the two median normalized batch times gives the tracing
        overhead."""
        tracer = spans.Tracer()
        per_batch: list[dict] = []
        extra = dict.fromkeys(LAYER_COUNTERS_CLI, 0.0)
        importtime: dict[str, float] = {}
        if self.is_cli:
            from loopcond import cli
            self.repeat(self.cli_batch, seconds / 3)
            extra.update(self._cli_layer(importtime))
            seconds -= seconds / 3
            plain = [cli.main] * self.batch_size
            traced_mains = [tracer.wrap(f"cli.{inv.name}", cli.main)
                            for inv in self.wl.invocations]
            untraced_batch = partial(self.inproc_batch, plain)
            traced_batch = partial(self.inproc_batch, traced_mains)
        else:
            untraced_batch = traced_batch = self.query_batch
        untraced, traced = [], []
        deadline = perf_counter() + seconds
        while not traced or perf_counter() < deadline:
            untraced += self.repeat(untraced_batch, 0)
            tracer.spans.clear()
            with tracer.patched():
                traced += self.repeat(traced_batch, 0)
            per_batch.append(spans.layer_metrics(tracer.spans, traced[-1][0]))
        metrics = {k: statistics.median(b[k] for b in per_batch) for k in per_batch[0]}
        metrics.update(extra)
        metrics["trace.overhead_share"] = (statistics.median(map(normalized, traced))
                                           / statistics.median(map(normalized, untraced)) - 1)
        spans_out = tracer.spans
        t0 = spans_out[0][spans.START] if spans_out else 0.0
        with open(trace_path, "w") as fh:
            json.dump({"workload": self.wl.name, "spans": spans.spans_to_json(spans_out, t0),
                       "importtime_cumulative_us": importtime}, fh, indent=1)
        return metrics

    def _cli_layer(self, importtime: dict) -> dict[str, float]:
        """Per-subcommand process times from the subprocess batches so far,
        the bare interpreter floor, and import loopcond from -X importtime."""
        per_sub: dict[str, list[float]] = {}
        cli_batches = [results for kind, results in self.batches if kind == "cli"]
        for results in cli_batches:
            sums: dict[str, float] = {}
            for inv, (_, dt) in zip(self.wl.invocations, results):
                sums[inv.name] = sums.get(inv.name, 0.0) + dt
            for name, total in sums.items():
                per_sub.setdefault(name, []).append(total)
        out = {f"cli.{name}_ms": statistics.median(v) * 1000 for name, v in per_sub.items()}
        out["cli.stdout_bytes"] = sum(len(r[1]) for r, _ in cli_batches[0]
                                      if isinstance(r, tuple))
        floor = []
        for _ in range(FLOOR_REPEATS):
            t = perf_counter()
            spawn([sys.executable, "-c", "pass"], self.env, CLI_TIMEOUT_S)
            floor.append(perf_counter() - t)
        out["cli.interpreter_ms"] = statistics.median(floor) * 1000
        imports = []
        for _ in range(FLOOR_REPEATS):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import loopcond"],
                                  env=self.env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S, check=True)
            for line in proc.stderr.splitlines():
                parts = [p.strip() for p in line.split("|")]
                if len(parts) == 3 and parts[2].startswith("loopcond"):
                    importtime[parts[2]] = float(parts[1])
            imports.append(importtime["loopcond"])
        out["cli.import_ms"] = statistics.median(imports) / 1000
        return out

    # -- certification -------------------------------------------------------

    def certify(self) -> tuple[int, int]:
        """Check every answer of every batch; (attempted, failed)."""
        # every CLI run must print the bytes of the first subprocess run
        reference = next(([r[1] if isinstance(r, tuple) else None for r, _ in results]
                          for kind, results in self.batches if kind == "cli"), [])
        # an answer equal to one already certified for the same query is
        # certified; batches repeat the same inputs
        seen: dict[tuple[int, str], str] = {}
        for kind, results in self.batches:
            for i, (r, _) in enumerate(results):
                if kind == "query":
                    query = self.wl.queries[i]
                    key = (i, repr(r))
                    if key not in seen:
                        seen[key] = workloads.certify(query, r)
                    name, outcome = query.name, seen[key]
                else:
                    inv = self.wl.invocations[i]
                    name, outcome = inv.name, workloads.certify_invocation(
                        inv, r, reference[i])
                self.outcomes[outcome] += 1
                if outcome == FAILED:
                    self.failures.append(f"{kind}:{name}: {r!r}"[:300])
        return sum(self.outcomes.values()), self.outcomes[FAILED]
