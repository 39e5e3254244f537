"""starpal benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {decide,extremal,verify,all} --seed N \
        --seconds S --trace {0,1} [--tiny]

The program under test is imported from ``src/`` of the checkout and from
nowhere else; without it the benchmark exits with code 2.  Inputs come from
the seed before timing starts.  Every op is a closed loop: one call at a
time, the next starting when the last returns.

``--trace 0`` measures the end-to-end metrics.  The fixed job list of the
workload runs in passes until ``--seconds`` is used up (at least one pass).
An op's latency is its median over the passes, and ``wall_s`` is the median
pass.  ``setup_s`` is the median of several cold starts.

Every time of the end-to-end run is reported at a fixed reference machine
speed.  On a shared cloud machine the same Python code runs up to 40% slower
for seconds to minutes at a time, so raw times of two runs of one commit can
differ by more than a real regression.  While a pass runs, a timer signal
times a fixed piece of standard-library Python (the probe) every 50 ms.  Each
op's latency, less the time spent in probes, is scaled by ``PROBE_REF_S`` over
the median probe time around the op (the op itself, widened to at least
``SPEED_WINDOW_S``); a pass's wall time is the sum of its scaled op latencies.
The speed changes within a second, so a window around each op tracks it much
better than one speed per pass or per run.  The probe does not touch starpal,
so a change to starpal moves the reported times as much as the raw ones.  The
run record gives the raw median pass time and the probe medians per pass.

``--trace 1`` runs the job list once untraced and once with every layer's
public functions wrapped (see spans.py), prints the per-layer metrics and the
tracing overhead, and writes the spans to ``.bench_out/``.

``--workload all`` runs each workload in its own fresh process and prints
every metric of each, prefixed by the workload name.

Every output is checked (workloads.py).  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the run record (Python, CPUs, load, commit, seed, why the workload exists).
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("decide", "extremal", "verify")
SETUP_STARTS = 15
SETUP_CODE = "import starpal, starpal.cli; starpal.cli.build_parser()"
IMPORT_RUNS = 5
# The probe runs every PROBE_INTERVAL_S while a pass runs (about 3% of its
# time).  PROBE_REF_S is the probe time that defines the reference speed.
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 1.5e-3
SPEED_WINDOW_S = 0.2
SETUP_PROBES = 10
STARPAL_MODULES = ("starpal", "starpal.errors", "starpal.palette", "starpal.goodness",
                   "starpal.digraphs", "starpal.audit", "starpal.search", "starpal.cli")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_starpal():
    if not (SRC / "starpal" / "__init__.py").is_file():
        die(f"{SRC / 'starpal'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import starpal
    if not Path(starpal.__file__).resolve().is_relative_to(SRC):
        die(f"starpal imported from {starpal.__file__}, not from {SRC}")


def probe() -> float:
    """Seconds one run of the probe takes.

    The probe is a fixed mix of the kinds of work starpal does, written with
    the standard library only: an integer loop, Fraction sums, and building
    frozensets of tuples and a dict.  Each kind slows by a different amount
    when the machine is busy; together they track starpal's ops closely.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    x = Fraction(0)
    for i in range(1, 120):
        x += Fraction(i, i + 3)
    seen = set()
    for i in range(400):
        seen.add(frozenset(((i % 5, i % 3, 1), (i % 7, 0, i % 2))))
    counts: dict[int, int] = {}
    for i in range(1000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - t0


class Speedometer:
    """Samples machine speed while a pass runs: a SIGALRM handler runs the
    probe every ``PROBE_INTERVAL_S``, notes when, and adds up the time it
    spends."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0
        self.raw_wall = 0.0  # the last pass's wall time before scaling

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.times.append(t0)
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than one interval
            self._sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor from a time measured over [t0, t1] to the reference speed:
        the median probe within [t0, t1] widened to ``SPEED_WINDOW_S``."""
        mid = (t0 + t1) / 2
        lo = bisect.bisect_left(self.times, min(t0, mid - SPEED_WINDOW_S / 2))
        hi = bisect.bisect_right(self.times, max(t1, mid + SPEED_WINDOW_S / 2))
        window = self.samples[lo:hi] or [self.samples[min(lo, len(self.samples) - 1)]]
        return PROBE_REF_S / statistics.median(window)


def setup_seconds(starts: int) -> float:
    """Median time of fresh interpreters importing starpal and building the
    CLI parser, at the reference speed: each start is scaled by the median of
    a few probes run just before it.  One untimed start first writes the
    bytecode cache."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for i in range(starts + 1):
        probes = [probe() for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True)
        if i:
            times.append((time.perf_counter() - t0) * PROBE_REF_S / statistics.median(probes))
    return statistics.median(times)


def import_ms(runs: int) -> dict[str, float]:
    """Per-module self import time from ``python -X importtime``, median of runs."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import starpal, starpal.cli"]
    samples: dict[str, list[float]] = {m: [] for m in STARPAL_MODULES}
    for _ in range(runs):
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True,
                              capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)$", line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) / 1e3)
    return {f"{mod}.import_ms": statistics.median(v) if v else 0.0 for mod, v in samples.items()}


class Outcome:
    """Tally of op results over every pass."""

    def __init__(self) -> None:
        self.attempted = self.refused = self.errors = self.wrong = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    def note(self, kind: str, label: str, detail: str = "") -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{kind}: {label} {detail}".rstrip())

    def record(self, op, kind: str, value) -> None:
        """Tally one op: "ok" with its output, "refused" or "error" with the exception."""
        self.attempted += 1
        if kind == "refused" and op.refusable:
            self.refused += 1
        elif kind != "ok":
            self.errors += 1
            self.note(kind, op.label, repr(value))
        elif not op.check(value):
            self.wrong += 1
            self.note("wrong", op.label)


def run_pass(ops, outcome: Outcome, tracer=None,
             speed: Speedometer | None = None) -> tuple[float, list[float]]:
    """Run every op once and check its output; return the pass wall time (the
    sum of the op latencies) and each op's latency, less the time spent in the
    speedometer's probes.  With a speedometer, both are scaled to the
    reference speed.

    Each check runs right after its op, outside the op's latency and outside
    any span, so no output is kept past its check.  A refused op counts at
    its time to refusal.
    """
    from starpal import BudgetExceeded, EnumerationCapExceeded
    latencies, spans = [], []
    if speed:
        speed.start()
    probing = speed or Speedometer()  # without a speedometer, probe time stays 0
    for i, op in enumerate(ops):
        if tracer:
            tracer.enabled = True
        kind = "ok"
        t0, spent = time.perf_counter(), probing.spent
        try:
            value = tracer.run_op(i, op.call) if tracer else op.call()
        except (BudgetExceeded, EnumerationCapExceeded) as exc:
            kind, value = "refused", exc
        except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
            kind, value = "error", exc
        t1 = time.perf_counter()
        if tracer:
            tracer.enabled = False
        latencies.append(t1 - t0 - (probing.spent - spent))
        spans.append((t0, t1))
        outcome.record(op, kind, value)
    if speed:
        speed.stop()
        speed.raw_wall = sum(latencies)
        latencies = [lat * speed.scale(*span) for lat, span in zip(latencies, spans)]
    return sum(latencies), latencies


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of all values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(ops, seconds: float) -> tuple[dict, Outcome, dict]:
    setup = setup_seconds(SETUP_STARTS)
    outcome = Outcome()
    walls, raw_walls, probes, per_pass = [], [], [], []
    start, pass_s = time.perf_counter(), 0.0
    while not walls or time.perf_counter() - start + pass_s <= seconds:
        speed = Speedometer()
        t_pass = time.perf_counter()
        wall, lat = run_pass(ops, outcome, speed=speed)
        pass_s = time.perf_counter() - t_pass
        raw_walls.append(speed.raw_wall)
        walls.append(wall)
        probes.append(statistics.median(speed.samples) * 1e3)
        per_pass.append(lat)
    latency = [statistics.median(samples) for samples in zip(*per_pass)]
    answered = 1 - (outcome.refused + outcome.failed) / outcome.attempted
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "op_p95_ms": (percentile(latency, 0.95) * 1e3, "ms"),
        "answered_frac": (answered, "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup, "s"),
    }
    info = {"passes": len(walls), "pass_wall_s_min_max": [min(walls), max(walls)],
            "raw_wall_s": statistics.median(raw_walls),
            "probe_ms_median_min_max": [statistics.median(probes), min(probes), max(probes)],
            "probe_ref_ms": PROBE_REF_S * 1e3, "ops_per_pass": len(ops),
            "refused": outcome.refused}
    return metrics, outcome, info


def traced(ops, workload: str, seed: int) -> tuple[dict, Outcome, dict]:
    from spans import Tracer
    outcome = Outcome()
    untraced_wall, _ = run_pass(ops, outcome)
    tracer = Tracer()
    tracer.install()
    traced_wall, _ = run_pass(ops, outcome, tracer)
    layers = tracer.layer_metrics()
    layers.update(import_ms(IMPORT_RUNS))
    layers["trace.wall_s"] = traced_wall
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write(spans)
    info = {"untraced_wall_s": untraced_wall, "spans": len(tracer.spans),
            "spans_file": str(spans.relative_to(ROOT))}
    return layers, outcome, info


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_record(workload: str, seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu_model(),
            "loadavg": os.getloadavg(), "commit": git_commit(), "seed": seed, "workload": workload}


def run_one(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    record = run_record(workload, seed)
    import_starpal()
    from workloads import BUILDERS
    spec = benchmark_spec()
    record["why"] = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    ops = BUILDERS[workload](seed, tiny)
    if trace:
        values, outcome, info = traced(ops, workload, seed)
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values, outcome, info = end_to_end(ops, seconds)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    record.update(info)
    record["problems"] = outcome.problems
    print(json.dumps({"record": record}))
    return {"correct": outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Each workload in its own fresh process; metrics prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        if tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            die(f"workload {workload} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        for name, m in result["metrics"].items():
            print(f"{workload:9s} {name:45s} {m['value']:>14.6g} {m['unit']}")
            total["metrics"][f"{workload}.{name}"] = m
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    return total


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every job list to a few ops (smoke test)")
    args = ap.parse_args()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace), args.tiny)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
