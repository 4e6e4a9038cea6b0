"""Seeded closed-loop benchmark of barychi requests.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

One caller sends one request at a time to ``barychi.cli.main`` in this
process, with the argv a user would type, captures its stdout and checks it.
Requests come from ``workloads.py``; the program only ever sees argv.  The
run stops at the first cycle boundary after ``--seconds``.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to a
reference host speed with ``calibrate.py``, measured next to the work.
``--trace 1`` sends each request of a fixed
prefix of the plan twice in a row, untraced and traced, and prints per-layer
self times, work counts and the tracing overhead.  The last stdout line is one
JSON object; the full result, with provenance, and the spans of a traced run
are written under ``.perfbench_out/``.  See README.md beside this file.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from bisect import bisect_left, bisect_right
from itertools import islice
from pathlib import Path

import calibrate
import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Fresh interpreters timed importing barychi.cli, half of them before the
# run and half after it, so that they sample two moments of the host's
# speed; the very first also compiles the bytecode and is not counted.
# Each then times calibration bursts, after the import so that they do not
# warm it.
SETUP_PROBES = 8
_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
          "t = time.perf_counter(); import barychi.cli; "
          "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
          "import calibrate; calibrate.burst_seconds(); "
          "print(t, calibrate.burst_seconds(3))")
# During an untraced run a calibration burst runs before the next request
# once this many seconds have passed since the last one.  A request is scaled
# by the median of the bursts within SPEED_WINDOW_S of it, and at least the
# two that bracket it: one burst alone is too noisy, and the host's speed
# phases last longer than the window.
CALIBRATE_EVERY_S = 0.2
SPEED_WINDOW_S = 0.5
# A request still running this many seconds after the run started is cut
# off as over budget, and later ones fail at once, so a run always ends well
# inside three minutes, however slow the program gets.
RUN_LIMIT_S = 150.0


OVER_BUDGET = "over its time budget"


class OverBudget(BaseException):
    """Raised from SIGALRM when a request runs past its time budget."""


def _alarm(signum, frame):
    raise OverBudget()


def call(main, argv: list[str], budget: float) -> tuple[int | None, float, str, str | None]:
    """Run one request; return (exit code, seconds, stdout, fault or None).

    The budget is a one-shot interval timer in this thread: an over-budget
    request is interrupted and reported, never waited on.
    """
    out = io.StringIO()
    code, fault = None, None
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget)
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OverBudget:
        fault = OVER_BUDGET
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed request, not a failed run
        fault = f"raised {type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start, out.getvalue(), fault


def measure_setup(probes: int) -> list[tuple[float, float]]:
    """(seconds to import barychi.cli, seconds of one calibration burst) in
    a fresh interpreter, per probe."""
    out = []
    for _ in range(probes):
        done = subprocess.run([sys.executable, "-I", "-c", _PROBE, str(SRC), str(HERE)],
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, burst = map(float, done.stdout.split())
        out.append((seconds, burst))
    return out


def import_cli():
    sys.path.insert(0, str(SRC))
    import barychi.cli
    if not Path(barychi.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"barychi.cli imported from {barychi.cli.__file__}, not {SRC}")
    return barychi.cli


class Loop:
    """Closed-loop execution and checking of a workload's requests."""

    def __init__(self, main, workload: str, deadline: float = math.inf,
                 calibrate_every: float | None = None) -> None:
        self.main = main
        self.budget = workloads.BUDGET_S[workload]
        self.deadline = deadline
        self.issued: list[list[str]] = []
        self.latencies: list[float] = []
        # Calibration bursts with the times they ended, and for each checked
        # request the time it ended and the index of the last burst before
        # it; None runs no bursts.
        self.calibrate_every = calibrate_every
        self.bursts: list[float] = []
        self.burst_at: list[float] = []
        self.checked_at: list[tuple[float, int]] = []
        self.wrong = 0
        self.over = 0
        self.faults: list[str] = []

    def send(self, req: dict, main=None) -> str:
        """Run and check one request; return its stdout."""
        args = workloads.argv(req)
        self.issued.append(args)
        if (self.calibrate_every is not None and (
                not self.burst_at
                or time.perf_counter() - self.burst_at[-1] >= self.calibrate_every)):
            self.calibrate()
        budget = min(self.budget, self.deadline - time.perf_counter())
        if budget > 0:
            code, seconds, stdout, fault = call(main or self.main, args, budget)
        else:
            code, seconds, stdout, fault = None, 0.0, "", OVER_BUDGET
        if fault is None:
            fault = checks.check(req, code, stdout)
        if fault is None:
            self.latencies.append(seconds)
            self.checked_at.append((time.perf_counter(), len(self.bursts) - 1))
            return stdout
        if fault == OVER_BUDGET:
            self.over += 1
        else:
            self.wrong += 1
        if len(self.faults) < 10:
            self.faults.append(f"{' '.join(args)}: {fault}")
        return stdout

    def calibrate(self) -> None:
        self.bursts.append(calibrate.burst_seconds())
        self.burst_at.append(time.perf_counter())

    def scaled_latencies(self) -> list[float]:
        """Checked request times at the reference speed (see SPEED_WINDOW_S)."""
        self.calibrate()
        scaled = []
        for seconds, (end, before) in zip(self.latencies, self.checked_at):
            lo = min(before, bisect_left(self.burst_at, end - seconds - SPEED_WINDOW_S))
            hi = max(before + 2, bisect_right(self.burst_at, end + SPEED_WINDOW_S))
            burst = statistics.median(self.bursts[lo:hi])
            scaled.append(seconds * calibrate.REFERENCE_S / burst)
        return scaled

    @property
    def attempted(self) -> int:
        return len(self.issued)

    @property
    def failed(self) -> int:
        return self.wrong + self.over


def untraced(loop: Loop, plan, seconds: float) -> dict:
    start = time.perf_counter()
    for cycle in plan:
        for req in cycle:
            loop.send(req)
        if time.perf_counter() - start >= seconds:
            break
    if not loop.latencies:
        raise RuntimeError("no request succeeded: " + "; ".join(loop.faults))
    lat_ms = sorted(t * 1000 for t in loop.scaled_latencies())
    raw_ms = sorted(t * 1000 for t in loop.latencies)
    extra = {"failed_ratio": loop.failed / loop.attempted, "samples": len(lat_ms),
             "over_budget": loop.over, "wall_s": time.perf_counter() - start}
    if len(lat_ms) >= 100:  # at least ten samples lie beyond p90
        extra["request_ms_p90"] = statistics.quantiles(lat_ms, n=10)[8]
    extra.update({
        "raw_requests_per_s": len(raw_ms) / sum(loop.latencies),
        "raw_request_ms_p50": statistics.median(raw_ms),
        "bursts": len(loop.bursts),
        "burst_ms_median": statistics.median(loop.bursts) * 1000,
    })
    metrics = {
        "requests_per_s": (len(lat_ms) * 1000 / sum(lat_ms), "1/s"),
        "request_ms_p50": (statistics.median(lat_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {"metrics": metrics, "extra": extra, "latency_ms": lat_ms}


def traced(loop: Loop, cli, requests: list[dict]) -> dict:
    """Send each request once untraced and once traced, in turn, so that
    both see the same phase of the host; which goes first alternates, so
    that neither side gains from what the other left warm."""
    tracer = tracing.Tracer()
    counts = dict.fromkeys(tracing.COUNTS, 0)

    def main(argv):
        with tracer.span("cli.main"):
            return cli.main(argv)

    plain_wall = traced_wall = replay_s = 0.0
    installed: list[str] = []
    for request_id, req in enumerate(requests):
        tracer.request, tracer.calls = request_id, []
        for traced_turn in (request_id % 2 == 1, request_id % 2 == 0):
            start = time.perf_counter()
            if traced_turn:
                with tracing.hooked(cli, tracer) as installed:
                    stdout = loop.send(req, main)
                traced_wall += time.perf_counter() - start
            else:
                loop.send(req)
                plain_wall += time.perf_counter() - start
        # The replayed layers are extra work, not overhead of the spans.
        if time.perf_counter() < loop.deadline:
            start = time.perf_counter()
            tracing.replay(tracer, req, stdout, counts)
            replay_s += time.perf_counter() - start

    metrics = {name: (value, "s") for name, value in tracing.layer_seconds(tracer.spans).items()}
    metrics.update({name: (counts[name], unit) for name, unit in tracing.COUNTS.items()})
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    extra = {"hooks": installed, "spans": len(tracer.spans), "untraced_wall_s": plain_wall,
             "traced_wall_s": traced_wall, "replay_s": replay_s}
    argvs = [workloads.argv(req) for req in requests]
    per_request = [{"argv": args, "self_ms": layers} for args, layers
                   in zip(argvs, tracing.request_self_ms(tracer.spans, len(requests)))]
    spans = {"columns": ["id", "parent", "request", "name", "start_ns", "end_ns"],
             "spans": tracer.spans, "requests": argvs}
    return {"metrics": metrics, "extra": extra, "per_request": per_request, "spans": spans}


def provenance(seed: int, issued: list[list[str]]) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "barychi").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "requests": len(issued),
        "requests_sha256": hashlib.sha256(json.dumps(issued).encode()).hexdigest(),
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, if it is a git work tree of its own."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--minimum", action="store_true",
                        help="one cycle with every request shape at its smallest size")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (SRC / "barychi" / "cli.py").is_file():
        print(f"error: no barychi sources under {SRC}", file=sys.stderr)
        return 2
    try:
        setup = [] if args.trace else measure_setup(SETUP_PROBES + 1)[1:]
        cli = import_cli()
    except (subprocess.SubprocessError, ValueError, ImportError) as exc:
        print(f"error: cannot import barychi.cli: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)

    plan = workloads.cycles(args.workload, args.seed, args.minimum)
    loop = Loop(cli.main, args.workload, deadline,
                calibrate_every=None if args.trace else CALIBRATE_EVERY_S)
    try:
        if args.trace:
            limit = None if args.minimum else workloads.TRACE_REQUESTS[args.workload]
            requests = list(islice((req for cycle in plan for req in cycle), limit))
            result = traced(loop, cli, requests)
        else:
            result = untraced(loop, plan, args.seconds)
            setup += measure_setup(SETUP_PROBES)
            scaled = [seconds * calibrate.REFERENCE_S / burst for seconds, burst in setup]
            result["metrics"]["setup_s"] = (statistics.median(scaled), "s")
            result["extra"]["raw_setup_s"] = statistics.median(seconds for seconds, _ in setup)
            result["extra"]["setup_probes"] = setup
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    spans = result.pop("spans", None)
    result.update(workload=args.workload, trace=args.trace, correct=loop.failed == 0,
                  attempted=loop.attempted, failed=loop.failed, faults=loop.faults,
                  provenance=provenance(args.seed, loop.issued))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))

    _print_summary(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


def _print_summary(result: dict) -> None:
    print(f"workload {result['workload']}  trace {result['trace']}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:32} {value:14.6g} {unit}")
    for name, value in result["extra"].items():
        if name != "setup_probes":
            print(f"  {name:32} {value}")
    for fault in result["faults"]:
        print(f"  FAILED {fault}")
    print("provenance " + json.dumps(result["provenance"]))


if __name__ == "__main__":
    sys.exit(main())
