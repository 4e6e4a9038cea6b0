"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its minimum size, untraced and traced, and checks
that every metric BENCHMARK.json names is printed with its unit, that no
request fails, and that the traced counts repeat exactly for one seed.  It
also feeds the checker corrupted reports and an over-budget request, to show
that both count as failed, and checks that the benchmark refuses to run
without the program's sources.
"""
from __future__ import annotations

import io
import json
import shutil
import signal
import subprocess
import sys
import time
import unittest
from contextlib import redirect_stdout
from pathlib import Path

import checks
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def minimum_run(workload: str, trace: int) -> tuple[dict, str]:
    done = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--minimum")
    return result_line(done), done.stdout


class MinimumRuns(unittest.TestCase):
    def assert_metrics(self, result: dict, spec: list[dict]) -> None:
        want = {m["name"]: m["unit"] for m in spec}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_untraced_prints_every_end_to_end_metric(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                result, stdout = minimum_run(workload, 0)
                self.assert_metrics(result, SPEC["end_to_end"])
                self.assertIn("failed_ratio                     0.0", stdout)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_counts_repeat_for_one_seed(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, _ = minimum_run(workload, 1)
                second, _ = minimum_run(workload, 1)
                self.assert_metrics(first, SPEC["per_layer"])
                counts = [name for name, m in first["metrics"].items() if m["unit"] != "s"]
                self.assertTrue(counts)
                for name in counts:
                    self.assertEqual(first["metrics"][name], second["metrics"][name], name)
                self.assertGreater(first["metrics"]["cli.main_s"]["value"], 0)


def program_output(req: dict) -> str:
    cli = run.import_cli()
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(workloads.argv(req)) == 0
    return out.getvalue()


def first_request(workload: str, cmd: str) -> dict:
    cycle = next(workloads.cycles(workload, 3, minimum=True))
    return next(req for req in cycle if req["cmd"] == cmd)


class CheckerBites(unittest.TestCase):
    def assert_caught(self, req: dict, good: str, corrupt) -> None:
        self.assertIsNone(checks.check(req, 0, good))
        bad = corrupt(good)
        self.assertNotEqual(bad, good)
        self.assertIsNotNone(checks.check(req, 0, bad))
        loop = run.Loop(lambda argv: print(bad, end="") or 0, "dump")
        loop.send(req)
        self.assertEqual((loop.attempted, loop.failed), (1, 1))

    def test_corrupted_reports_fail(self):
        def edit_json(change):
            def corrupt(text):
                report = json.loads(text)
                change(report)
                return json.dumps(report)
            return corrupt

        def bump_direct_term(report):
            report["breakdown"]["direct"][0][1] += 1

        def bump_series_term(report):
            report["terms"][0][1] += 1

        compute = first_request("dump", "compute")
        series = first_request("dump", "series")
        deep = first_request("deep", "compute")
        classify = first_request("corpus", "classify")
        oracle = first_request("corpus", "oracle")
        cases = [
            (compute, edit_json(lambda r: r.update(verdict="MISMATCH"))),
            (compute, edit_json(bump_direct_term)),
            (compute, edit_json(lambda r: r["methods"].update(strata=r["chi_c"] + 1))),
            (series, edit_json(bump_series_term)),
            (deep, lambda text: text.replace("verdict: MATCH", "verdict: MISMATCH")),
            (classify, edit_json(lambda r: r.update(descriptor_chi=r["engine_chi_c"] + 1))),
            (oracle, edit_json(lambda r: r.update(oracle=r["oracle"] + 1))),
        ]
        for req, corrupt in cases:
            with self.subTest(cmd=req["cmd"]):
                self.assert_caught(req, program_output(req), corrupt)

    def test_over_budget_request_fails_without_waiting(self):
        req = first_request("wide", "compute")
        cli = run.import_cli()
        previous = signal.signal(signal.SIGALRM, run._alarm)
        try:
            loop = run.Loop(cli.main, "wide")
            loop.budget = 0.01
            start = time.perf_counter()
            loop.send(req)
            elapsed = time.perf_counter() - start
        finally:
            signal.signal(signal.SIGALRM, previous)
        self.assertEqual((loop.over, loop.failed), (1, 1))
        self.assertLess(elapsed, 0.2)

    def test_requests_after_the_run_deadline_fail_at_once(self):
        loop = run.Loop(lambda argv: 0, "corpus", deadline=time.perf_counter())
        loop.send(first_request("corpus", "compute"))
        self.assertEqual((loop.over, loop.failed, loop.latencies), (1, 1, []))


class RefusesWithoutProgram(unittest.TestCase):
    def test_nonzero_exit_and_no_result(self):
        bare = ROOT / ".perfbench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = bench("--workload", "corpus", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
