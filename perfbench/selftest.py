"""Self-test of the benchmark in this directory (not of the optical bench).

Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload at the tiny scale and checks that the benchmark
prints every metric with its unit and above 0, that a corrupted count fails
the run, that a tail percentile with too few samples beyond it gives no
result, that tracing changes no output, and that the worker count changes
no output.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

from biphoton import cli, engine  # noqa: E402
from biphoton.engine import EnsembleStats  # noqa: E402

import workloads  # noqa: E402

SPEC = run.load_spec()
NAMES = list(workloads.WORKLOADS)


def tiny(name, seed=1, trace=False, workers=None) -> dict:
    return run.run_benchmark(name, seed, 0, trace, workers, "tiny")


@contextlib.contextmanager
def patched(module, attr, make_replacement):
    original = getattr(module, attr)
    setattr(module, attr, make_replacement(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def one_count_moved(run_ensemble):
    """run_ensemble with one pair moved out of the largest cell; the total is kept.

    The pair goes to a non-empty cell where there is one, preferring a cell
    that changes E, so the counts stay statistically plausible and only the
    digest comparison can catch the change.
    """

    def corrupted(*args, **kwargs):
        counts = list(run_ensemble(*args, **kwargs).counts)
        src = max(range(4), key=counts.__getitem__)
        flips_e = [k for k in range(4) if (k in (0, 3)) != (src in (0, 3))]
        dst = max(flips_e, key=counts.__getitem__)
        if counts[dst] == 0:
            dst = max((k for k in range(4) if k != src), key=counts.__getitem__)
        counts[src] -= 1
        counts[dst] += 1
        return EnsembleStats(*counts)

    return corrupted


def first_outcome_flipped(simulate_outcomes):
    def corrupted(*args, **kwargs):
        a_is_x, b_is_x = simulate_outcomes(*args, **kwargs)
        a_is_x[0] = not a_is_x[0]
        return a_is_x, b_is_x

    return corrupted


class TinyRunsPrintEveryMetric(unittest.TestCase):
    def test_benchmark_json_names_workloads_with_their_why(self):
        for entry in SPEC["workloads"]:
            self.assertEqual(entry["why"], workloads.WORKLOADS[entry["name"]].why)

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for name in NAMES:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
                         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
                        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
                    )  # fmt: skip
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for metric, entry in result["metrics"].items():
                        self.assertGreater(entry["value"], 0, metric)
                    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if line.startswith("  ")}
                    for metric, unit in want.items():
                        self.assertEqual(printed.get(metric), unit, metric)


class CorruptedCountFails(unittest.TestCase):
    def assert_fails(self, result):
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["details"]["error_rate"], 0.0)

    def test_moved_count_fails_the_golden_check(self):
        for name in ("chsh-scan", "order-test-large"):
            with self.subTest(workload=name), patched(engine, "run_ensemble", one_count_moved):
                self.assert_fails(tiny(name, seed=run.DEFAULT_SEED))

    def test_flipped_row_fails_at_any_seed(self):
        for seed in (run.DEFAULT_SEED, 1):
            with self.subTest(seed=seed), patched(cli, "simulate_outcomes", first_outcome_flipped):
                self.assert_fails(tiny("trial-dump", seed=seed))

    def test_failed_check_exits_nonzero_with_a_result(self):
        out = io.StringIO()
        with patched(engine, "run_ensemble", one_count_moved), contextlib.redirect_stdout(out):
            code = run.main(["--workload", "order-test-large", "--seed", "0", "--seconds", "0",
                             "--scale", "tiny"])  # fmt: skip
        self.assertEqual(code, 1)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_statistical_check_rejects_a_far_count(self):
        n, p, alpha = 10_000, 0.25, 1e-6
        slack = workloads.bernstein_slack(n, p, alpha)
        self.assertTrue(workloads.count_matches(2500, n, p, alpha))
        self.assertFalse(workloads.count_matches(round(2500 + slack + 1), n, p, alpha))
        self.assertFalse(workloads.count_matches(1, n, 0.0, alpha))


class TooFewTailSamplesGiveNoResult(unittest.TestCase):
    def test_one_full_pass_is_too_short_for_the_tail(self):
        with self.assertRaisesRegex(run.BenchError, "latency_tail_ms is not steady"):
            run.run_benchmark("chsh-scan", 1, 0, False, None, "full")


class HostSpeedScale(unittest.TestCase):
    def test_each_pass_is_scaled_by_its_own_gauge(self):
        workload = workloads.ChshScan(1, "tiny", 1, "")
        passes = []
        for wall, latency, scale in ((1.0, 0.1, 0.5), (2.0, 0.2, 2.0)):
            p = run.Pass(False, scale)
            p.wall, p.latencies = wall, [latency] * len(workload.items)
            passes.append(p)
        measured = run.time_metrics(passes, workload, [0.3], adjust=False)[0]
        scaled = run.time_metrics(passes, workload, [0.3], adjust=True)[0]
        self.assertAlmostEqual(measured["wall_s"], 1.5)
        self.assertAlmostEqual(scaled["wall_s"], (1.0 * 0.5 + 2.0 * 2.0) / 2)
        self.assertAlmostEqual(scaled["latency_p50_ms"], (0.1 * 0.5 + 0.2 * 2.0) / 2 * 1e3)
        self.assertAlmostEqual(scaled["trials_per_s"], 2 * workload.trials_per_pass / (0.5 + 4.0))


class OutputsDoNotDependOnHowTheyAreRun(unittest.TestCase):
    def test_traced_digests_equal_untraced(self):
        for name in NAMES:
            with self.subTest(workload=name):
                traced = tiny(name, trace=True)
                untraced = tiny(name)
                self.assertTrue(traced["correct"])
                self.assertTrue(traced["details"]["traced_equals_untraced"])
                self.assertEqual(
                    traced["details"]["pass_digests"]["traced"],
                    untraced["details"]["pass_digests"]["untraced"],
                )

    def test_worker_count_gives_the_same_digests(self):
        many = max(2, run.nproc())
        for name in NAMES:
            with self.subTest(workload=name):
                one = tiny(name, workers=1)
                several = tiny(name, workers=many)
                self.assertTrue(one["correct"] and several["correct"])
                self.assertEqual(
                    one["details"]["pass_digests"], several["details"]["pass_digests"]
                )


if __name__ == "__main__":
    unittest.main()
