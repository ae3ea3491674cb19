"""The benchmark's workloads: inputs drawn from the seed, one experiment, its checks.

A workload is a fixed list of experiments (one pass).  Its inputs come from
``numpy.random.default_rng(seed)``; the library only sees the generated
angles, benches and master seeds.  Every experiment's output reduces to a
digest of integers or bytes, so repeated passes, traced passes and runs at
other worker counts can be compared exactly.

Statistical checks use Bernstein's inequality: a Binomial(n, p) count lands
farther than ``bernstein_slack(n, p, alpha)`` from n p with probability at
most ``alpha``, for any n and p.  Each workload splits
:data:`FALSE_ALARM_PER_PASS` evenly over the counts it tests in a pass, so
by the union bound a correct pass fails with probability at most that.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import replace

import numpy as np

from biphoton import cli, engine
from biphoton.engine import CHUNK, MODEL_NAMES, OpticalBench
from biphoton.local import ChshAngles
from biphoton.quantum import XX, YY, AnalyzerSetting

#: bound on the chance that a correct pass fails the statistical checks
FALSE_ALARM_PER_PASS = 1e-4


def bernstein_slack(n: int, p: float, alpha: float) -> float:
    """Deviation |X - n p| a Binomial(n, p) count X reaches with probability <= alpha.

    Solves 2 exp(-t^2 / (2 (n p (1 - p) + t / 3))) = alpha for t.
    """
    log_term = math.log(2.0 / alpha)
    var = n * p * (1.0 - p)
    return log_term / 3.0 + math.sqrt((log_term / 3.0) ** 2 + 2.0 * log_term * var)


def count_matches(count: int, n: int, p: float, alpha: float) -> bool:
    """Whether ``count`` of ``n`` is consistent with cell probability ``p``."""
    if p <= 0.0:
        return count == 0
    if p >= 1.0:
        return count == n
    return abs(count - n * p) <= bernstein_slack(n, p, alpha)


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _table_problems(label, counts, n, table, alpha) -> list:
    """Problems of a 4-cell count vector against an analytic table."""
    problems = []
    if sum(counts) != n:
        problems.append(f"{label}: counts {counts} do not sum to {n}")
    for cell, count, p in zip(("XX", "XY", "YX", "YY"), counts, table.p):
        p = float(p)
        if not count_matches(count, n, p, alpha):
            problems.append(f"{label}: {cell} count {count} of {n} is far from p = {p!r}")
    return problems


class ChshScan:
    """A stream of CHSH experiments over random setting quadruples.

    Experiment: ``chsh_experiment`` at ``n`` pairs per setting pair plus
    ``analytic_chsh``, one model at a time in the fixed order of
    ``MODEL_NAMES``.
    """

    name = "chsh-scan"
    why = (
        "lhv-sign CHSH ensembles at acceptance criterion 6's size, 10^4 pairs per setting, "
        "interleaved with qm and naive: one chunk each, so per-call fixed cost dominates and RNG "
        "volume barely counts"
    )
    tail_pct = 99.0
    sizes = {"full": (100, 10_000), "tiny": (4, 10_000)}  # quadruples, pairs per setting

    def __init__(self, seed: int, scale: str, workers: int, scratch: str):
        quadruples, self.n = self.sizes[scale]
        self.workers = workers
        rng = np.random.default_rng(seed)
        self.items = []
        for _ in range(quadruples):
            angles = ChshAngles(*(float(x) for x in rng.uniform(0.0, math.pi, size=4)))
            plate = bool(rng.integers(2))
            master_seed = int(rng.integers(2**63))
            self.items += [(model, angles, plate, master_seed) for model in MODEL_NAMES]
        self.trials_per_pass = len(self.items) * 4 * self.n
        self.alpha = FALSE_ALARM_PER_PASS / (4 * len(self.items))

    def run(self, j: int, pass_index: int):
        model, angles, plate, master_seed = self.items[j]
        sampled = engine.chsh_experiment(model, angles, self.n, master_seed, plate, self.workers)
        exact = engine.analytic_chsh(model, angles, plate)
        return sampled, exact

    def _same_counts(self, sampled) -> list:
        """Pairs with equal outcomes per term, recovered exactly from E = (2 same - n) / n."""
        counts = []
        for e in (sampled.e_ab, sampled.e_abp, sampled.e_apb, sampled.e_apbp):
            same = round((1.0 + e) * self.n / 2.0)
            if (2 * same - self.n) / self.n != e:
                raise ValueError(f"E = {e!r} is not a count over {self.n} pairs")
            counts.append(same)
        return counts

    def digest(self, j: int, out) -> str:
        return _digest(self.items[j][0], self._same_counts(out[0]))

    def check(self, j: int, out) -> list:
        model, angles, plate, _ = self.items[j]
        sampled, exact = out
        problems = []
        base = OpticalBench(plate_present=plate)
        exact_terms = (exact.e_ab, exact.e_abp, exact.e_apb, exact.e_apbp)
        for k, ((alpha, beta), same, e_exact) in enumerate(
            zip(angles.pairs(), self._same_counts(sampled), exact_terms)
        ):
            table = engine.analytic_joint_table(model, replace(base, alpha=alpha, beta=beta))
            p_same = float(table.p[XX] + table.p[YY])
            if abs(e_exact - (2.0 * p_same - 1.0)) > 1e-12:
                problems.append(f"term {k}: analytic_chsh E {e_exact!r} disagrees with the table")
            if not count_matches(same, self.n, p_same, self.alpha):
                problems.append(f"term {k}: {same} equal outcomes of {self.n}, p_same = {p_same!r}")
        return problems

    def discard(self, out) -> None:
        pass


class OrderTestLarge:
    """``order_invariance_report`` on the README's early and late benches, per model."""

    name = "order-test-large"
    why = (
        "order tests at 2^23 pairs per bench on every core: counter-RNG words, per-model "
        "classification, counting and thread scheduling dominate, planning is noise"
    )
    tail_pct = 75.0
    sizes = {"full": 2**23, "tiny": 3 * CHUNK - 5}  # pairs per bench
    early = OpticalBench(d_prism_b=0.25)
    late = OpticalBench(d_prism_b=1.0)

    def __init__(self, seed: int, scale: str, workers: int, scratch: str):
        self.n = self.sizes[scale]
        self.workers = workers
        rng = np.random.default_rng(seed)
        self.items = [(model, int(rng.integers(2**63))) for model in MODEL_NAMES]
        self.trials_per_pass = len(self.items) * 2 * self.n
        self.alpha = FALSE_ALARM_PER_PASS / (8 * len(self.items))

    def run(self, j: int, pass_index: int):
        model, master_seed = self.items[j]
        return engine.order_invariance_report(
            model, self.early, self.late, self.n, master_seed, self.workers
        )

    def digest(self, j: int, out) -> str:
        return _digest(out.model, out.early.counts, out.late.counts, out.verdict)

    def check(self, j: int, out) -> list:
        model = self.items[j][0]
        problems = []
        for label, stats, bench, reported in (
            ("early", out.early, self.early, out.analytic_early),
            ("late", out.late, self.late, out.analytic_late),
        ):
            table = engine.analytic_joint_table(model, bench)
            if reported != tuple(float(p) for p in table.p):
                problems.append(f"{label}: reported analytic table {reported} is not the model's")
            problems += _table_problems(label, stats.counts, self.n, table, self.alpha)
        return problems

    def discard(self, out) -> None:
        pass


class TrialDump:
    """In-process ``biphoton pair --format csv`` into a file, one call per model."""

    name = "trial-dump"
    why = (
        "pair --format csv at 10^6 rows per model: the materialising path and its Python row "
        "writer, which dominate time and memory; kernel speedups barely move it"
    )
    tail_pct = 70.0
    sizes = {"full": 1_000_000, "tiny": 2 * CHUNK + 7}  # rows per call
    header = b"trial,outcome_a,outcome_b,b_before_plate\n"
    replayed_rows = 64

    def __init__(self, seed: int, scale: str, workers: int, scratch: str):
        self.n = self.sizes[scale]
        self.workers = workers
        self.scratch = scratch
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.items = []
        for model in MODEL_NAMES:
            alpha, beta = (float(x) for x in rng.uniform(0.0, 180.0, size=2))
            d_prism_b = (0.25, 1.0)[int(rng.integers(2))]
            self.items.append((model, alpha, beta, d_prism_b, int(rng.integers(2**63))))
        self.trials_per_pass = len(self.items) * self.n
        self.alpha = FALSE_ALARM_PER_PASS / (4 * len(self.items))

    def bench(self, j: int) -> OpticalBench:
        _, alpha, beta, d_prism_b, _ = self.items[j]
        return OpticalBench(
            d_prism_b=d_prism_b,
            alpha=AnalyzerSetting.from_degrees(alpha),
            beta=AnalyzerSetting.from_degrees(beta),
        )

    def run(self, j: int, pass_index: int) -> str:
        model, alpha, beta, d_prism_b, master_seed = self.items[j]
        path = os.path.join(self.scratch, f"dump-{pass_index}-{j}.csv")
        argv = [
            "pair", "--model", model, "--format", "csv", "--trials", str(self.n),
            "--seed", str(master_seed), "--alpha", repr(alpha), "--beta", repr(beta),
            "--d-prism-b", repr(d_prism_b), "--workers", str(self.workers), "--out", path,
        ]  # fmt: skip
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli.main exited {code}")
        return path

    def digest(self, j: int, path: str) -> str:
        h = hashlib.sha256()
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
        return h.hexdigest()[:16]

    def _row_offset(self, row: int, flag: bytes) -> int:
        """Byte offset of a row: each is its index, ',X,Y,', the flag and a newline."""
        digits, start, width = 0, 0, 1
        while start < row:
            stop = min(row, 10**width)
            digits += (stop - start) * width
            start, width = stop, width + 1
        return len(self.header) + digits + row * (len(",X,Y,") + len(flag) + 1)

    def check(self, j: int, path: str) -> list:
        model, _, _, _, master_seed = self.items[j]
        bench = self.bench(j)
        with open(path, "rb") as f:
            data = f.read()
        if not data.startswith(self.header):
            return ["the header is missing"]
        counts = [data.count(b"," + cell + b",") for cell in (b"X,X", b"X,Y", b"Y,X", b"Y,Y")]
        table = engine.analytic_joint_table(model, bench)
        problems = _table_problems("rows", counts, self.n, table, self.alpha)
        flag = b"true" if engine.detect_b_before_plate(bench) else b"false"
        if len(data) != self._row_offset(self.n, flag):
            problems.append(f"{len(data)} bytes is not the size of {self.n} rows")
        rng = np.random.default_rng([self.seed, j])
        rows = {0, CHUNK - 1, CHUNK, self.n - 1} | {
            int(i) for i in rng.integers(self.n, size=self.replayed_rows)
        }
        for i in sorted(r for r in rows if r < self.n):
            rec = engine.run_trial(model, bench, master_seed, i)
            flag_i = b"true" if rec.b_before_plate else b"false"
            want = b"%d,%s,%s,%s\n" % (
                i, rec.outcome_a.value.encode(), rec.outcome_b.value.encode(), flag_i
            )
            at = self._row_offset(i, flag)
            if data[at : at + len(want)] != want:
                problems.append(f"row {i} is {data[at : at + len(want)]!r}, run_trial gives {want!r}")
        return problems

    def discard(self, path: str) -> None:
        os.remove(path)


WORKLOADS = {w.name: w for w in (ChshScan, OrderTestLarge, TrialDump)}


def default_workers(name: str, nproc: int) -> int:
    """chsh-scan runs serially; the large workloads use every core."""
    return 1 if name == ChshScan.name else nproc
