"""Benchmark of the biphoton simulator: one workload per process, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload chsh-scan --seed 1 --seconds 55 --trace 0

The workload's experiments (one pass) are generated from ``--seed`` and run
again and again, closed loop with one client, for ``--seconds``.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics named in BENCHMARK.json, their times scaled to a reference host
speed by a gauge loop timed before every pass (the report also prints them
as measured); with ``--trace 1`` untraced and traced
passes alternate and the metrics are the per-layer ones, derived from spans
recorded around the package's public callables (see tracer.py).  Spans and
a full record of the run go to ``perfbench/out/``.

Correctness is checked outside the timed region.  Every pass must give the
same digests as the first; at the default seed they must also equal the
digests recorded in golden.json, and every experiment is checked against the
model's analytic table (see workloads.py).  The exit code is 0 when every
check passed, 1 when one failed, and 2 when the benchmark could not run or,
at full scale, saw fewer than ten experiments beyond the tail percentile.

``--record-golden`` runs one pass at the default seed and stores its digests
in golden.json; only do that on a commit whose output is known to be right.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
SETUP_PROBES = {"full": 9, "tiny": 3}
#: a full-scale run fails when fewer experiments than this lie beyond the tail percentile
MIN_BEYOND_TAIL = 10
#: seconds the host-speed gauge takes at the reference speed; see README, "Host-speed adjustment"
REFERENCE_GAUGE_S = 0.0125

# a fresh interpreter up to its first result: import, then one n=1 ensemble per model
_SETUP_PROBE = """
import time
t0 = time.perf_counter()
import biphoton
import_s = time.perf_counter() - t0
for model in biphoton.MODEL_NAMES:
    biphoton.run_ensemble(model, biphoton.OpticalBench(), 1, 0)
print(import_s, biphoton.__file__, flush=True)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    """Import biphoton from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "biphoton" / "__init__.py").is_file():
        raise BenchError(f"no biphoton package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import biphoton

    if Path(biphoton.__file__).resolve().parent != SRC / "biphoton":
        raise BenchError(f"biphoton was imported from {biphoton.__file__}, not {SRC}")
    return biphoton


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def probe_setup() -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its first result, and its import time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _SETUP_PROBE],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    fields = line.split(" ", 1)
    if code != 0 or len(fields) != 2:
        raise BenchError(f"setup probe exited {code} after printing {line!r}")
    if Path(fields[1].strip()).resolve().parent != SRC / "biphoton":
        raise BenchError(f"setup probe imported biphoton from {fields[1].strip()}")
    return elapsed, float(fields[0])


class SetupProbes:
    """Setup probes spread evenly over the run, so they see the host as the passes do.

    One extra probe runs first, uncounted, so the bytecode cache is warm as
    it is for a user's second call.
    """

    def __init__(self, count: int, seconds: float):
        self.count = count
        self.spacing = seconds / count
        self.to_first: list = []
        self.imports: list = []
        probe_setup()

    def due(self, elapsed: float) -> None:
        """Take the probes whose time has come, ``elapsed`` seconds into the run."""
        while len(self.to_first) < self.count and elapsed >= len(self.to_first) * self.spacing:
            to_first, import_s = probe_setup()
            self.to_first.append(to_first)
            self.imports.append(import_s)


def host_speed_gauge() -> float:
    """Seconds a fixed pure-Python loop takes now (median of three): the host's current speed."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(100_000):
            s += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Pass:
    def __init__(self, traced: bool, to_reference: float):
        self.traced = traced
        self.to_reference = to_reference  # scales this pass's times to the reference host speed
        self.wall = 0.0
        self.latencies: list = []
        self.digests: list = []
        self.errors: dict = {}


def run_passes(workload, seconds: float, probes: SetupProbes, tracer=None):
    """Repeat the pass until the next one would end after ``seconds``.

    Setup probes due after a pass run before the next one, and the host-speed
    gauge runs before each pass; both stay outside the pass's time.

    With a tracer, untraced and traced passes alternate, starting untraced,
    and the run ends after a traced pass.  Returns the passes and the first
    successful output of every experiment; other outputs are discarded once
    digested.
    """
    n = len(workload.items)
    passes: list[Pass] = []
    first = [None] * n
    start = time.perf_counter()
    while True:
        p = Pass(tracer is not None and len(passes) % 2 == 1, REFERENCE_GAUGE_S / host_speed_gauge())
        outputs = [None] * n
        with tracer if p.traced else contextlib.nullcontext():
            t_pass = time.perf_counter()
            for j in range(n):
                if p.traced:
                    tracer.experiment = j
                t0 = time.perf_counter()
                try:
                    outputs[j] = workload.run(j, len(passes))
                except Exception as exc:  # counted against error_rate, the run goes on
                    p.errors[j] = f"{type(exc).__name__}: {exc}"
                p.latencies.append(time.perf_counter() - t0)
            p.wall = time.perf_counter() - t_pass
        for j, out in enumerate(outputs):
            digest = None
            if out is not None:
                try:
                    digest = workload.digest(j, out)
                except Exception as exc:
                    p.errors[j] = f"{type(exc).__name__}: {exc}"
            p.digests.append(digest)
            if first[j] is None and digest is not None:
                first[j] = out
            elif out is not None:
                workload.discard(out)
        passes.append(p)
        probes.due(time.perf_counter() - start)
        elapsed = time.perf_counter() - start
        paired = tracer is None or len(passes) % 2 == 0
        if paired and elapsed + p.wall > seconds:
            probes.due(math.inf)
            return passes, first


def load_golden(name: str, scale: str):
    try:
        with open(GOLDEN, encoding="utf-8") as f:
            return json.load(f)["digests"][name][scale]
    except (OSError, KeyError, json.JSONDecodeError):
        return None


def record_golden(name: str, scale: str, digests: list) -> None:
    try:
        with open(GOLDEN, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError:
        doc = {"seed": DEFAULT_SEED, "digests": {}}
    doc["digests"].setdefault(name, {})[scale] = digests
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def judge(workload, passes, first, golden):
    """Failed experiments over all passes, and the problems found.

    An experiment fails when it raised, when its digest differs from the
    reference (golden.json at the default seed, else the first pass), or
    when its output failed the workload's checks.
    """
    n = len(workload.items)
    reference = list(golden) if golden is not None else [None] * n
    problems = {}
    for j in range(n):
        found = []
        if first[j] is None:
            found.append("no run of this experiment succeeded")
        else:
            try:
                found += workload.check(j, first[j])
            except Exception as exc:
                found.append(f"check raised {type(exc).__name__}: {exc}")
            if golden is None:
                reference[j] = workload.digest(j, first[j])
            workload.discard(first[j])
        if found:
            problems[j] = found
    failed = 0
    for k, p in enumerate(passes):
        for j in range(n):
            if j in p.errors:
                problems.setdefault(j, []).append(f"pass {k}: {p.errors[j]}")
            elif p.digests[j] != reference[j]:
                problems.setdefault(j, []).append(
                    f"pass {k}: digest {p.digests[j]} differs from reference {reference[j]}"
                )
            if j in problems:
                failed += 1
    return failed, problems


def time_metrics(passes, workload, setup_times, adjust: bool) -> tuple[dict, int, int]:
    """The timed end-to-end metrics, at the reference host speed or as measured.

    Also returns how many experiments lie beyond the tail percentile, and of how many.
    """
    import numpy as np

    scales = [p.to_reference if adjust else 1.0 for p in passes]
    walls = [p.wall * k for p, k in zip(passes, scales)]
    latencies = [x * k for p, k in zip(passes, scales) for x in p.latencies]
    tail = float(np.percentile(latencies, workload.tail_pct))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.mean(walls),
        "trials_per_s": workload.trials_per_pass * len(walls) / sum(walls),
        "latency_p50_ms": statistics.mean(statistics.median(p.latencies) * k for p, k in zip(passes, scales))
        * 1e3,
        "latency_tail_ms": tail * 1e3,
    }
    return metrics, sum(1 for x in latencies if x > tail), len(latencies)


def pass_digest(p: Pass) -> str:
    return hashlib.sha256(repr(p.digests).encode()).hexdigest()[:16]


def run_benchmark(name, seed, seconds, trace, workers, scale, use_golden=True) -> dict:
    """Run one workload; returns the metrics, the verdict and the details."""
    biphoton = import_package()
    import numpy as np

    import tracer as tracing
    import workloads

    cores = nproc()
    if workers is None:
        workers = workloads.default_workers(name, cores)
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, scale, workers, str(OUT))
    provenance = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": cores,
        "cpu_model": cpu_model(),
        "chunk": biphoton.CHUNK,
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "workers": workers,
        "scale": scale,
        "experiments_per_pass": len(workload.items),
        "trials_per_pass": workload.trials_per_pass,
        "false_alarm_per_pass": workloads.FALSE_ALARM_PER_PASS,
    }

    golden = None
    if use_golden and seed == DEFAULT_SEED:
        golden = load_golden(name, scale)
        if golden is None or len(golden) != len(workload.items):
            raise BenchError(f"golden.json has no digests for the {len(workload.items)} "
                             f"experiments of {name} at scale {scale}")

    probes = SetupProbes(SETUP_PROBES[scale], seconds)
    tracer = tracing.Tracer() if trace else None
    passes, first = run_passes(workload, seconds, probes, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, problems = judge(workload, passes, first, golden)
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    digests = {
        "untraced": sorted({pass_digest(p) for p in untraced}),
        "traced": sorted({pass_digest(p) for p in traced}),
    }
    attempted = sum(len(p.latencies) for p in passes)
    details = {
        "passes": len(untraced),
        "traced_passes": len(traced),
        "pass_walls": [p.wall for p in passes],
        "pass_digests": digests,
        "experiment_digests": passes[0].digests,
        "golden_checked": golden is not None,
        "error_rate": failed / attempted,
        "problems": {str(j): msgs[:5] for j, msgs in sorted(problems.items())},
    }
    if trace:
        details["traced_equals_untraced"] = digests["traced"] == digests["untraced"]
        metrics, details["bases"], details["callables"] = tracing.layer_metrics(
            tracer.spans, [p.wall for p in traced], [p.wall for p in untraced], biphoton.CHUNK
        )
        metrics["setup.import_s"] = statistics.median(probes.imports)
        details["spans"] = len(tracer.spans)
    else:
        run_scale = statistics.median(p.to_reference for p in untraced)
        setup_times = [t * run_scale for t in probes.to_first]
        metrics, beyond, samples = time_metrics(untraced, workload, setup_times, adjust=True)
        metrics["peak_rss_mb"] = peak_rss_mb
        details["as_measured"] = time_metrics(untraced, workload, probes.to_first, adjust=False)[0]
        details["host_speed"] = {
            "reference_gauge_s": REFERENCE_GAUGE_S,
            "to_reference": [p.to_reference for p in untraced],
            "run_to_reference": run_scale,
        }
        details["latency_tail"] = {"percentile": workload.tail_pct, "samples": samples, "beyond": beyond}
        if beyond < MIN_BEYOND_TAIL and scale == "full":
            raise BenchError(
                f"latency_tail_ms is not steady: only {beyond} of {samples} experiments lie "
                f"beyond p{workload.tail_pct:g}, fewer than {MIN_BEYOND_TAIL}; run longer"
            )
    correct = not problems and (not trace or details["traced_equals_untraced"])
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "provenance": provenance,
        "details": details,
        "tracer": tracer,
    }


def report(result, spec, trace: bool) -> list:
    """Human-readable lines: every metric by name and unit, then the verdict."""
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    prov, details = result["provenance"], result["details"]
    lines = [
        f"workload {prov['workload']}  seed {prov['seed']}  workers {prov['workers']}  "
        f"scale {prov['scale']}  passes {details['passes']} untraced, {details['traced_passes']} traced",
        f"why: {prov['why']}",
    ]
    for name in units:
        value = result["metrics"][name]
        line = f"  {name:<34} {value:>14.6g} {units[name]}"
        if name in details.get("as_measured", {}):
            line += f"   (as measured {details['as_measured'][name]:.6g})"
        if name == "latency_tail_ms":
            t = details["latency_tail"]
            line += f"   (p{t['percentile']:g} of {t['samples']} experiments, {t['beyond']} beyond)"
        elif name in details.get("bases", {}):
            line += f"   ({details['bases'][name]})"
        lines.append(line)
    lines.append(
        f"  {'error_rate':<34} {details['error_rate']:>14.6g} ratio   "
        f"({result['failed']} failed of {result['attempted']} experiments attempted)"
    )
    if "host_speed" in details:
        h = details["host_speed"]
        lines.append(
            f"  times are at the reference host speed: each pass scaled by the gauge's {h['reference_gauge_s']} s "
            f"over its time before the pass; median scale {h['run_to_reference']:.4g}, "
            f"range {min(h['to_reference']):.4g} to {max(h['to_reference']):.4g}"
        )
    if trace:
        lines.append(f"  per pass: {details['bases']['per_pass']}; {details['spans']} spans")
        lines.append("  per callable, per traced pass (the callables this workload reached):")
        for name, c in details["callables"].items():
            size = "" if c["size"] is None else f"  size {c['size']:.6g}"
            lines.append(
                f"    {name:<32} calls {c['calls']:<9.6g} s {c['s']:<11.6g} self_s {c['self_s']:<11.6g}{size}"
            )
        lines.append(f"  traced digests equal untraced: {details['traced_equals_untraced']}")
    lines.append(f"  pass digests: {details['pass_digests']}  golden checked: {details['golden_checked']}")
    for j, msgs in details["problems"].items():
        lines += [f"  FAILED experiment {j}: {m}" for m in msgs]
    lines.append("provenance " + json.dumps(prov, sort_keys=True))
    return lines


def main(argv=None) -> int:
    try:
        spec = load_spec()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("chsh-scan", "order-test-large", "trial-dump"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"], help="how long to repeat passes"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--workers", type=int, default=None, help="default: 1 for chsh-scan, else nproc")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: self-test sizes")
    parser.add_argument("--record-golden", action="store_true", help="store default-seed digests")
    args = parser.parse_args(argv)
    try:
        if args.record_golden:
            result = run_benchmark(args.workload, DEFAULT_SEED, 0, False, args.workers, args.scale, False)
            if not result["correct"]:
                print("\n".join(report(result, spec, False)), file=sys.stderr)
                return 1
            record_golden(args.workload, args.scale, result["details"]["experiment_digests"])
            print(f"recorded {len(result['details']['experiment_digests'])} digests in {GOLDEN}")
            return 0
        result = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace), args.workers, args.scale
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = result.pop("tracer")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json")
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    print("\n".join(report(result, spec, bool(args.trace))))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
