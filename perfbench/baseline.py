"""Run the benchmark in two sets of ten runs per workload and compare them.

Run from the repository root:

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each set runs every workload of BENCHMARK.json with seeds 1 to 10, at the
run length BENCHMARK.json gives.  For every end-to-end metric the record
holds, per set, the ten values, their median and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median; and how far the second set's median is worse than the
first's, as a share of the first.  Both must stay within the metric's bound
(the spread of ``setup_s`` is exempt from its bound, its median shift is
not).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import ROOT, git_commit, load_spec

SETS = 2
SEEDS = range(1, 11)


def run_set(name: str) -> dict:
    """Ten runs of one workload: each metric's values, median and spread."""
    values: dict = {}
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )  # fmt: skip
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(proc.stdout[-3000:], proc.stderr[-3000:], file=sys.stderr)
            raise SystemExit(1)
        for metric, entry in result["metrics"].items():
            values.setdefault(metric, []).append(entry["value"])
    summary = {"started": started}
    for metric, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        summary[metric] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": vals}
    return summary


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="write the record here as JSON")
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    sets = []
    for k in range(SETS):
        sets.append({name: run_set(name) for name in names})
        print(f"set {k + 1} done", flush=True)
    record = {"commit": git_commit(), "run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    worst_spread = worst_shift = 0.0
    within = True
    for name in names:
        print(name)
        record["workloads"][name] = {"sets": [s[name] for s in sets], "median_shift": {}}
        for metric, m in metrics.items():
            first, second = sets[0][name][metric], sets[-1][name][metric]
            sign = 1.0 if m["better"] == "lower" else -1.0
            shift = sign * (second["median"] - first["median"]) / first["median"]
            record["workloads"][name]["median_shift"][metric] = shift
            spreads = [s[name][metric]["spread"] for s in sets]
            worst_shift = max(worst_shift, shift / m["bound"])
            worst_spread = max(worst_spread, max(spreads) / m["bound"])
            if shift > m["bound"] or (metric != "setup_s" and max(spreads) > m["bound"]):
                within = False
            print(
                f"  {metric:<16} medians {first['median']:10.5g} {second['median']:10.5g}  "
                f"spreads {' '.join(f'{x:.3f}' for x in spreads)}  worse by {shift:+.3f}  bound {m['bound']}"
            )
    print(f"largest spread as a share of its bound (setup_s included): {worst_spread:.3f}")
    print(f"largest median shift as a share of its bound: {worst_shift:.3f}")
    print(f"every spread (setup_s exempt) and median shift within its bound: {within}")
    record.update(worst_spread_share=worst_spread, worst_shift_share=worst_shift, within_bounds=within)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
