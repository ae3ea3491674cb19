"""Seed sweep of acceptance criterion 6's local-bound gate, S <= 2 + 3 sigma.

Regenerates criterion 6's 10^4 random setting quadruples
(``default_rng(2028)``), keeps those whose analytic lhv-sign S is 2, where
the gate sits right at the bound, and reruns their 10^4-pair CHSH experiments
at master seeds ``k + off * 10^6`` for off = 0..19 (off = 0 is the seed set
the acceptance test uses).  Prints the gate's failures per offset and the
overall rate; the gate itself is not changed.

Run from the repo root: ``PYTHONPATH=src python tests/gate_sweep.py``.
The file name keeps pytest from collecting it.
"""

import math
import time

import numpy as np

from biphoton.engine import analytic_chsh, chsh_experiment
from biphoton.local import ChshAngles

QUADRUPLES = 10_000
PAIRS_PER_SETTING = 10_000
OFFSETS = range(20)
SEED_STRIDE = 10**6
#: the sawtooth S of 2 comes out a few ulps off 2.0 on 352 of the 820
#: quadruples that have it, so "S is 2" is judged to rounding
ROUNDING = 1e-12


def main() -> None:
    t0 = time.perf_counter()
    rng = np.random.default_rng(2028)
    at_bound = []
    for k in range(QUADRUPLES):
        angles = ChshAngles(*(float(x) for x in rng.uniform(0.0, math.pi, size=4)))
        if abs(analytic_chsh("lhv-sign", angles).s - 2.0) <= ROUNDING:
            at_bound.append((k, angles))
    print(f"{len(at_bound)} of {QUADRUPLES} quadruples have analytic lhv-sign S = 2")
    failures = []
    for off in OFFSETS:
        failed = 0
        for k, angles in at_bound:
            report = chsh_experiment("lhv-sign", angles, PAIRS_PER_SETTING, k + off * SEED_STRIDE)
            failed += report.s > 2.0 + 3.0 * report.stderr_total
        failures.append(failed)
        print(f"offset {off:2d}: {failed} failures of {len(at_bound)}")
    runs = len(at_bound) * len(OFFSETS)
    print(f"seed sets with a failure: {sum(f > 0 for f in failures)} of {len(OFFSETS)}")
    print(f"failed runs: {sum(failures)} of {runs} ({sum(failures) / runs:.2e} per run)")
    print(f"elapsed {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
