"""Acceptance gate: the nine headline claims, each at its stated tolerance.

Every test ends by printing one ACCEPTANCE line so a transcript of this
module reads as a checklist.  Timed criteria assert their wall-clock
budget as part of the test.
"""

import math
import time

import numpy as np

from biphoton.cli import main
from biphoton.engine import (
    OpticalBench,
    analytic_chsh,
    chsh_experiment,
    order_invariance_report,
    run_ensemble,
)
from biphoton.local import CANONICAL_CHSH_ANGLES, ChshAngles
from biphoton.quantum import (
    XX,
    XY,
    Channel,
    PolAxis,
    TwoPhotonState,
    apply_element,
    hwp_jones,
    joint_probabilities,
    make_anticorrelated_pair,
    marginal,
    measure_channel,
)
from oracles import correlation_E, product_state, states_equal_up_to_phase

INV_SQRT2 = 1.0 / math.sqrt(2.0)
TWO_SQRT2 = 2.0 * math.sqrt(2.0)

PLATE_BENCH = OpticalBench()  # plate at pi/4, alpha = beta = 0
NO_PLATE_BENCH = OpticalBench(plate_present=False)
EARLY_BENCH = OpticalBench(d_prism_b=0.25)


def plate_state() -> TwoPhotonState:
    return apply_element(make_anticorrelated_pair(), Channel.A, hwp_jones(math.pi / 4))


def test_criterion_1_plate_turns_pair_into_correlated_state():
    got = plate_state()
    want = TwoPhotonState([INV_SQRT2, 0.0, 0.0, INV_SQRT2])
    assert states_equal_up_to_phase(got, want, 1e-12)
    assert np.max(np.abs(got.amps - want.amps)) < 1e-12
    print("ACCEPTANCE 1 PASS plate at pi/4 maps the pair to (|xx>+|yy>)/sqrt(2) within 1e-12")


def test_criterion_2_collapse_propagates_to_the_partner():
    state = plate_state()

    res_y = measure_channel(state, Channel.B, 0.0, u=0.9)
    assert res_y.outcome is PolAxis.Y
    yy = product_state([0.0, 1.0], [0.0, 1.0])
    assert abs(abs(res_y.collapsed.overlap(yy)) - 1.0) < 1e-12
    follow = measure_channel(res_y.collapsed, Channel.A, 0.0, u=0.999)
    assert follow.outcome is PolAxis.Y
    assert abs(follow.probability - 1.0) < 1e-12

    res_x = measure_channel(state, Channel.B, 0.0, u=0.1)
    assert res_x.outcome is PolAxis.X
    xx = product_state([1.0, 0.0], [1.0, 0.0])
    assert abs(abs(res_x.collapsed.overlap(xx)) - 1.0) < 1e-12
    follow = measure_channel(res_x.collapsed, Channel.A, 0.0, u=0.999)
    assert follow.outcome is PolAxis.X
    assert abs(follow.probability - 1.0) < 1e-12
    print("ACCEPTANCE 2 PASS measuring channel b collapses the pair; channel a then answers with certainty")


def test_criterion_3_ensembles_are_perfectly_aligned_or_crossed():
    t0 = time.perf_counter()
    with_plate = run_ensemble("qm", PLATE_BENCH, 100_000, master_seed=2026)
    without = run_ensemble("qm", NO_PLATE_BENCH, 100_000, master_seed=2026)
    elapsed = time.perf_counter() - t0
    assert with_plate.n_xy == 0 and with_plate.n_yx == 0
    assert without.n_xx == 0 and without.n_yy == 0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 3 PASS 1e5 trials: zero discordant with plate, zero concordant without ({elapsed:.2f} s)")


def test_criterion_4_qm_statistics_ignore_detection_order():
    t0 = time.perf_counter()
    report = order_invariance_report(
        "qm", EARLY_BENCH, PLATE_BENCH, 1_000_000, master_seed=7
    )
    elapsed = time.perf_counter() - t0
    assert report.same, (report.delta_f, report.combined_stderr)
    for early_p, late_p in zip(report.analytic_early, report.analytic_late):
        assert abs(early_p - late_p) < 1e-12
    assert elapsed < 10.0
    print(f"ACCEPTANCE 4 PASS early vs late detection at n=1e6: verdict SAME, analytic tables equal ({elapsed:.2f} s)")


def test_criterion_5_naive_model_flips_with_measurement_order():
    early = run_ensemble("naive", EARLY_BENCH, 1_000, master_seed=3)
    late = run_ensemble("naive", PLATE_BENCH, 1_000, master_seed=3)
    assert early.e_hat == 1.0
    assert late.e_hat == -1.0
    print("ACCEPTANCE 5 PASS naive model: E = +1 when b is detected early, -1 when late, exactly")


def test_criterion_6_bell_violation_and_local_bound():
    t0 = time.perf_counter()

    exact = analytic_chsh("qm", CANONICAL_CHSH_ANGLES)
    assert abs(exact.s - TWO_SQRT2) < 1e-12

    sampled = chsh_experiment("qm", CANONICAL_CHSH_ANGLES, 1_000_000, master_seed=71)
    assert abs(sampled.s - TWO_SQRT2) <= 3.0 * sampled.stderr_total
    assert sampled.violates_classical_bound()

    rng = np.random.default_rng(2028)
    worst_excess = -math.inf
    for k in range(10_000):
        angles = ChshAngles(*(float(x) for x in rng.uniform(0.0, math.pi, size=4)))
        report = chsh_experiment("lhv-sign", angles, 10_000, master_seed=k)
        worst_excess = max(worst_excess, report.s - (2.0 + 3.0 * report.stderr_total))
        assert report.s <= 2.0 + 3.0 * report.stderr_total, (k, report.s)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        "ACCEPTANCE 6 PASS quantum S = 2*sqrt(2) analytic and sampled; "
        f"lhv-sign held S <= 2 + 3 sigma over 1e4 quadruples, worst margin {worst_excess:+.4f} ({elapsed:.1f} s)"
    )


def test_criterion_7_no_signaling_analytic_and_empirical():
    state = plate_state()
    rng = np.random.default_rng(2029)
    alpha = 0.3
    for beta in rng.uniform(0.0, math.pi, size=100):
        probs = joint_probabilities(state, alpha, float(beta)).p
        p_ax = float(probs[XX] + probs[XY])
        assert abs(p_ax - 0.5) < 1e-12
        assert abs(sum(marginal(state, Channel.A, alpha)) - 1.0) < 1e-12

    samples = []
    for k, beta in enumerate([0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8]):
        bench = OpticalBench(alpha=0.0, beta=beta)
        stats = run_ensemble("qm", bench, 100_000, master_seed=600 + k)
        samples.append(stats.marginal_a()[0])
    n = 100_000
    for i in range(4):
        for j in range(i + 1, 4):
            f1, f2 = samples[i], samples[j]
            sigma = math.sqrt(f1 * (1 - f1) / n + f2 * (1 - f2) / n)
            assert abs(f1 - f2) < 4.0 * sigma
    print("ACCEPTANCE 7 PASS channel-a marginals are (1/2, 1/2) for all remote settings, analytic and sampled")


def test_criterion_8_reruns_are_byte_identical(tmp_path):
    cases = [
        ("pair_text", ["pair", "--trials", "150000", "--seed", "101"]),
        ("pair_csv", ["pair", "--trials", "2000", "--seed", "101", "--format", "csv"]),
        ("order_json", ["order-test", "--trials", "20000", "--seed", "102", "--format", "json"]),
        ("chsh_csv", ["chsh", "--trials", "10000", "--seed", "103", "--format", "csv"]),
        (
            "sweep_csv",
            ["sweep", "--trials", "2000", "--seed", "104", "--stop", "45",
             "--step", "22.5", "--format", "csv"],
        ),
    ]
    for name, argv in cases:
        first = tmp_path / f"{name}_1.out"
        second = tmp_path / f"{name}_2.out"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name

    serial = tmp_path / "pair_w1.out"
    threaded = tmp_path / "pair_w4.out"
    base = ["pair", "--trials", "150000", "--seed", "101"]
    assert main(base + ["--workers", "1", "--out", str(serial)]) == 0
    assert main(base + ["--workers", "4", "--out", str(threaded)]) == 0
    assert serial.read_bytes() == threaded.read_bytes()
    print("ACCEPTANCE 8 PASS every command reruns byte-identically, including under 4 worker threads")


def test_criterion_9_closed_form_correlators_match_brute_force():
    correlated = plate_state()
    anticorrelated = make_anticorrelated_pair()
    angles = np.linspace(0.0, math.pi, 50)
    worst = 0.0
    for a in angles:
        for b in angles:
            brute2 = correlation_E(correlated, float(a), float(b))
            brute1 = correlation_E(anticorrelated, float(a), float(b))
            worst = max(worst, abs(brute2 - math.cos(2.0 * (a - b))))
            worst = max(worst, abs(brute1 + math.cos(2.0 * (a + b))))
    assert worst < 1e-12
    print(f"ACCEPTANCE 9 PASS E = cos 2(a-b) and E = -cos 2(a+b) on a 50x50 grid, worst deviation {worst:.2e}")
