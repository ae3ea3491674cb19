"""Naive unpolarized model, the sign hidden-variable model, and CHSH evaluation."""

import dataclasses
import json
import math

import numpy as np
import pytest

from biphoton import cli, engine
from biphoton.engine import OpticalBench, chsh_experiment, run_ensemble, run_trial
from biphoton.local import (
    CANONICAL_CHSH_ANGLES,
    ChshAngles,
    ChshReport,
    chsh_S,
    fold_distance,
    lhv_outcome,
    lhv_sample,
    lhv_sign_correlator,
    naive_p_x,
    naive_partner,
    naive_plate_action,
)
from biphoton.quantum import PolAxis
from biphoton.rng import uniform_array

TWO_SQRT2 = 2.0 * math.sqrt(2.0)


# ---------------------------------------------------------------- hidden states
# a local photon's hidden state is a plain angle, or None while unpolarized

def test_hidden_state_canonicalizes_angle():
    # every rule that makes an angle reduces it into [0, pi)
    assert naive_plate_action(math.pi / 2) == 0.0
    rng = np.random.default_rng(5)
    for setting in rng.uniform(-10, 10, 200):
        for angle in (
            naive_plate_action(float(setting)),
            naive_partner(float(setting), PolAxis.X),
            naive_partner(float(setting), PolAxis.Y),
        ):
            assert 0.0 <= angle < math.pi


def test_hidden_state_rejects_non_finite_angle():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            naive_plate_action(bad)


def test_fold_distance_range_and_symmetry():
    assert fold_distance(0.0) == 0.0
    assert abs(fold_distance(math.pi / 8) - math.pi / 8) < 1e-15
    assert abs(fold_distance(7 * math.pi / 8) - math.pi / 8) < 1e-12
    assert abs(fold_distance(-math.pi / 8) - math.pi / 8) < 1e-12
    for x in np.linspace(-10, 10, 201):
        d = fold_distance(float(x))
        assert 0.0 <= d <= math.pi / 2 + 1e-15


# ---------------------------------------------------------------- sign model

def test_lhv_sample_endpoints():
    assert lhv_sample(0.0) == 0.0
    assert lhv_sample(0.5) == math.pi / 2


def test_lhv_sample_uniform_chi_square():
    n = 100_000
    bins = 16
    lam = np.array(
        [lhv_sample(k * 2.0**-53) for k in uniform_array(404, np.arange(n, dtype=np.uint64), (0,))[0]]
    )
    counts = np.bincount((lam / math.pi * bins).astype(np.int64), minlength=bins)
    expected = n / bins
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    assert chi2 < 15.0 + 3.0 * math.sqrt(30.0)


def test_lhv_pair_is_crossed():
    # photon A carries the hidden angle, photon B that angle turned by the plate rule
    lam = lhv_sample(0.3 / math.pi)
    assert abs(lam - 0.3) < 1e-15
    assert abs(naive_plate_action(lam) - (0.3 + math.pi / 2)) < 1e-12


def test_lhv_outcome_aligned_and_crossed():
    assert lhv_outcome(0.0, 0.0) is PolAxis.X
    assert lhv_outcome(0.0, math.pi / 2) is PolAxis.Y
    # boundary cos 2(pi/4) = 0 counts as X
    assert lhv_outcome(0.0, math.pi / 4) is PolAxis.X


def test_lhv_outcome_matches_cosine_sign():
    rng = np.random.default_rng(8)
    for _ in range(500):
        lam = float(rng.uniform(0, math.pi))
        alpha = float(rng.uniform(0, math.pi))
        c = math.cos(2 * (alpha - lam))
        if abs(c) < 1e-12:
            continue
        want = PolAxis.X if c > 0 else PolAxis.Y
        assert lhv_outcome(lam, alpha) is want


def test_lhv_sawtooth_anticorrelated_at_eighth_pi():
    # E = -(1 - 4 d / pi) = -0.5 at separation pi/8, no-plate pairing
    bench = OpticalBench(alpha=math.pi / 8, beta=0.0, plate_present=False)
    stats = run_ensemble("lhv-sign", bench, 1_000_000, master_seed=1)
    assert abs(stats.e_hat - (-0.5)) <= 3.0 * stats.stderr_e


def test_lhv_correlator_closed_form():
    no_plate = lhv_sign_correlator(plate_present=False)
    with_plate = lhv_sign_correlator(plate_present=True)
    assert no_plate(0.0, 0.0) == -1.0
    assert with_plate(0.0, 0.0) == 1.0
    assert abs(no_plate(math.pi / 8, 0.0) - (-0.5)) < 1e-12
    assert abs(with_plate(math.pi / 4, 0.0)) < 1e-12
    for a, b in [(0.3, 1.2), (2.1, 0.05), (1.0, 1.0)]:
        assert abs(no_plate(a, b) + with_plate(a, b)) < 1e-15


# ---------------------------------------------------------------- naive model

def test_naive_plate_action_examples():
    assert naive_plate_action(None) is None
    assert naive_plate_action(0.0) == math.pi / 2
    assert naive_plate_action(math.pi / 2) == 0.0


def test_naive_plate_action_is_involutive_on_definite():
    for theta in np.linspace(0.0, math.pi, 37, endpoint=False):
        twice = naive_plate_action(naive_plate_action(float(theta)))
        assert fold_distance(twice - float(theta)) < 1e-12


def test_naive_measure_unpolarized_forces_partner():
    for setting in (0.0, 0.3, math.pi / 4, 3.0):
        assert naive_p_x(None, setting) == 0.5
    assert naive_partner(0.0, PolAxis.Y) == 0.0
    assert naive_partner(0.0, PolAxis.X) == math.pi / 2


@pytest.mark.parametrize("outcome", ["X", None, 0, True], ids=repr)
def test_naive_partner_rejects_an_outcome_that_is_not_an_axis(outcome):
    # anything but a PolAxis raises instead of being read as Y
    with pytest.raises(ValueError, match=r"^outcome must be PolAxis\.X or PolAxis\.Y, got "):
        naive_partner(0.0, outcome)


def test_naive_measure_threshold_tie_goes_to_y(monkeypatch):
    # X iff u < P(X) = 1/2: a first draw k = 2^52 (u = 1/2) answers Y, the one below it X
    bench = OpticalBench(d_prism_b=0.25)  # B is detected first
    for k, want in ((2**52, PolAxis.Y), (2**52 - 1, PolAxis.X)):

        def crafted(master_seed, trial_indices, draw_counters, out=None):
            return np.full((len(draw_counters), len(trial_indices)), k, dtype=np.uint64)

        monkeypatch.setattr(engine, "uniform_array", crafted)
        assert run_trial("naive", bench, master_seed=0, trial_index=0).outcome_b is want


def test_naive_measure_definite_is_deterministic():
    assert naive_p_x(0.0, 0.0) == 1.0
    assert naive_p_x(math.pi / 2, 0.0) == 0.0
    rng = np.random.default_rng(17)
    for photon, setting in rng.uniform(0, math.pi, (200, 2)):
        want = 1.0 if lhv_outcome(float(photon), float(setting)) is PolAxis.X else 0.0
        assert naive_p_x(float(photon), float(setting)) == want


def test_naive_measure_partner_is_orthogonal_to_registered_axis():
    rng = np.random.default_rng(13)
    for _ in range(200):
        setting = float(rng.uniform(0, math.pi))
        for outcome in PolAxis:
            partner = naive_partner(setting, outcome)
            registered = setting if outcome is PolAxis.X else setting + math.pi / 2
            assert fold_distance(partner - (registered + math.pi / 2)) < 1e-12
            # the partner now answers the same analyzer with the opposite axis
            assert naive_p_x(partner, setting) == (0.0 if outcome is PolAxis.X else 1.0)


# ---------------------------------------------------------------- CHSH

def test_chsh_angles_pairs_order():
    pairs = CANONICAL_CHSH_ANGLES.pairs()
    got = [(a.angle, b.angle) for a, b in pairs]
    want = [
        (0.0, math.pi / 8),
        (0.0, 3 * math.pi / 8),
        (math.pi / 4, math.pi / 8),
        (math.pi / 4, 3 * math.pi / 8),
    ]
    for (ga, gb), (wa, wb) in zip(got, want):
        assert abs(ga - wa) < 1e-15 and abs(gb - wb) < 1e-15


def test_chsh_quantum_correlator_hits_tsirelson():
    report = chsh_S(lambda a, b: math.cos(2 * (a.angle - b.angle)), CANONICAL_CHSH_ANGLES)
    assert abs(report.s - TWO_SQRT2) < 1e-12


def test_chsh_lhv_canonical_terms():
    report = chsh_S(lhv_sign_correlator(plate_present=True), CANONICAL_CHSH_ANGLES)
    assert (report.e_ab, report.e_abp, report.e_apb, report.e_apbp) == (0.5, -0.5, 0.5, 0.5)
    assert report.s == 2.0


def test_chsh_constant_correlator():
    assert chsh_S(lambda a, b: 0.7, CANONICAL_CHSH_ANGLES).s == pytest.approx(1.4, abs=1e-15)
    assert chsh_S(lambda a, b: -1.0, CANONICAL_CHSH_ANGLES).s == 2.0


def test_chsh_rejects_out_of_range_correlator():
    with pytest.raises(ValueError):
        chsh_S(lambda a, b: 1.5, CANONICAL_CHSH_ANGLES)
    with pytest.raises(ValueError):
        chsh_S(lambda a, b: math.nan, CANONICAL_CHSH_ANGLES)


def test_chsh_report_json_keys(capsys, monkeypatch):
    monkeypatch.setattr(cli, "chsh_experiment", lambda *args: ChshReport(0.5, -0.5, 0.5, 0.5))
    assert cli.main(["chsh", "--trials", "10", "--seed", "0", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["e_ab", "e_abp", "e_apb", "e_apbp", "s", "stderr_total"]
    assert doc["s"] == 2.0 and doc["stderr_total"] == 0.0


def test_chsh_report_stores_terms_and_errors_only():
    names = [f.name for f in dataclasses.fields(ChshReport)]
    assert names == ["e_ab", "e_abp", "e_apb", "e_apbp", "se_ab", "se_abp", "se_apb", "se_apbp"]
    report = ChshReport(0.5, 0.25, -0.125, 1.0, 0.3, 0.4, 0.0, 1.2)
    assert report.s == abs(0.5 - 0.25 - 0.125 + 1.0)
    assert report.stderr_total == math.sqrt(0.3**2 + 0.4**2 + 0.0**2 + 1.2**2)


def test_chsh_violation_flag_uses_three_sigma():
    close = ChshReport(0.725, -0.725, 0.725, 0.725, 0.2, 0.2, 0.2, 0.2)
    assert close.s == pytest.approx(2.9)
    assert close.stderr_total == pytest.approx(0.4)
    assert not close.violates_classical_bound()  # 2.9 - 1.2 stays under 2
    sharp = ChshReport(0.725, -0.725, 0.725, 0.725, 0.01, 0.01, 0.01, 0.01)
    assert sharp.violates_classical_bound()


def test_quantum_family_peaks_at_tsirelson():
    # a=0, a'=pi/4, b=pi/8+delta, b'=3pi/8+delta never beats 2*sqrt(2)
    quantum = lambda a, b: math.cos(2 * (a.angle - b.angle))
    best = 0.0
    for delta in np.linspace(-math.pi / 4, math.pi / 4, 1001):
        angles = ChshAngles(
            0.0, math.pi / 4, math.pi / 8 + float(delta), 3 * math.pi / 8 + float(delta)
        )
        best = max(best, chsh_S(quantum, angles).s)
    assert abs(best - TWO_SQRT2) < 1e-9


def test_lhv_analytic_bound_over_random_quadruples():
    rng = np.random.default_rng(31)
    for plate in (False, True):
        correlator = lhv_sign_correlator(plate_present=plate)
        for _ in range(10_000):
            angles = ChshAngles(*(float(x) for x in rng.uniform(0, math.pi, size=4)))
            assert chsh_S(correlator, angles).s <= 2.0 + 1e-12


def test_lhv_sampled_bound_over_random_quadruples():
    rng = np.random.default_rng(37)
    for k in range(50):
        angles = ChshAngles(*(float(x) for x in rng.uniform(0, math.pi, size=4)))
        report = chsh_experiment(
            "lhv-sign", angles, n_per_setting=100_000, master_seed=9000 + k
        )
        assert report.s <= 2.0 + 3.0 * report.stderr_total
