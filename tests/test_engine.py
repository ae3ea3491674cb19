"""Trial replay, vectorized ensembles, order-invariance and CHSH experiments."""

import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from collections import deque
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import cli, engine, quantum
from biphoton.engine import (
    CHUNK,
    BenchEvent,
    EnsembleStats,
    OpticalBench,
    analytic_E,
    analytic_chsh,
    analytic_joint_table,
    build_timeline,
    chsh_experiment,
    detect_b_before_plate,
    order_invariance_report,
    run_ensemble,
    run_trial,
    simulate_outcomes,
    write_trials_csv,
)
from biphoton.local import (
    CANONICAL_CHSH_ANGLES,
    ChshAngles,
    lhv_outcome,
    lhv_sample,
    naive_p_x,
    naive_partner,
    naive_plate_action,
)
from biphoton.quantum import (
    XX,
    XY,
    YX,
    Channel,
    PolAxis,
    apply_element,
    hwp_jones,
    joint_probabilities,
    make_anticorrelated_pair,
    marginal,
    measure_channel,
    project_channel,
    reduce_mod_pi,
)
from biphoton.rng import derive_seed
from oracles import draw_uniform

TWO_SQRT2 = 2.0 * math.sqrt(2.0)

LATE = OpticalBench()  # plate at 0.5 m, B prism at 1.0 m: plate first
EARLY = OpticalBench(d_prism_b=0.25)  # B prism beats the plate
NO_PLATE = OpticalBench(plate_present=False)
ROTATED = OpticalBench(alpha=0.3, beta=1.1, plate_angle=0.6)
A_FIRST = OpticalBench(d_plate_a=0.05, d_prism_a=0.1, d_prism_b=2.0)
ALL_TIED = OpticalBench(d_plate_a=1.0, d_prism_a=1.0, d_prism_b=1.0)

BENCHES = [LATE, EARLY, NO_PLATE, ROTATED, A_FIRST, ALL_TIED]
MODELS = ["qm", "naive", "lhv-sign"]


def _random_benches(n, seed):
    # distances from a short list so events tie, angles on multiples of pi/8
    # so lhv-sign's fold distance and the quantum marginals hit breakpoints
    rng = np.random.default_rng(seed)
    benches = []
    for _ in range(n):
        d_plate, d_prism_a, d_prism_b = (float(d) for d in rng.choice([0.0, 0.25, 0.5, 1.0, 1.5], 3))
        alpha, beta, plate_angle = (int(k) * math.pi / 8 for k in rng.integers(-8, 16, 3))
        benches.append(OpticalBench(
            d_plate_a=min(d_plate, d_prism_a),
            d_prism_a=d_prism_a,
            d_prism_b=d_prism_b,
            alpha=alpha,
            beta=beta,
            plate_present=bool(rng.integers(2)),
            plate_angle=plate_angle,
        ))
    return benches


REPLAY_BENCHES = BENCHES + _random_benches(40, seed=2026)


def reference_trial(model, bench, draw):
    """Outcomes (a, b) of one trial whose k-th uniform is ``draw(k)``.

    Walks the bench timeline event by event through the per-event rules of
    ``quantum`` and ``local``: the reference the chunk kernels must match.
    The k-th detection reads ``draw(k)``; a naive photon answers X iff the
    draw is below its P(X), and the detection of an unpolarized one paints
    its partner.
    """
    timeline = build_timeline(bench)
    out = {}
    if model == "qm":
        state = make_anticorrelated_pair()
        for _, event in timeline:
            if event is BenchEvent.PLATE_A:
                state = apply_element(state, Channel.A, hwp_jones(bench.plate_angle))
                continue
            channel = Channel.A if event is BenchEvent.DETECT_A else Channel.B
            setting = bench.alpha if channel is Channel.A else bench.beta
            result = measure_channel(state, channel, setting, draw(len(out)))
            out[channel] = result.outcome
            state = result.collapsed
    elif model == "naive":
        photons = {Channel.A: None, Channel.B: None}
        for _, event in timeline:
            if event is BenchEvent.PLATE_A:
                photons[Channel.A] = naive_plate_action(photons[Channel.A])
                continue
            channel, partner = (Channel.A, Channel.B) if event is BenchEvent.DETECT_A else (Channel.B, Channel.A)
            setting = bench.alpha if channel is Channel.A else bench.beta
            is_x = draw(len(out)) < naive_p_x(photons[channel], setting)
            out[channel] = PolAxis.X if is_x else PolAxis.Y
            if photons[channel] is None:
                photons[partner] = naive_partner(setting, out[channel])
    else:
        lam = lhv_sample(draw(0))
        # the source's two photons as lhv-sign first wrote them: A carries
        # lambda, B lambda + pi/2, each reduced to [0, pi)
        photon_a, photon_b = reduce_mod_pi(lam), reduce_mod_pi(lam + math.pi / 2)
        for _, event in timeline:
            if event is BenchEvent.PLATE_A:
                photon_a = naive_plate_action(photon_a)
            elif event is BenchEvent.DETECT_A:
                out[Channel.A] = lhv_outcome(photon_a, bench.alpha)
            else:
                out[Channel.B] = lhv_outcome(photon_b, bench.beta)
    return out[Channel.A], out[Channel.B]


def _axes(a_is_x, b_is_x):
    return (PolAxis.X if a_is_x else PolAxis.Y, PolAxis.X if b_is_x else PolAxis.Y)


# ---------------------------------------------------------------- single trials

def test_run_trial_record_fields():
    rec = run_trial("naive", EARLY, master_seed=5, trial_index=42)
    assert rec.trial_index == 42
    assert rec.model == "naive"
    assert rec.b_before_plate is True
    assert rec.outcome_a in (PolAxis.X, PolAxis.Y)
    rec2 = run_trial("naive", LATE, master_seed=5, trial_index=42)
    assert rec2.b_before_plate is False


def test_run_trial_rejects_unknown_model():
    with pytest.raises(ValueError):
        run_trial("classical", LATE, master_seed=0, trial_index=0)


@pytest.mark.parametrize("trial_index", [1.5, True, "3"])
def test_run_trial_rejects_non_integer_index(trial_index):
    # 1.5 would replay trial 1 under the label 1.5, and True would replay trial 1
    with pytest.raises(ValueError):
        run_trial("qm", OpticalBench(), master_seed=0, trial_index=trial_index)


def test_run_trial_accepts_numpy_integer_index():
    want = run_trial("qm", ROTATED, master_seed=3, trial_index=5)
    for index in (np.int64(5), np.uint64(5), np.int32(5)):
        rec = run_trial("qm", ROTATED, master_seed=3, trial_index=index)
        assert (rec.outcome_a, rec.outcome_b, rec.trial_index) == (want.outcome_a, want.outcome_b, 5)
        assert type(rec.trial_index) is int


def test_qm_plate_bench_outcomes_always_agree():
    for i in range(300):
        rec = run_trial("qm", LATE, master_seed=7, trial_index=i)
        assert rec.outcome_a is rec.outcome_b


def test_naive_outcomes_track_measurement_order():
    for i in range(200):
        early = run_trial("naive", EARLY, master_seed=11, trial_index=i)
        late = run_trial("naive", LATE, master_seed=11, trial_index=i)
        assert early.outcome_a is early.outcome_b  # b fixed a, plate then flipped a
        assert late.outcome_a is not late.outcome_b  # plate did nothing, partner stayed crossed


def test_kernels_and_run_trial_match_per_trial_reference():
    n = 100
    replayed = [0, 1, n - 1, CHUNK - 1, CHUNK, 2**64 - 1, -1]
    for bench in REPLAY_BENCHES:
        for model in MODELS:
            a_vec, b_vec = simulate_outcomes(model, bench, n, master_seed=123)
            for i in range(n):
                want = reference_trial(model, bench, lambda k: draw_uniform(123, i, k))
                assert _axes(a_vec[i], b_vec[i]) == want, (model, bench, i)
            for i in replayed:
                want = reference_trial(model, bench, lambda k: draw_uniform(123, i, k))
                rec = run_trial(model, bench, master_seed=123, trial_index=i)
                assert (rec.outcome_a, rec.outcome_b) == want, (model, bench, i)
                assert rec.trial_index == i


@pytest.mark.parametrize("workers", [1, 2])
def test_kernels_match_per_trial_reference_past_chunk_0(monkeypatch, workers):
    # past chunk 0 the trial indices are made in the word row that is hashed
    # in place: replay the rows either side of each chunk boundary and the last
    monkeypatch.setattr(engine, "_cores", lambda: 2)
    n = 2 * CHUNK + 7
    rows = [CHUNK - 1, CHUNK, 2 * CHUNK, n - 1]
    for bench in REPLAY_BENCHES:
        for model in MODELS:
            a_vec, b_vec = simulate_outcomes(model, bench, n, master_seed=123, workers=workers)
            for i in rows:
                want = reference_trial(model, bench, lambda k: draw_uniform(123, i, k))
                assert _axes(a_vec[i], b_vec[i]) == want, (model, bench, i)


#: draws k (u = k / 2^53) on and beside the breakpoints of benches with settings
#: on multiples of pi/8: lhv-sign ties its fold distance to pi/4 at u = multiples of 1/8
CRAFTED_DRAWS = [0, 1, 2**50, 2**51 - 1, 2**51, 2**51 + 1, 2**52, 3 * 2**51, 2**53 - 1]


def _lhv_plans(bench):
    return engine._compile("lhv-sign", bench).arcs


def _breakpoint_draws(bench):
    """The draws k just before, on and just after each compiled lhv-sign arc end, mod 2^53."""
    return sorted({(k + step) % 2**53 for ends in _lhv_plans(bench) for k in ends for step in (-1, 0, 1)})


def _assert_kernel_matches_reference_on(monkeypatch, model, bench, draws):
    # trial i draws draws[i // m] first and draws[i % m] second, so every
    # pair of the draws is one trial
    m = len(draws)
    table = np.array(draws, dtype=np.uint64)

    def crafted(master_seed, trial_indices, draw_counters, out=None):
        return np.array([table[trial_indices // m if c == 0 else trial_indices % m] for c in draw_counters])

    monkeypatch.setattr(engine, "uniform_array", crafted)
    a_vec, b_vec = simulate_outcomes(model, bench, m * m, master_seed=0)
    for i in range(m * m):
        want = reference_trial(model, bench, lambda c: draws[(i // m, i % m)[c]] * 2.0**-53)
        assert _axes(a_vec[i], b_vec[i]) == want, (model, bench, i)


@pytest.mark.parametrize("model", MODELS)
def test_kernels_match_reference_on_crafted_draws(monkeypatch, model):
    for geometry in (LATE, EARLY, NO_PLATE):
        for k_alpha in range(8):
            for k_beta in range(8):
                bench = replace(geometry, alpha=k_alpha * math.pi / 8, beta=k_beta * math.pi / 8)
                draws = CRAFTED_DRAWS + (_breakpoint_draws(bench) if model == "lhv-sign" else [])
                _assert_kernel_matches_reference_on(monkeypatch, model, bench, draws)


def test_lhv_kernel_matches_reference_around_breakpoints(monkeypatch):
    rng = np.random.default_rng(7)
    benches = REPLAY_BENCHES + [
        OpticalBench(alpha=float(alpha), beta=float(beta), plate_present=plate)
        for alpha, beta in rng.uniform(-math.pi, 2 * math.pi, (20, 2))
        for plate in (False, True)
    ]
    for bench in benches:
        _assert_kernel_matches_reference_on(monkeypatch, "lhv-sign", bench, _breakpoint_draws(bench))


def test_turned_hidden_angle_wraps_at_half_the_draws():
    def turned(k):
        return reduce_mod_pi(lhv_sample(k * 2.0**-53) + math.pi / 2)

    assert engine._WRAP == 2**52
    assert turned(engine._WRAP - 1) == math.pi - 2**-51 and turned(engine._WRAP) == 0.0


def _ulps_away(x, n):
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


#: settings on and 1-3 ulps either side of the pi/8 lattice put an arc end on
#: the restart draw engine._WRAP or on draw 0
_ANGLES = st.one_of(
    st.integers(-16, 32).map(lambda j: j * math.pi / 8),
    st.builds(
        lambda j, n: _ulps_away(j * math.pi / 8, n),
        st.integers(-16, 32),
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
    ),
    st.floats(-math.pi, 2 * math.pi),
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(alpha=_ANGLES, beta=_ANGLES, plate=st.booleans())
def test_lhv_breakpoints_agree_with_scalar_rule(alpha, beta, plate):
    # the compiled outcome is X on the arc [opens, closes) of the draw circle:
    # the per-trial reference flips to X exactly at the opening and to Y
    # exactly at the closing, a turned photon's restart flips it only as an
    # arc end, and the draws on and beside 0 and the restart are on the arc
    # exactly when the reference reads X there
    bench = OpticalBench(alpha=alpha, beta=beta, plate_present=plate)
    for side, (opens, closes) in enumerate(_lhv_plans(bench)):

        def is_x(k):
            u = k % 2**53 * 2.0**-53
            return reference_trial("lhv-sign", bench, lambda _: u)[side] is PolAxis.X

        assert 0 <= opens < 2**53 and 0 <= closes < 2**53 and opens != closes, (side, opens, closes)
        assert is_x(opens) and not is_x(opens - 1), (side, opens)
        assert not is_x(closes) and is_x(closes - 1), (side, closes)
        turned = side == 1 or plate
        if turned and is_x(engine._WRAP - 1) != is_x(engine._WRAP):
            assert engine._WRAP in (opens, closes), (side, opens, closes)
        for k in (0, 1, engine._WRAP - 1, engine._WRAP, 2**53 - 1):
            on_arc = (k - opens) % 2**53 < (closes - opens) % 2**53
            assert is_x(k) == on_arc, (side, k)


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(p=st.floats(0.0, 1.0))
def test_draw_threshold_is_the_float_comparison(p):
    # k < ceil(p 2^53) is u = k 2^-53 < p, on both sides of the threshold
    threshold = engine._draw_threshold(p)
    for k in (threshold - 1, threshold):
        if 0 <= k <= 2**53:
            assert (k < threshold) == (k * 2.0**-53 < p), (p, k)


EIGHTH = math.pi / 8

#: qm plans as (first channel, P(first = X), P(second = X | X), P(second = X | Y)), each
#: probability as the integer draw threshold the kernel compares with
PINNED_QM_PLANS = {
    # the pair-tied geometry: every event at 1 m, plate present and absent
    "tied": (
        replace(ALL_TIED, alpha=EIGHTH, beta=3 * EIGHTH),
        ("B", 4503599627370497, 4503599627370497, 4503599627370494),
    ),
    "tied-no-plate": (
        replace(ALL_TIED, alpha=EIGHTH, beta=3 * EIGHTH, plate_present=False),
        ("B", 4503599627370497, 9007199254740992, 0),
    ),
    "late": (
        replace(LATE, alpha=EIGHTH, beta=2 * EIGHTH),
        ("B", 4503599627370496, 7688125463633382, 1319073791107609),
    ),
    "early": (
        replace(EARLY, alpha=3 * EIGHTH, beta=EIGHTH),
        ("B", 4503599627370496, 4503599627370495, 4503599627370495),
    ),
    "no-plate": (
        replace(NO_PLATE, alpha=5 * EIGHTH, beta=2 * EIGHTH),
        ("B", 4503599627370497, 1319073791107611, 7688125463633382),
    ),
    # plate angles off pi/4
    "plate-pi/8": (
        replace(LATE, alpha=EIGHTH, plate_angle=EIGHTH),
        ("B", 4503599627370497, 1319073791107609, 7688125463633384),
    ),
    "plate-0.6": (
        replace(EARLY, alpha=2 * EIGHTH, beta=7 * EIGHTH, plate_angle=0.6),
        ("B", 4503599627370497, 4320338822072, 9002878915918921),
    ),
    "a-first": (
        replace(A_FIRST, alpha=3 * EIGHTH, beta=6 * EIGHTH),
        ("A", 4503599627370496, 1319073791107610, 7688125463633380),
    ),
    # the bench of the pair goldens: alpha 10 deg, beta 30 deg, B first
    "golden-pair": (
        replace(EARLY, alpha=math.radians(10), beta=math.radians(30)),
        ("B", 4503599627370496, 7953557095950362, 1053642158790627),
    ),
}


@pytest.mark.parametrize("bench, plan", PINNED_QM_PLANS.values(), ids=PINNED_QM_PLANS)
def test_qm_plan_thresholds_are_pinned(bench, plan):
    # the integers the qm kernel compares its draws with: a last-bit change in
    # any plan probability on the way (state, plate, projection, marginal)
    # moves one of them, and with it the trials whose draw lies in between
    first_ch, p1x, p2x_given_x, p2x_given_y = engine._branch_plan("qm", bench)
    got = (first_ch.value, *map(engine._draw_threshold, (p1x, p2x_given_x, p2x_given_y)))
    assert got == plan


def _walked_plan(model, bench):
    """A bench's branch plan walked over one rule per step: P(X) and the state after one outcome apart.

    qm reads ``marginal`` and ``project_channel``, naive ``naive_p_x`` and
    ``naive_partner``; the plan must not depend on how the package's walk
    groups them.
    """
    if model == "qm":
        state, plate = make_anticorrelated_pair(), hwp_jones(bench.plate_angle)

        def turn(state):
            return apply_element(state, Channel.A, plate)

        def p_x(state, channel, setting):
            return marginal(state, channel, setting)[0]

        registered = project_channel
    else:
        state = (None, None)

        def turn(photons):
            return naive_plate_action(photons[0]), photons[1]

        def p_x(photons, channel, setting):
            return naive_p_x(photons[0 if channel is Channel.A else 1], setting)

        def registered(photons, channel, setting, outcome):
            partner = naive_partner(setting, outcome)
            return (photons[0], partner) if channel is Channel.A else (partner, photons[1])

    events = [ev.event for ev in build_timeline(bench)]
    while events[0] is BenchEvent.PLATE_A:
        state = turn(state)
        events.pop(0)
    first = Channel.A if events.pop(0) is BenchEvent.DETECT_A else Channel.B
    second = Channel.B if first is Channel.A else Channel.A
    setting = {Channel.A: bench.alpha, Channel.B: bench.beta}
    given = []
    for outcome in (PolAxis.X, PolAxis.Y):
        branch = registered(state, first, setting[first], outcome)
        for event in events:
            if event is BenchEvent.PLATE_A:
                branch = turn(branch)
        given.append(p_x(branch, second, setting[second]))
    return first, p_x(state, first, setting[first]), *given


def _plan_benches(n, seed):
    """Benches with lattice or random settings, the plate on or off, and B's prism before, at or after the plate."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        lattice = bool(rng.integers(2))

        def angle():
            return int(rng.integers(-8, 17)) * math.pi / 8 if lattice else float(rng.uniform(-4.0, 4.0))

        d_plate = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
        d_prism_b = d_plate + float(rng.choice([-0.25, 0.0, 0.25, 1.0]) if lattice else rng.uniform(-0.5, 0.5))
        yield OpticalBench(
            d_plate_a=d_plate,
            d_prism_a=d_plate + float(rng.choice([0.0, 0.5])),
            d_prism_b=max(d_prism_b, 0.0),
            alpha=angle(),
            beta=angle(),
            plate_present=bool(rng.integers(2)),
            plate_angle=angle(),
        )


def test_branch_plans_keep_their_bits():
    # every probability of the plan, by float.hex, on 400 derandomized benches
    def bits(plan):
        first, *probabilities = plan
        return first, [float(p).hex() for p in probabilities]

    for bench in _plan_benches(400, seed=31):
        for model in ("qm", "naive"):
            assert bits(engine._branch_plan(model, bench)) == bits(_walked_plan(model, bench)), (model, bench)


def test_certain_second_detection_has_no_rounding_residue(monkeypatch):
    # B is detected first; alpha - beta = pi/2 makes A certain once B is known
    bench = OpticalBench(alpha=5 * math.pi / 8, beta=math.pi / 8)
    assert engine._branch_plan("qm", bench) == (Channel.B, 0.5, 0.0, 1.0)
    assert analytic_joint_table("qm", bench).p.tolist() == [0.0, 0.5, 0.5, 0.0]
    collapsed = measure_channel(
        apply_element(make_anticorrelated_pair(), Channel.A, hwp_jones(bench.plate_angle)),
        Channel.B,
        bench.beta,
        0.5,
    ).collapsed
    assert marginal(collapsed, Channel.A, bench.alpha) == (1.0, 0.0)
    assert measure_channel(collapsed, Channel.A, bench.alpha, 1 - 2**-53).outcome is PolAxis.X
    draws = {0: 2**52, 1: 2**53 - 1}  # u = 1/2 and 1 - 2^-53

    def crafted(master_seed, trial_indices, draw_counters, out=None):
        return np.array([np.full(len(trial_indices), draws[c], dtype=np.uint64) for c in draw_counters])

    monkeypatch.setattr(engine, "uniform_array", crafted)
    rec = run_trial("qm", bench, master_seed=0, trial_index=0)
    assert (rec.outcome_a, rec.outcome_b) == (PolAxis.X, PolAxis.Y)


@pytest.mark.parametrize(
    "model, bench",
    [
        *(("naive", bench) for bench in BENCHES),
        ("qm", LATE),  # aligned: the first detection fixes the second
        ("qm", OpticalBench(alpha=5 * math.pi / 8, beta=math.pi / 8)),  # alpha - beta = pi/2
    ],
)
def test_certain_plan_runs_the_arc_kernel_on_draw_0(monkeypatch, model, bench):
    # a plan whose second outcome is certain is two arcs of draw 0; on draws
    # either side of the first threshold its outcomes are the two-draw rule's,
    # with k_second = 0 standing in for draw 1
    plan = engine._compile(model, bench)
    first_ch = plan.branch[0]
    first_k, given_x, given_y = plan.thresholds
    assert {given_x, given_y} <= {0, 2**53}
    draws = [0, first_k - 1, first_k, 2**53 - 1]
    table = np.array(draws, dtype=np.uint64)
    read = set()

    def crafted(master_seed, trial_indices, draw_counters, out=None):
        read.update(draw_counters)
        return np.array([table[trial_indices] for _ in draw_counters])

    monkeypatch.setattr(engine, "uniform_array", crafted)
    assert engine._kernel(plan, 0).__qualname__ == "_arc_kernel.<locals>.outcomes"
    a_vec, b_vec = simulate_outcomes(model, bench, len(draws), master_seed=0)
    for k, a_is_x, b_is_x in zip(draws, a_vec, b_vec):
        first = k < first_k
        k_second = 0
        second = k_second < (given_x if first else given_y)
        assert (a_is_x, b_is_x) == ((first, second) if first_ch is Channel.A else (second, first)), k
    assert read == {0}


def test_arc_kernel_reads_an_empty_arc_as_never_x():
    # (opens, opens) is empty, and (0, 2^53) holds every draw
    a_is_x, b_is_x = np.ones(100, dtype=bool), np.zeros(100, dtype=bool)
    engine._arc_kernel((5, 5), (0, 2**53), 9)(0, engine._buffers(100)[0], a_is_x, b_is_x)
    assert not a_is_x.any() and b_is_x.all()


@pytest.mark.parametrize(
    "model, bench, counters",
    [
        ("qm", OpticalBench(alpha=0.3, beta=1.1), {0, 1}),
        ("qm", LATE, {0}),  # aligned: the first detection fixes the second
        *((model, bench, {0}) for model in ("naive", "lhv-sign") for bench in BENCHES),
    ],
)
def test_draw_discipline(monkeypatch, model, bench, counters):
    uniform_array = engine.uniform_array
    read = set()

    def recording(master_seed, trial_indices, draw_counters, out=None):
        read.update(draw_counters)
        return uniform_array(master_seed, trial_indices, draw_counters, out)

    monkeypatch.setattr(engine, "uniform_array", recording)
    simulate_outcomes(model, bench, 100, master_seed=3)
    run_trial(model, bench, master_seed=3, trial_index=7)
    assert read == counters


def test_lhv_plan_pins_take_few_scalar_evaluations(monkeypatch):
    # a channel reads one photon, and most pins land on their flip in two
    # evaluations: a plan needs 4 (unturned) or 6 (turned, restart check
    # included) at the least; it took 8.2 on average when both photons were
    # made and the estimate fell a draw short of most closing flips, and
    # 6.74 while it also read the outcome at draw 0
    evaluations = []
    outcome = engine.lhv_outcome
    monkeypatch.setattr(engine, "lhv_outcome", lambda *args: evaluations.append(1) or outcome(*args))
    plans = 0
    for alpha in np.random.default_rng(18).uniform(-math.pi, 2 * math.pi, 200):
        for plate in (False, True):
            bench = OpticalBench(alpha=float(alpha), beta=float(alpha), plate_present=plate)
            for setting, turned in ((bench.alpha, plate), (bench.beta, True)):
                engine._lhv_breakpoints(setting, turned)
                plans += 1
    assert len(evaluations) / plans <= 6.0


class _CountingMath:
    """``math`` with its ``cos`` calls counted."""

    def __init__(self):
        self.cos_calls = 0

    def cos(self, x):
        self.cos_calls += 1
        return math.cos(x)

    def __getattr__(self, name):
        return getattr(math, name)


@pytest.mark.parametrize("plate, cos_calls", [(True, 3), (False, 2)])
def test_qm_plan_makes_each_analyzer_and_plate_once(monkeypatch, plate, cos_calls):
    # one cos per analyzer setting however often the walk meets it, and one
    # for the plate only when the timeline holds one; the plan itself is
    # unchanged (test_qm_plan_thresholds_are_pinned)
    counting = _CountingMath()
    monkeypatch.setattr(quantum, "math", counting)
    bench = OpticalBench(alpha=0.3, beta=1.1, plate_angle=0.2, plate_present=plate)
    engine._compile("qm", bench)
    assert counting.cos_calls == cos_calls
    engine._compile("qm", bench)
    assert counting.cos_calls == cos_calls + plate


# ---------------------------------------------------------------- ensembles

def test_ensemble_counts_match_outcome_arrays():
    stats = run_ensemble("qm", ROTATED, 4096, master_seed=9)
    a, b = simulate_outcomes("qm", ROTATED, 4096, master_seed=9)
    assert stats.n_xx == int(np.count_nonzero(a & b))
    assert stats.n_xy == int(np.count_nonzero(a & ~b))
    assert stats.n_yx == int(np.count_nonzero(~a & b))
    assert stats.n_yy == int(np.count_nonzero(~a & ~b))
    assert stats.n == 4096


def test_ensemble_is_reproducible_and_seed_sensitive():
    s1 = run_ensemble("lhv-sign", NO_PLATE, 20_000, master_seed=77)
    s2 = run_ensemble("lhv-sign", NO_PLATE, 20_000, master_seed=77)
    s3 = run_ensemble("lhv-sign", NO_PLATE, 20_000, master_seed=78)
    assert s1 == s2
    assert s1 != s3


def test_workers_do_not_change_results():
    n = 3 * CHUNK + 17  # spans several chunks plus a ragged tail
    for model in MODELS:
        serial = run_ensemble(model, ROTATED, n, master_seed=31, workers=1)
        parallel = run_ensemble(model, ROTATED, n, master_seed=31, workers=4)
        assert serial == parallel
    a1, b1 = simulate_outcomes("qm", ROTATED, n, master_seed=31, workers=1)
    a4, b4 = simulate_outcomes("qm", ROTATED, n, master_seed=31, workers=4)
    assert np.array_equal(a1, a4) and np.array_equal(b1, b4)


@pytest.mark.parametrize("chunk", [1000, 12_345])
def test_outputs_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    # draws are keyed by trial index, so a retune of CHUNK cannot move a golden
    n = 2 * CHUNK + 17
    expected = [
        (run_ensemble(m, ROTATED, n, 43, workers=2), simulate_outcomes(m, ROTATED, n, 43, workers=2))
        for m in MODELS
    ]
    monkeypatch.setattr(engine, "CHUNK", chunk)
    for model, (stats, (a_is_x, b_is_x)) in zip(MODELS, expected):
        assert run_ensemble(model, ROTATED, n, 43, workers=2) == stats
        a, b = simulate_outcomes(model, ROTATED, n, 43, workers=2)
        assert np.array_equal(a, a_is_x) and np.array_equal(b, b_is_x)


@pytest.mark.parametrize(
    "cores, n_chunks, threads",
    [(8, 3, 3), (2, 3, 2), (8, 1, None), (1, 3, None), (None, 3, None)],
)
def test_threads_bounded_by_chunks_and_cores(monkeypatch, cores, n_chunks, threads):
    # a stand-in thread that runs its target inline when started, so an
    # absurd worker count starts no real thread; the calling thread works
    # too, so a call of ``threads`` threads starts threads - 1 helpers
    started = []

    class InlineThread:
        def __init__(self, target):
            self.target = target

        def start(self):
            started.append(self)
            self.target()

        def is_alive(self):
            return False

    n = n_chunks * CHUNK - 5
    serial = run_ensemble("lhv-sign", ROTATED, n, master_seed=3)
    a1, b1 = simulate_outcomes("lhv-sign", ROTATED, n, master_seed=3)
    monkeypatch.setattr(engine.threading, "Thread", InlineThread)
    if cores is None:  # a platform that reports neither an affinity nor a CPU count
        monkeypatch.setattr(engine, "os", SimpleNamespace(cpu_count=lambda: None))
    else:
        monkeypatch.setattr(engine, "_cores", lambda: cores)
    helpers = 0 if threads is None else threads - 1
    assert run_ensemble("lhv-sign", ROTATED, n, master_seed=3, workers=10**6) == serial
    assert len(started) == helpers
    a, b = simulate_outcomes("lhv-sign", ROTATED, n, master_seed=3, workers=10**6)
    assert np.array_equal(a, a1) and np.array_equal(b, b1)
    assert len(started) == 2 * helpers


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the platform sets no CPU affinity")
def test_an_affinity_of_one_cpu_starts_no_helper(monkeypatch):
    # the machine reports two CPUs, but the calling thread may run on one:
    # a 4-chunk call at two workers classifies every chunk itself
    bench, n = OpticalBench(), 4 * CHUNK
    serial = run_ensemble("qm", bench, n, master_seed=1)
    started = []
    thread = engine.threading.Thread
    monkeypatch.setattr(engine.threading, "Thread", lambda target: started.append(target) or thread(target=target))
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        assert engine._cores() == 1
        assert run_ensemble("qm", bench, n, master_seed=1, workers=2) == serial
    finally:
        os.sched_setaffinity(0, mask)
    assert started == []


def test_chunks_in_flight_stay_bounded(monkeypatch):
    # four threads over 64 chunks: each makes one buffer set for the call and
    # has one chunk in progress at a time, from its kernel call until its
    # consume returns, so at most four chunks are ever in progress
    n = 64 * CHUNK
    serial = run_ensemble("lhv-sign", ROTATED, n, master_seed=5)
    a1, b1 = simulate_outcomes("lhv-sign", ROTATED, n, master_seed=5)
    monkeypatch.setattr(engine, "_cores", lambda: 4)
    buffer_sets = []
    buffers = engine._buffers

    def counted_buffers(size, *outcomes):
        buffer_sets.append(size)
        return buffers(size, *outcomes)

    monkeypatch.setattr(engine, "_buffers", counted_buffers)
    assert run_ensemble("lhv-sign", ROTATED, n, master_seed=5, workers=10**6) == serial
    assert buffer_sets == [CHUNK] * 4
    a, b = simulate_outcomes("lhv-sign", ROTATED, n, master_seed=5, workers=10**6)
    assert np.array_equal(a, a1) and np.array_equal(b, b1)
    assert buffer_sets == [CHUNK] * 8

    lock = threading.Lock()
    in_progress, most, starts = [0], [0], []
    kernel = engine._kernel(engine._compile("lhv-sign", ROTATED), 5)

    def tracked(start, words, a_is_x, b_is_x):
        with lock:
            in_progress[0] += 1
            most[0] = max(most[0], in_progress[0])
        kernel(start, words, a_is_x, b_is_x)

    def consume(start, a, b):
        time.sleep(0.002)  # long enough that the threads' chunks overlap
        with lock:
            in_progress[0] -= 1
            starts.append(start)
        return int(np.count_nonzero(a)), 1

    totals = engine._map_chunks(tracked, n, 10**6, consume)
    assert 1 <= len(totals) <= 4 and len(buffer_sets) == 12
    assert tuple(map(sum, zip(*totals))) == (serial.n_xx + serial.n_xy, 64)
    assert sorted(starts) == list(range(0, n, CHUNK))
    assert 1 <= most[0] <= 4 and in_progress == [0]


def test_interleaved_calls_on_one_thread_get_the_serial_counts(monkeypatch):
    # three calls at once, each on a real thread of its own and each with
    # helpers of its own: every call gets its serial bytes and counts
    runs = [("lhv-sign", EARLY, 1000, 21), ("qm", ROTATED, 3 * CHUNK + 5, 22), ("naive", LATE, 2 * CHUNK, 23)]
    serial = [simulate_outcomes(*r) for r in runs]
    counts = [run_ensemble(*r) for r in runs]
    monkeypatch.setattr(engine, "_cores", lambda: 4)
    together = threading.Barrier(len(runs))
    results = [None] * len(runs)

    def call(i):
        together.wait(timeout=10)
        results[i] = simulate_outcomes(*runs[i], workers=10**6), run_ensemble(*runs[i], workers=10**6)

    threads = [threading.Thread(target=call, args=(i,)) for i in range(len(runs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    for (a1, b1), stats, result in zip(serial, counts, results):
        (a, b), got = result
        assert np.array_equal(a, a1) and np.array_equal(b, b1)
        assert got == stats


def test_threads_classify_into_disjoint_slices_under_stress(monkeypatch):
    # more threads than cores, switching often, all writing the same two
    # output arrays: a chunk written outside its slice would break the bytes
    monkeypatch.setattr(engine, "_cores", lambda: 4)
    n = 6 * CHUNK + 11
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for model in MODELS:
            want_a, want_b = simulate_outcomes(model, ROTATED, n, master_seed=12)
            a, b = simulate_outcomes(model, ROTATED, n, master_seed=12, workers=4)
            assert np.array_equal(a, want_a) and np.array_equal(b, want_b), model
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2])
def test_dump_outputs_are_the_callers_own(monkeypatch, workers):
    # the chunks land in the two arrays a call returns, which share memory
    # with nothing: writing to them changes no later call or replay
    monkeypatch.setattr(engine, "_cores", lambda: 2)
    n = 2 * CHUNK + 7
    want_a, want_b = simulate_outcomes("qm", ROTATED, n, master_seed=4, workers=workers)
    replay = run_trial("qm", ROTATED, master_seed=4, trial_index=0)
    a, b = simulate_outcomes("qm", ROTATED, n, master_seed=4, workers=workers)
    for v in (a, b):
        assert v.shape == (n,) and v.flags.c_contiguous and v.flags.writeable
    assert not np.shares_memory(a, b)
    a[0] = not a[0]
    a2, b2 = simulate_outcomes("qm", ROTATED, n, master_seed=4, workers=workers)
    for v in (a, b):
        assert not np.shares_memory(v, a2) and not np.shares_memory(v, b2)
    assert np.array_equal(a2, want_a) and np.array_equal(b2, want_b)
    assert run_trial("qm", ROTATED, master_seed=4, trial_index=0) == replay


def test_a_stalled_chunk_does_not_hold_up_the_queued_ones(monkeypatch):
    # chunk 0 stalls until the other thread has run every other chunk of a
    # 10^6-trial call: chunks are claimed, not handed over in order, so
    # nothing waits on chunk 0
    monkeypatch.setattr(engine, "_cores", lambda: 2)
    n = 1_000_000
    others_done = threading.Event()
    consumed = []
    waited = []

    def consume(start, a, b):
        if start == 0:
            waited.append(others_done.wait(timeout=10))
        else:
            consumed.append(start)
            if len(consumed) == math.ceil(n / CHUNK) - 1:
                others_done.set()
        return (1,)

    totals = engine._map_chunks(engine._kernel(engine._compile("lhv-sign", ROTATED), 5), n, 2, consume)
    assert waited == [True]
    assert sorted([0, *consumed]) == list(range(0, n, CHUNK))
    assert sum(t[0] for t in totals) == math.ceil(n / CHUNK)


def test_an_exception_on_a_helper_reaches_the_caller(monkeypatch):
    # the helper raises on its first chunk while the caller waits in its own:
    # the caller gets the same exception, no chunk is claimed after it, and
    # the helper has ended by the time the call returns
    class Boom(Exception):
        pass

    monkeypatch.setattr(engine, "_cores", lambda: 2)
    caller = threading.get_ident()
    raised = threading.Event()
    consumed = []

    def consume(start, a, b):
        consumed.append(start)
        if threading.get_ident() != caller:
            raised.set()
            raise Boom(start)
        assert raised.wait(timeout=10)
        return ()

    before = threading.active_count()
    with pytest.raises(Boom):
        engine._map_chunks(engine._kernel(engine._compile("naive", ROTATED), 6), 16 * CHUNK, 2, consume)
    assert threading.active_count() == before
    assert 1 <= len(consumed) <= 2


def test_an_interrupt_of_the_caller_stops_the_helpers(monkeypatch):
    # the calling thread is interrupted in its chunk while a helper is in its
    # own: the helper claims no further chunk and is joined, and the caller
    # gets the KeyboardInterrupt
    monkeypatch.setattr(engine, "_cores", lambda: 2)
    caller = threading.get_ident()
    helper_busy, interrupted = threading.Event(), threading.Event()
    consumed = []

    def consume(start, a, b):
        consumed.append(start)
        if threading.get_ident() == caller:
            assert helper_busy.wait(timeout=10)
            interrupted.set()
            raise KeyboardInterrupt
        helper_busy.set()
        if interrupted.wait(timeout=10):
            time.sleep(0.05)  # the caller records the interrupt meanwhile
        return ()

    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        engine._map_chunks(engine._kernel(engine._compile("qm", ROTATED), 6), 16 * CHUNK, 2, consume)
    assert threading.active_count() == before
    assert len(consumed) < 16


def test_every_buffer_row_starts_on_a_cache_line():
    for n in (1, 7, 10**4, 10007, CHUNK):
        words, flags = engine._buffers(n)
        assert (words.shape, flags.shape) == ((3, n), (2, n)) and (words.dtype, flags.dtype) == (np.uint64, bool)
        rows = [*words, *flags]
        for i, row in enumerate(rows):
            assert row.ctypes.data % 64 == 0 and row.flags.c_contiguous and row.flags.writeable, (n, i)
            assert not any(np.shares_memory(row, other) for other in rows[i + 1 :]), (n, i)
        words, flags = engine._buffers(n, False)  # a dump's set: its outcomes go to the outputs
        assert flags is None and words.shape == (3, n)
        assert all(row.ctypes.data % 64 == 0 and row.flags.c_contiguous for row in words), n
    assert engine._OFFSETS.ctypes.data % 64 == 0
    assert np.array_equal(engine._OFFSETS, np.arange(CHUNK, dtype=np.uint64))
    for n in (1, 7, 2 * CHUNK + 7):
        for v in simulate_outcomes("qm", ROTATED, n, master_seed=4):
            assert v.ctypes.data % 64 == 0 and v.shape == (n,), n


def test_import_leaves_concurrent_futures_out():
    # the scheduler uses bare threads: importing the package loads no executor
    env = {**os.environ, "PYTHONPATH": str(Path(engine.__file__).parents[1])}
    code = "import sys, biphoton; sys.exit('concurrent.futures' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


@pytest.mark.parametrize("model", MODELS)
def test_ensemble_memory_does_not_grow_with_chunks(model):
    # a serial call reuses one set of chunk buffers, however many chunks it runs
    def peak(n):
        tracemalloc.start()
        try:
            run_ensemble(model, ROTATED, n, master_seed=8)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(32 * CHUNK) <= peak(2 * CHUNK) + CHUNK * np.dtype(np.uint64).itemsize


@pytest.mark.parametrize("model", MODELS)
def test_one_chunk_ensemble_allocates_only_its_buffers(model):
    # a warm one-chunk call holds three uint64 rows and two bool rows; the
    # trial offsets are a module constant and the XX count takes no array
    n = 10_000
    run_ensemble(model, ROTATED, n, master_seed=8)
    tracemalloc.start()
    try:
        run_ensemble(model, ROTATED, n, master_seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n + 2 * n + n


@pytest.mark.parametrize("model", MODELS)
def test_serial_dump_allocates_its_outputs_and_one_buffer_set(model):
    # a warm serial call past chunk 0 holds its two outputs and one set of
    # three uint64 rows and no bool rows: the indices are hashed in the word
    # row they are made in, and the chunks are classified into the outputs,
    # not copied there; 16 KiB covers the plan and the call's small objects
    n = 2 * CHUNK + 7
    simulate_outcomes(model, ROTATED, n, master_seed=8)
    tracemalloc.start()
    try:
        simulate_outcomes(model, ROTATED, n, master_seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n + 3 * 8 * CHUNK + 16 * 1024


def test_run_ensemble_argument_validation():
    with pytest.raises(ValueError):
        run_ensemble("qm", LATE, 0, master_seed=0)
    with pytest.raises(ValueError):
        run_ensemble("qm", LATE, 100, master_seed=0, workers=0)
    with pytest.raises(ValueError):
        run_ensemble("qm", LATE, True, master_seed=0)
    with pytest.raises(ValueError):
        run_ensemble("qm", LATE, 100, master_seed=0, workers=True)
    with pytest.raises(ValueError):
        run_ensemble("qm", LATE, 100.0, master_seed=0)
    with pytest.raises(ValueError):
        run_ensemble("bohm", LATE, 100, master_seed=0)


BAD_SEEDS = [True, 1.0, 1.5, "3"]


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_library_entry_points_reject_non_integer_seeds(seed):
    # True would run as seed 1; 1.5 and "3" failed with TypeError inside the RNG
    runs = [
        lambda: run_ensemble("qm", LATE, 10, seed),
        lambda: simulate_outcomes("naive", LATE, 10, seed),
        lambda: run_trial("lhv-sign", LATE, seed, 0),
        lambda: chsh_experiment("qm", CANONICAL_CHSH_ANGLES, 10, seed),
        lambda: order_invariance_report("qm", EARLY, LATE, 10, seed),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="master_seed"):
            run()
    # True would run as stream 1; 1.0 failed with TypeError inside the RNG
    with pytest.raises(ValueError, match="stream"):
        derive_seed(5, seed)


@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5)], ids=repr)
def test_numpy_integer_seeds_run_as_their_value(seed):
    # so do numpy trial counts, worker counts and derive_seed's stream
    n, workers = type(seed)(100), type(seed)(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_ensemble("qm", ROTATED, n, seed, workers) == run_ensemble("qm", ROTATED, 100, 5, 2)
        got = simulate_outcomes("naive", ROTATED, n, seed, workers)
        want = simulate_outcomes("naive", ROTATED, 100, 5, 2)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert run_trial("lhv-sign", ROTATED, seed, 7) == run_trial("lhv-sign", ROTATED, 5, 7)
        child = derive_seed(1, seed)
        assert child == derive_seed(1, 5) and type(child) is int
        assert chsh_experiment("qm", CANONICAL_CHSH_ANGLES, n, seed, workers=workers) == chsh_experiment(
            "qm", CANONICAL_CHSH_ANGLES, 100, 5, workers=2
        )
        assert order_invariance_report("naive", EARLY, LATE, n, seed, workers) == order_invariance_report(
            "naive", EARLY, LATE, 100, 5, 2
        )


def test_seeds_keep_their_meaning_mod_2_64():
    assert run_ensemble("qm", ROTATED, 100, -1) == run_ensemble("qm", ROTATED, 100, 2**64 - 1)
    assert chsh_experiment("naive", CANONICAL_CHSH_ANGLES, 100, -1) == chsh_experiment(
        "naive", CANONICAL_CHSH_ANGLES, 100, 2**64 - 1
    )


def test_qm_plate_bench_has_no_discordant_counts():
    stats = run_ensemble("qm", LATE, 50_000, master_seed=1)
    assert stats.n_xy == 0 and stats.n_yx == 0
    assert stats.e_hat == 1.0


def test_qm_no_plate_bench_has_no_concordant_counts():
    stats = run_ensemble("qm", NO_PLATE, 50_000, master_seed=1)
    assert stats.n_xx == 0 and stats.n_yy == 0
    assert stats.e_hat == -1.0


@pytest.mark.parametrize("plate_angle", [1.7e308, -1.7e308])
def test_qm_runs_at_plate_angles_whose_double_overflows(plate_angle):
    bench = OpticalBench(plate_angle=plate_angle)
    reduced = replace(bench, plate_angle=quantum.reduce_mod_pi(plate_angle))
    assert run_ensemble("qm", bench, 10, 0) == run_ensemble("qm", reduced, 10, 0)
    assert analytic_joint_table("qm", bench).p.tolist() == analytic_joint_table("qm", reduced).p.tolist()


def test_qm_rotated_settings_match_closed_form():
    bench = OpticalBench(alpha=0.0, beta=math.pi / 8)
    stats = run_ensemble("qm", bench, 200_000, master_seed=6)
    want = math.cos(2.0 * (0.0 - math.pi / 8))
    assert abs(stats.e_hat - want) <= 3.0 * stats.stderr_e


def test_qm_calibration_over_seeds():
    bench = OpticalBench(alpha=0.0, beta=math.pi / 8)
    want = analytic_E("qm", bench)
    hits = 0
    for seed in range(100):
        stats = run_ensemble("qm", bench, 10_000, master_seed=seed)
        if abs(stats.e_hat - want) < 3.0 * stats.stderr_e:
            hits += 1
    assert hits >= 99


def test_empirical_no_signaling_across_remote_settings():
    marginals = []
    for k, beta in enumerate([0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8]):
        bench = OpticalBench(alpha=0.0, beta=beta)
        stats = run_ensemble("qm", bench, 20_000, master_seed=400 + k)
        marginals.append((stats.marginal_a()[0], stats.n))
    for i in range(len(marginals)):
        for j in range(i + 1, len(marginals)):
            f1, n1 = marginals[i]
            f2, n2 = marginals[j]
            sigma = math.sqrt(f1 * (1 - f1) / n1 + f2 * (1 - f2) / n2)
            assert abs(f1 - f2) < 4.0 * sigma


# ---------------------------------------------------------------- statistics type

def test_ensemble_stats_arithmetic():
    stats = EnsembleStats(40, 10, 20, 30)
    assert stats.n == 100
    assert stats.counts == (40, 10, 20, 30)
    assert stats.frequencies == (0.4, 0.1, 0.2, 0.3)
    assert stats.e_hat == (40 + 30 - 10 - 20) / 100
    assert stats.stderr_e == math.sqrt((1 - stats.e_hat**2) / 100)
    assert stats.marginal_a() == (0.5, 0.5)
    assert stats.marginal_b() == (0.6, 0.4)
    se = stats.cell_stderr()
    assert abs(se[0] - math.sqrt(0.4 * 0.6 / 100)) < 1e-15


def test_ensemble_stats_validation():
    with pytest.raises(ValueError):
        EnsembleStats(-1, 0, 0, 5)
    with pytest.raises(ValueError):
        EnsembleStats(0, 0, 0, 0)
    with pytest.raises(ValueError):
        EnsembleStats(0.5, 0, 0, 5)
    with pytest.raises(ValueError):
        EnsembleStats(True, 0, 0, 0)
    with pytest.raises(ValueError):
        EnsembleStats(0, np.bool_(True), 0, 0)


def test_ensemble_stats_take_numpy_counts_by_value():
    stats = EnsembleStats(np.int64(3), np.uint8(1), 0, 0)
    assert stats.counts == (3, 1, 0, 0)
    assert all(type(c) is int for c in stats.counts)
    assert type(cli._stats_doc(stats)["n_xx"]) is int


def test_ensemble_stats_json_keys():
    stats = EnsembleStats(1, 2, 3, 4)
    doc = cli._stats_doc(stats)
    assert list(doc) == ["n_xx", "n_xy", "n_yx", "n_yy", "e_hat", "stderr_e"]
    assert list(doc.values()) == [1, 2, 3, 4, stats.e_hat, stats.stderr_e]


# ---------------------------------------------------------------- analytic tables

def test_analytic_tables_for_reference_benches():
    np.testing.assert_allclose(
        analytic_joint_table("qm", LATE).p, [0.5, 0.0, 0.0, 0.5], atol=1e-12
    )
    np.testing.assert_allclose(
        analytic_joint_table("qm", NO_PLATE).p, [0.0, 0.5, 0.5, 0.0], atol=1e-12
    )
    np.testing.assert_allclose(
        analytic_joint_table("naive", EARLY).p, [0.5, 0.0, 0.0, 0.5], atol=0
    )
    np.testing.assert_allclose(
        analytic_joint_table("naive", LATE).p, [0.0, 0.5, 0.5, 0.0], atol=0
    )
    table = analytic_joint_table("lhv-sign", NO_PLATE).p
    assert abs(float(np.sum(table)) - 1.0) < 1e-12
    assert analytic_E("lhv-sign", NO_PLATE) == -1.0


def test_analytic_tables_match_monte_carlo():
    for bench in BENCHES:
        for model in MODELS:
            table = analytic_joint_table(model, bench).p
            stats = run_ensemble(model, bench, 50_000, master_seed=52)
            for want, got, se in zip(table, stats.frequencies, stats.cell_stderr()):
                assert abs(got - want) <= max(4.0 * se, 1e-9), (model, bench)


def _qm_born_table(bench):
    # the Born rule on the state behind the plate: a plate on channel A
    # commutes with B's measurement, so the event order cannot matter
    state = make_anticorrelated_pair()
    if bench.plate_present:
        state = apply_element(state, Channel.A, hwp_jones(bench.plate_angle))
    return joint_probabilities(state, bench.alpha, bench.beta).p


def _naive_sign_rule_table(bench):
    # a fair first detection leaves the partner orthogonal to the registered
    # axis, turned by the plate when B's detection beat it; the partner then
    # answers by the sign rule
    detections = [event for _, event in build_timeline(bench) if event is not BenchEvent.PLATE_A]
    a_first = detections[0] is BenchEvent.DETECT_A
    first, second = (bench.alpha, bench.beta) if a_first else (bench.beta, bench.alpha)
    table = np.zeros((2, 2))
    for outcome, axis in enumerate((first.angle, first.angle + math.pi / 2)):
        partner = reduce_mod_pi(axis + math.pi / 2)
        if detect_b_before_plate(bench):
            partner = naive_plate_action(partner)
        table[outcome, int(lhv_outcome(partner, second) is PolAxis.Y)] = 0.5
    return (table if a_first else table.T).reshape(4)


def sampler_table(plan):
    """The exact [XX, XY, YX, YY] that a compiled plan's kernel samples, as ``Fraction``s.

    A plan with arcs reads one draw k in [0, 2^53): each channel is X on
    its arc as ``_arc_kernel`` reads it, [opens, closes) when opens <=
    closes and outside [closes, opens) when not, so each cell is a count
    of draws over 2^53.  A plan without reads two: the first detection is
    X when k0 < K_first, and the second when k1 is below the threshold of
    the first's outcome, so each cell is a count of draw pairs over 2^106.
    """
    if plan.arcs:
        edges = sorted({0, 2**53}.union(*plan.arcs))
        counts = [0, 0, 0, 0]
        for lo, hi in zip(edges, edges[1:]):
            # no arc end lies inside [lo, hi), so draw lo stands for all of it
            a_x, b_x = (opens <= lo < closes if opens <= closes else not closes <= lo < opens
                        for opens, closes in plan.arcs)
            counts[2 * (not a_x) + (not b_x)] += hi - lo
        return [Fraction(c, 2**53) for c in counts]
    first_k, given_x, given_y = plan.thresholds
    # first outcome, then second: XX, XY, YX, YY
    xx, xy = first_k * given_x, first_k * (2**53 - given_x)
    yx, yy = (2**53 - first_k) * given_y, (2**53 - first_k) * (2**53 - given_y)
    counts = [xx, xy, yx, yy] if plan.branch[0] is Channel.A else [xx, yx, xy, yy]
    return [Fraction(c, 2**106) for c in counts]


#: how far an exact sampler table may sit from its model's independent oracle:
#: the plan's probabilities are floats rounded up to whole draws, a few 2^-53
#: at most (measured: qm 4 on ORACLE_BENCHES and 4.27 on the tied benches,
#: naive 0, lhv-sign 3, each x 2^-53); a plan 2^12 draws off reads 2^-41
SAMPLER_TABLE_BOUND = Fraction(8, 2**53)


def _qm_sampled_born_table(bench):
    """The Born table with ``marginal``'s residue rule applied to the second detection.

    Given the first detection's outcome, the second's P(X) or P(Y) below
    ``quantum.ATOL`` is read as 0: so where the Born rule gives a cell a
    conditional probability below ATOL (at a plate angle of 2^-24 with both
    analyzers at 0, 7.1e-15 of a cell), the sampler gives it none.
    """
    table = _qm_born_table(bench).reshape(2, 2).copy()
    detections = [event for _, event in build_timeline(bench) if event is not BenchEvent.PLATE_A]
    # one row per outcome of the first detection, as views of the table
    for row in table if detections[0] is BenchEvent.DETECT_A else table.T:
        total = row.sum()
        if min(row / total) < quantum.ATOL:
            row[:] = (total, 0.0) if row[0] > row[1] else (0.0, total)
    return table.reshape(4)


#: each model's independent oracle: the Born rule, the sign rule and the sawtooth
ORACLES = {
    "qm": _qm_sampled_born_table,
    "naive": _naive_sign_rule_table,
    "lhv-sign": lambda bench: analytic_joint_table("lhv-sign", bench).p,
}


def _assert_sampler_table_matches_oracle(model, bench):
    got = sampler_table(engine._compile(model, bench))
    assert sum(got) == 1, (model, bench)
    for want, cell in zip(ORACLES[model](bench), got):
        assert abs(Fraction(float(want)) - cell) <= SAMPLER_TABLE_BOUND, (model, bench, float(want), cell)


ORACLE_BENCHES = _random_benches(300, seed=77)


def test_qm_and_naive_tables_match_independent_oracles():
    for bench in ORACLE_BENCHES:
        np.testing.assert_allclose(
            analytic_joint_table("qm", bench).p, _qm_born_table(bench), rtol=0, atol=2**-50
        )
        assert analytic_joint_table("naive", bench).p.tolist() == _naive_sign_rule_table(bench).tolist()


def test_lhv_sampler_table_matches_sawtooth():
    for bench in ORACLE_BENCHES:
        _assert_sampler_table_matches_oracle("lhv-sign", bench)


def test_qm_and_naive_sampler_tables_match_independent_oracles():
    # the exact distribution each kernel samples, with no sampling noise
    for bench in ORACLE_BENCHES:
        for model in ("qm", "naive"):
            _assert_sampler_table_matches_oracle(model, bench)


def test_exact_tables_compile_no_sampler_plan(monkeypatch):
    # the exact side reads each model's rules: it makes no draw threshold
    # and pins no lhv-sign arc, which only the sampler's plan holds
    def refuse(*args):
        raise AssertionError("an exact table compiled a sampler plan")

    monkeypatch.setattr(engine, "_draw_threshold", refuse)
    monkeypatch.setattr(engine, "_lhv_breakpoints", refuse)
    for model in MODELS:
        for bench in ORACLE_BENCHES:
            assert analytic_joint_table(model, bench).p.shape == (4,)
            assert -1.0 <= analytic_E(model, bench) <= 1.0
        for plate in (True, False):
            assert math.isfinite(analytic_chsh(model, CANONICAL_CHSH_ANGLES, plate).s)


_BENCH_ANGLES = st.one_of(_ANGLES, st.integers(-24, 48).map(lambda j: j * math.pi / 12))
_DISTANCES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])


@st.composite
def _tied_benches(draw):
    # distances from a short list so events tie
    d_plate, d_prism_a, d_prism_b = draw(_DISTANCES), draw(_DISTANCES), draw(_DISTANCES)
    return OpticalBench(
        d_plate_a=min(d_plate, d_prism_a),
        d_prism_a=d_prism_a,
        d_prism_b=d_prism_b,
        alpha=draw(_BENCH_ANGLES),
        beta=draw(_BENCH_ANGLES),
        plate_present=draw(st.booleans()),
        plate_angle=draw(_BENCH_ANGLES),
    )


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(bench=_tied_benches())
def test_tables_sum_to_one_and_marginals_are_fair(bench):
    for model in MODELS:
        p = analytic_joint_table(model, bench).p
        assert abs(float(p.sum()) - 1.0) <= 2**-50, model
    # no-signaling: each channel answers X with probability 1/2 whatever the
    # other setting.  naive is left out: at a fold tie (distance pi/4) both
    # orthogonal partner angles answer X by the sign rule, so its second
    # detection's marginal is 1 there, as the documented tie rule says
    for model in ("qm", "lhv-sign"):
        p = analytic_joint_table(model, bench).p
        assert abs(float(p[XX] + p[XY]) - 0.5) <= 2**-50, model
        assert abs(float(p[XX] + p[YX]) - 0.5) <= 2**-50, model


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(bench=_tied_benches())
def test_sampler_tables_match_independent_oracles_on_tied_benches(bench):
    for model in MODELS:
        _assert_sampler_table_matches_oracle(model, bench)


def test_qm_analytic_table_is_timeline_independent():
    # same settings, three different event orderings
    variants = [
        OpticalBench(alpha=0.3, beta=1.0, d_prism_b=0.25),  # B before plate
        OpticalBench(alpha=0.3, beta=1.0, d_prism_b=1.0),  # plate, then B, then A
        OpticalBench(alpha=0.3, beta=1.0, d_prism_b=2.0),  # A before B
    ]
    tables = [analytic_joint_table("qm", bench).p for bench in variants]
    np.testing.assert_allclose(tables[0], tables[1], atol=1e-12)
    np.testing.assert_allclose(tables[0], tables[2], atol=1e-12)


def test_lhv_analytic_table_is_timeline_independent():
    early = analytic_joint_table("lhv-sign", EARLY).p
    late = analytic_joint_table("lhv-sign", LATE).p
    np.testing.assert_allclose(early, late, atol=0)


# ---------------------------------------------------------------- CSV dump

def test_write_trials_csv_layout():
    a, b = simulate_outcomes("naive", EARLY, 4, master_seed=3)
    buf = io.BytesIO()
    write_trials_csv(buf, EARLY, a, b)
    lines = buf.getvalue().decode("ascii").splitlines()
    assert lines[0] == "trial,outcome_a,outcome_b,b_before_plate"
    assert len(lines) == 5
    for offset, line in enumerate(lines[1:]):
        idx, oa, ob, flag = line.split(",")
        assert int(idx) == offset
        assert oa in ("X", "Y") and ob in ("X", "Y")
        assert flag == "true"  # EARLY detects B first
        assert (oa == "X") == bool(a[offset]) and (ob == "X") == bool(b[offset])


def reference_write_trials_csv(f, bench, a_is_x, b_is_x, first=0):
    """The dump written one row at a time: the reference for the chunked writer.

    ``first`` > 0 writes the header and only rows ``first`` onwards.
    """
    flag = b"true" if detect_b_before_plate(bench) else b"false"
    f.write(b"trial,outcome_a,outcome_b,b_before_plate\n")
    for i in range(first, len(a_is_x)):
        a = b"X" if a_is_x[i] else b"Y"
        b = b"X" if b_is_x[i] else b"Y"
        f.write(b"%d,%s,%s,%s\n" % (i, a, b, flag))


# every digit-count, chunk and 10^4-period boundary up to 10^6 rows, and an
# empty dump
DUMP_SIZES = [
    0, 1, 9, 10, 11, 99, 100, 101, 1000, 9_999, 10_000, 10_001, CHUNK - 1, CHUNK, CHUNK + 1,
    99_999, 100_000, 100_001, 2 * CHUNK + 7, 999_999, 1_000_000, 1_000_001,
]


@pytest.mark.parametrize("bench", [EARLY, LATE], ids=["flag-true", "flag-false"])
@pytest.mark.parametrize("n", DUMP_SIZES)
def test_write_trials_csv_matches_row_writer(bench, n):
    rng = np.random.default_rng(n)
    a, b = rng.random(n) < 0.5, rng.random(n) < 0.5
    want, got = io.BytesIO(), io.BytesIO()
    reference_write_trials_csv(want, bench, a, b)
    write_trials_csv(got, bench, a, b)
    assert got.getvalue() == want.getvalue()


class _TailBytes:
    """A binary sink that keeps its last writes, at least ``keep`` bytes.

    Each write is copied, because the writer reuses the buffer it hands over.
    """

    def __init__(self, keep):
        self.keep, self.size, self.parts = keep, 0, deque()

    def write(self, data):
        self.parts.append(bytes(data))
        self.size += len(self.parts[-1])
        while self.size - len(self.parts[0]) >= self.keep:
            self.size -= len(self.parts.popleft())

    def getvalue(self):
        return b"".join(self.parts)


def test_write_trials_csv_eight_digit_indices():
    n = 10_000_003
    rng = np.random.default_rng(8)
    a, b = rng.integers(2, size=n, dtype=bool), rng.integers(2, size=n, dtype=bool)
    got = _TailBytes(keep=CHUNK * len(b"10000002,X,Y,false\n"))
    write_trials_csv(got, LATE, a, b)
    want = io.BytesIO()
    reference_write_trials_csv(want, LATE, a, b, first=n - CHUNK)
    assert got.getvalue().splitlines()[-CHUNK:] == want.getvalue().splitlines()[1:]


class _PeriodSink:
    """A binary sink that counts rows and fails any write of more than one 10^4-row period."""

    def __init__(self):
        self.rows = 0

    def write(self, data):
        rows = bytes(data).count(b"\n")
        assert rows <= 10_000, f"one write holds {rows} rows"
        self.rows += rows


def test_write_trials_csv_memory_does_not_grow_with_rows():
    # beyond the two outcome arrays, a dump holds one block of one period
    # of rows (0.17 MB at 7 digits), whatever the row count, and writes
    # one period at a time
    n = 4_000_000
    rng = np.random.default_rng(4)
    a, b = rng.integers(2, size=n, dtype=bool), rng.integers(2, size=n, dtype=bool)
    sink = _PeriodSink()
    tracemalloc.start()
    try:
        write_trials_csv(sink, EARLY, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.rows == n + 1  # and the header
    assert peak <= 1_000_000


@pytest.mark.parametrize("n_b", [2, 1, 4], ids=["shorter", "length-1", "longer"])
def test_write_trials_csv_rejects_unequal_lengths(n_b):
    sink = io.BytesIO()
    with pytest.raises(ValueError, match="equal length"):
        write_trials_csv(sink, EARLY, np.ones(3, dtype=bool), np.zeros(n_b, dtype=bool))
    assert sink.getvalue() == b""


# ---------------------------------------------------------------- order invariance

def test_order_report_qm_verdict_same():
    report = order_invariance_report("qm", EARLY, LATE, 200_000, master_seed=41)
    assert report.verdict == "SAME" and report.same
    assert abs(report.delta_e) <= 4.0 * max(report.delta_e_stderr, 1e-12)
    np.testing.assert_allclose(report.analytic_early, report.analytic_late, atol=1e-12)


def test_order_report_naive_verdict_different():
    report = order_invariance_report("naive", EARLY, LATE, 10_000, master_seed=41)
    assert report.verdict == "DIFFERENT" and not report.same
    assert report.early.e_hat == 1.0
    assert report.late.e_hat == -1.0


def test_order_report_lhv_verdict_same():
    report = order_invariance_report("lhv-sign", EARLY, LATE, 100_000, master_seed=41)
    assert report.verdict == "SAME"


def test_order_report_json_shape(capsys):
    argv = ["order-test", "--model", "naive", "--trials", "1000", "--seed", "2", "--format", "json"]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)["report"]
    assert list(doc) == [
        "model", "n_per_bench", "early", "late", "analytic_early", "analytic_late",
        "delta_f", "combined_stderr", "delta_e", "delta_e_stderr", "verdict",
    ]
    assert doc["verdict"] == "DIFFERENT"
    assert doc["n_per_bench"] == 1_000
    assert len(doc["delta_f"]) == 4 and len(doc["combined_stderr"]) == 4
    assert list(doc["early"]) == ["n_xx", "n_xy", "n_yx", "n_yy", "e_hat", "stderr_e"]


def test_order_report_derives_everything_from_its_ensembles():
    early, late = EnsembleStats(30, 10, 20, 40), EnsembleStats(25, 25, 25, 25)
    report = engine.OrderInvarianceReport("qm", early, late, (0.25,) * 4, (0.25,) * 4)
    assert [f.name for f in fields(report)] == [
        "model", "early", "late", "analytic_early", "analytic_late",
    ]
    assert report.early.n == 100
    assert report.delta_f == pytest.approx((-0.05, 0.15, 0.05, -0.15), abs=1e-15)
    want = [math.sqrt(a * a + b * b) for a, b in zip(early.cell_stderr(), late.cell_stderr())]
    assert list(report.combined_stderr) == want
    assert report.delta_e == late.e_hat - early.e_hat == -0.4
    assert report.delta_e_stderr == math.sqrt(early.stderr_e**2 + late.stderr_e**2)
    assert report.same is all(abs(d) <= 4.0 * c for d, c in zip(report.delta_f, want))
    # a cell reproduced exactly passes at zero stderr
    exact = engine.OrderInvarianceReport("naive", late, late, (0.25,) * 4, (0.25,) * 4)
    assert exact.delta_f == (0.0,) * 4 and exact.same
    flipped = engine.OrderInvarianceReport(
        "naive", EnsembleStats(5, 0, 0, 0), EnsembleStats(0, 5, 0, 0), (1.0, 0, 0, 0), (0, 1.0, 0, 0)
    )
    assert flipped.delta_e == -2.0 and flipped.verdict == "DIFFERENT"


def test_order_report_rejects_mismatched_benches():
    with pytest.raises(ValueError):
        order_invariance_report("qm", EARLY, replace(LATE, alpha=0.2), 100, master_seed=0)
    with pytest.raises(ValueError):  # both benches on the late side
        order_invariance_report("qm", LATE, replace(LATE, d_prism_b=1.2), 100, master_seed=0)
    with pytest.raises(ValueError):  # both benches on the early side
        order_invariance_report("qm", EARLY, replace(EARLY, d_prism_b=0.3), 100, master_seed=0)


# ---------------------------------------------------------------- CHSH experiments

def test_analytic_chsh_values():
    qm = analytic_chsh("qm", CANONICAL_CHSH_ANGLES)
    assert abs(qm.s - TWO_SQRT2) < 1e-12
    lhv = analytic_chsh("lhv-sign", CANONICAL_CHSH_ANGLES)
    assert lhv.s == 2.0
    assert (lhv.e_ab, lhv.e_abp, lhv.e_apb, lhv.e_apbp) == (0.5, -0.5, 0.5, 0.5)
    degenerate = analytic_chsh("qm", ChshAngles(0.0, 0.0, 0.0, 0.0))
    assert abs(degenerate.s - 2.0) < 1e-12
    for model in MODELS:
        for plate in (1, None, "true"):
            with pytest.raises(ValueError, match="plate_present"):
                analytic_chsh(model, CANONICAL_CHSH_ANGLES, plate)


def _hexes(values):
    return [float(v).hex() for v in values]


def _branch_table(branch):
    """[XX, XY, YX, YY] of a branch plan: P(first) * P(second | first), channel A's axis first."""
    first_ch, p1x, given_x, given_y = branch
    xx, xy = p1x * given_x, p1x * (1.0 - given_x)
    yx, yy = (1.0 - p1x) * given_y, (1.0 - p1x) * (1.0 - given_y)
    return [xx, xy, yx, yy] if first_ch is Channel.A else [xx, yx, xy, yy]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(quadruple=st.tuples(*[_BENCH_ANGLES] * 4))
def test_exact_chsh_terms_are_their_benches_tables(quadruple):
    # by float.hex, with the plate on and off: each analytic_chsh term is
    # analytic_E of its bench, and each qm and naive table cell is the
    # product of the branch plan the sampler compiles, so the tables and the
    # kernels read one branch plan
    angles = ChshAngles(*quadruple)
    for plate in (True, False):
        benches = [OpticalBench(alpha=a, beta=b, plate_present=plate) for a, b in angles.pairs()]
        for model in MODELS:
            report = analytic_chsh(model, angles, plate)
            terms = (report.e_ab, report.e_abp, report.e_apb, report.e_apbp)
            assert _hexes(terms) == _hexes(analytic_E(model, bench) for bench in benches), (model, plate)
        for bench in benches:
            for model in ("qm", "naive"):
                want = _branch_table(engine._compile(model, bench).branch)
                assert _hexes(analytic_joint_table(model, bench).p) == _hexes(want), (model, bench)


def test_chsh_experiment_matches_analytic_qm():
    report = chsh_experiment("qm", CANONICAL_CHSH_ANGLES, 50_000, master_seed=8)
    assert abs(report.s - TWO_SQRT2) <= 3.0 * report.stderr_total
    assert report.violates_classical_bound()


def test_chsh_experiment_matches_analytic_lhv():
    report = chsh_experiment("lhv-sign", CANONICAL_CHSH_ANGLES, 50_000, master_seed=8)
    assert abs(report.s - 2.0) <= 3.0 * report.stderr_total
    assert not report.violates_classical_bound()


def test_chsh_experiment_degenerate_settings():
    report = chsh_experiment("qm", ChshAngles(0.0, 0.0, 0.0, 0.0), 20_000, master_seed=8)
    assert abs(report.s - 2.0) <= 3.0 * report.stderr_total
    assert not report.violates_classical_bound()


def test_chsh_experiment_is_deterministic():
    r1 = chsh_experiment("qm", CANONICAL_CHSH_ANGLES, 5_000, master_seed=99, workers=1)
    r2 = chsh_experiment("qm", CANONICAL_CHSH_ANGLES, 5_000, master_seed=99, workers=3)
    assert r1 == r2
    r3 = chsh_experiment("qm", CANONICAL_CHSH_ANGLES, 5_000, master_seed=100)
    assert r1 != r3


def test_chsh_experiment_no_plate_source():
    report = chsh_experiment("qm", CANONICAL_CHSH_ANGLES, 50_000, master_seed=12, plate_present=False)
    want = analytic_chsh("qm", CANONICAL_CHSH_ANGLES, plate_present=False).s
    assert abs(report.s - want) <= 3.0 * report.stderr_total


def test_each_experiment_ensemble_goes_through_run_ensemble(monkeypatch, capsys):
    # perfbench injects its faults by replacing engine.run_ensemble, so every
    # ensemble of chsh, order-test and sweep must reach that name: bench k
    # once, under derived child seed k
    calls = []
    real = engine.run_ensemble

    def counted(model, bench, n_trials, master_seed, workers=1):
        calls.append((bench, master_seed))
        return real(model, bench, n_trials, master_seed, workers)

    def assert_ran(benches):
        assert calls == [(bench, derive_seed(seed, k)) for k, bench in enumerate(benches)]
        calls.clear()

    monkeypatch.setattr(engine, "run_ensemble", counted)
    seed = 2**64 + 5
    chsh_experiment("qm", CANONICAL_CHSH_ANGLES, 100, seed)
    assert_ran([OpticalBench(alpha=a, beta=b) for a, b in CANONICAL_CHSH_ANGLES.pairs()])
    order_invariance_report("naive", EARLY, LATE, 100, seed)
    assert_ran([EARLY, LATE])
    argv = ["sweep", "--model", "lhv-sign", "--trials", "10", "--seed", str(seed), "--step", "45", "--no-plate"]
    assert cli.main([*argv, "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6  # the header and five rows
    assert_ran([OpticalBench(alpha=math.radians(45.0 * k), plate_present=False) for k in range(5)])
