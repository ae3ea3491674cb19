"""Pair state, wave-plate action, projective collapse, closed-form correlators."""

import ast
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

from biphoton import quantum
from biphoton.local import ChshAngles
from biphoton.quantum import (
    XX,
    XY,
    YX,
    YY,
    AnalyzerSetting,
    Channel,
    JonesMatrix,
    PolAxis,
    TwoPhotonState,
    apply_element,
    hwp_jones,
    joint_probabilities,
    make_anticorrelated_pair,
    marginal,
    measure_channel,
    project_channel,
    reduce_mod_pi,
)
from oracles import (
    correlation_E,
    matrix_apply,
    matrix_joint,
    matrix_project,
    product_state,
    states_equal_up_to_phase,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def swapped_pair() -> TwoPhotonState:
    """(|xx> + |yy>)/sqrt(2): the pair after the half-wave plate at pi/4."""
    return apply_element(make_anticorrelated_pair(), Channel.A, hwp_jones(math.pi / 4))


# ---------------------------------------------------------------- angles

def test_reduce_mod_pi_basics():
    assert reduce_mod_pi(0.0) == 0.0
    assert reduce_mod_pi(math.pi) == 0.0
    assert abs(reduce_mod_pi(math.pi + 0.3) - 0.3) < 1e-12
    assert abs(reduce_mod_pi(-0.25) - (math.pi - 0.25)) < 1e-12
    for x in np.linspace(-20.0, 20.0, 401):
        r = reduce_mod_pi(float(x))
        assert 0.0 <= r < math.pi


def test_angles_reduce_to_positive_zero():
    # a zero reduces to +0.0 whatever its sign, so no angle prints as -0
    zeros = (
        reduce_mod_pi(-0.0),
        reduce_mod_pi(-math.pi),
        reduce_mod_pi(-3.0 * math.pi),
        AnalyzerSetting.from_degrees(-180).angle,
    )
    for zero in zeros:
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0


def test_reduce_mod_pi_rejects_non_finite():
    with pytest.raises(ValueError):
        reduce_mod_pi(math.inf)
    with pytest.raises(ValueError):
        reduce_mod_pi(math.nan)


def test_analyzer_setting_reduces_and_converts_degrees():
    assert AnalyzerSetting(math.pi + 0.3).angle == reduce_mod_pi(math.pi + 0.3)
    assert AnalyzerSetting.from_degrees(180.0).angle == 0.0
    assert abs(AnalyzerSetting.from_degrees(45.0).angle - math.pi / 4) < 1e-15


BEYOND_FLOAT = pytest.param(10**400, id="10**400")
NOT_ANGLES = [True, np.bool_(True), "1", None, 1j, BEYOND_FLOAT]


@pytest.mark.parametrize("value", NOT_ANGLES + ["1.0"], ids=repr)
def test_reduce_mod_pi_rejects_non_angles(value):
    # True used to reduce to 1.0, 10**400 to raise OverflowError and "1.0" TypeError;
    # test_reduce_mod_pi_rejects_non_finite has nan and inf
    with pytest.raises(ValueError):
        reduce_mod_pi(value)


@pytest.mark.parametrize("value", [np.float32(4.5), np.float64(-0.25), np.int64(7), Fraction(22, 7)], ids=repr)
def test_reduce_mod_pi_takes_any_real(value):
    assert reduce_mod_pi(value) == reduce_mod_pi(float(value))
    assert type(reduce_mod_pi(value)) is float


@pytest.mark.parametrize("value", NOT_ANGLES, ids=repr)
def test_analyzer_setting_rejects_non_angles(value):
    # True and "1" used to pass through float() as 1 rad
    with pytest.raises(ValueError):
        AnalyzerSetting(value)
    with pytest.raises(ValueError):
        AnalyzerSetting.from_degrees(value)
    with pytest.raises(ValueError):
        measure_channel(make_anticorrelated_pair(), Channel.A, value, 0.5)
    with pytest.raises(ValueError):
        ChshAngles(0.0, value, 0.0, 0.0)


@pytest.mark.parametrize("value, angle", [(np.float32(0.5), 0.5), (np.int64(1), 1.0)], ids=repr)
def test_analyzer_setting_accepts_numpy_reals(value, angle):
    assert AnalyzerSetting(value) == AnalyzerSetting(angle)
    assert type(AnalyzerSetting(value).angle) is float


# ---------------------------------------------------------------- states

def test_anticorrelated_pair_amplitudes():
    amps = make_anticorrelated_pair().amps
    np.testing.assert_allclose(
        amps, [0.0, 0.7071067811865476, 0.7071067811865476, 0.0], rtol=0, atol=0
    )


def test_anticorrelated_pair_norm():
    assert abs(np.linalg.norm(make_anticorrelated_pair().amps) - 1.0) < 1e-12


def test_pair_joint_probabilities_at_zero():
    table = joint_probabilities(make_anticorrelated_pair(), 0.0, 0.0)
    np.testing.assert_allclose(table.p, [0.0, 0.5, 0.5, 0.0], atol=1e-15)


def test_state_rejects_unnormalized_amps():
    with pytest.raises(ValueError):
        TwoPhotonState([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        TwoPhotonState([0.0, 0.0, 0.0, 0.0])


def test_state_amps_are_read_only():
    state = make_anticorrelated_pair()
    with pytest.raises(ValueError):
        state.amps[0] = 1.0


# ---------------------------------------------------------------- elements

def test_hwp_at_quarter_pi_swaps_axes():
    np.testing.assert_allclose(hwp_jones(math.pi / 4).m, [[0, 1], [1, 0]], atol=1e-15)


def test_hwp_at_zero_flips_y_sign():
    np.testing.assert_allclose(hwp_jones(0.0).m, [[1, 0], [0, -1]], atol=0)


def test_hwp_at_eighth_pi():
    h = INV_SQRT2
    np.testing.assert_allclose(hwp_jones(math.pi / 8).m, [[h, h], [h, -h]], atol=1e-15)


@pytest.mark.parametrize("theta", np.linspace(-2.0, 5.0, 23))
def test_hwp_unitary_and_involutive(theta):
    m = hwp_jones(float(theta)).m
    np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("theta", [1.7e308, -1.7e308, 2.0**1023, -(2.0**1023)], ids=repr)
def test_hwp_reduces_angles_whose_double_overflows(theta):
    # 2 * theta is inf for |theta| >= 2^1023, and cos(inf) used to raise
    m = hwp_jones(theta).m
    np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)
    assert m.tolist() == hwp_jones(reduce_mod_pi(theta)).m.tolist()


def test_hwp_keeps_the_bits_of_angles_below_the_overflow():
    for theta in (math.nextafter(2.0**1023, 0.0), -math.nextafter(2.0**1023, 0.0), 1e300, 123.456):
        c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)
        assert hwp_jones(theta).m.tolist() == [[c, s], [s, -c]]


def test_jones_matrix_rejects_non_unitary():
    with pytest.raises(ValueError):
        JonesMatrix([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError):
        JonesMatrix([[1.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)], ids=repr)
@pytest.mark.parametrize("entry", [(0, 0), (1, 1)])
def test_jones_matrix_and_state_reject_non_finite_entries(bad, entry):
    m = [[1.0, 0.0], [0.0, 1.0]]
    m[entry[0]][entry[1]] = bad
    with pytest.raises(ValueError, match="finite"):
        JonesMatrix(m)
    amps = [1.0, 0.0, 0.0, 0.0]
    amps[3 * entry[0]] = bad
    with pytest.raises(ValueError, match="finite"):
        TwoPhotonState(amps)


@pytest.mark.parametrize(
    "make",
    [
        lambda: apply_element(make_anticorrelated_pair(), Channel.A, [[10**400, 0], [0, 1]]),
        lambda: JonesMatrix([[Fraction(10**400), 0], [0, 1]]),
        lambda: JonesMatrix([[True, 0], [0, 1]]),
        lambda: JonesMatrix([["1", 0], [0, 1]]),
        lambda: JonesMatrix({"a": 1}),
        lambda: JonesMatrix([[1, 0], [0]]),
        lambda: TwoPhotonState(object()),
        lambda: TwoPhotonState([0, 1, 0, 10**400]),
        lambda: TwoPhotonState([0, True, 0, 0]),
        lambda: TwoPhotonState([[0], [1], [0], [None]]),
    ],
    ids=[
        "apply_element-int-beyond-range",
        "jones-fraction-beyond-range",
        "jones-bool",
        "jones-str",
        "jones-dict",
        "jones-ragged",
        "state-object",
        "state-int-beyond-range",
        "state-bool",
        "state-none",
    ],
)
def test_an_entry_that_is_not_a_finite_number_is_rejected(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize(
    "amps, rows",
    [
        ([0, 1, 0, 0], [[0, 1], [1, 0]]),
        (
            [-0.0, Fraction(3, 5), 0, Fraction(4, 5)],
            [[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]],
        ),
        (np.array([[0.0, -1.0], [0.0, -0.0]], dtype=np.float32), np.array([[-0.0, 1.0], [1.0, 0.0]], dtype=np.float32)),
        ([np.complex64(1j), np.float64(-0.0), np.int64(0), 0j], [[np.complex64(1j), 0], [np.float64(-0.0), np.int64(1)]]),
    ],
    ids=["ints", "fractions-and-signed-zero", "float32", "numpy-scalars"],
)
def test_entries_keep_the_bits_numpy_gave_them(amps, rows):
    # each entry converts to the complex that np.array(..., dtype=complex128) made of it
    assert _bits(TwoPhotonState(amps).amps.tolist()) == _bits(np.array(amps, dtype=np.complex128).reshape(4).tolist())
    assert _bits(JonesMatrix(rows).m.reshape(4).tolist()) == _bits(np.array(rows, dtype=np.complex128).reshape(4).tolist())


def test_hwp_rejects_non_finite_angle():
    with pytest.raises(ValueError):
        hwp_jones(math.inf)


@pytest.mark.parametrize("value", NOT_ANGLES + [math.nan, np.float64(-math.inf)], ids=repr)
def test_hwp_rejects_non_angles(value):
    # True used to pass as 1 rad
    with pytest.raises(ValueError):
        hwp_jones(value)


@pytest.mark.parametrize("value, angle", [(np.float32(0.3), float(np.float32(0.3))), (np.int64(1), 1.0)], ids=repr)
def test_hwp_accepts_numpy_reals(value, angle):
    # np.float32 used to be rejected as "must be finite"
    assert hwp_jones(value).m.tolist() == hwp_jones(angle).m.tolist()


def test_plate_on_channel_a_gives_correlated_pair():
    got = swapped_pair().amps
    want = np.array([INV_SQRT2, 0.0, 0.0, INV_SQRT2])
    assert np.max(np.abs(got - want)) < 1e-12


def test_identity_element_leaves_state_alone():
    state = make_anticorrelated_pair()
    out = apply_element(state, Channel.A, JonesMatrix(np.eye(2)))
    np.testing.assert_array_equal(out.amps, state.amps)


def test_plate_twice_restores_state_up_to_phase():
    plate = hwp_jones(math.pi / 4)
    state = make_anticorrelated_pair()
    twice = apply_element(apply_element(state, Channel.A, plate), Channel.A, plate)
    assert states_equal_up_to_phase(twice, state, 1e-12)


def test_apply_element_channel_b_acts_on_second_slot():
    state = product_state([1.0, 0.0], [1.0, 0.0])
    out = apply_element(state, Channel.B, hwp_jones(math.pi / 4))
    np.testing.assert_allclose(out.amps, [0.0, 1.0, 0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize(
    "call",
    [
        lambda state: apply_element(state, None, hwp_jones(0.3)),
        lambda state: marginal(state, "A", 0.2),
        lambda state: measure_channel(state, "B", 0.2, 0.5),
        lambda state: project_channel(state, Channel.A, 0.2, "X"),
        lambda state: project_channel(state, Channel.B, 0.2, None),
    ],
    ids=["apply_element", "marginal", "measure_channel", "project_channel", "project_channel-None"],
)
def test_a_channel_or_outcome_of_another_type_is_rejected(call):
    # any channel but Channel.A or Channel.B, and any outcome but a PolAxis,
    # raises instead of being read as B or Y
    with pytest.raises(ValueError, match=r"^(channel must be Channel\.A or Channel\.B|outcome must be PolAxis)"):
        call(make_anticorrelated_pair())


def test_apply_element_preserves_norm_randomly():
    rng = np.random.default_rng(11)
    for _ in range(200):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = TwoPhotonState(raw / np.linalg.norm(raw))
        theta = float(rng.uniform(-4, 4))
        ch = Channel.A if rng.integers(2) else Channel.B
        out = apply_element(state, ch, hwp_jones(theta))
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12


# ---------------------------------------------------------------- analyzers

def _registers(setting, x_axis, y_axis) -> bool:
    """Whether the analyzer at ``setting`` answers X for certain on ``x_axis``, and Y on ``y_axis``, on both channels."""
    return all(
        marginal(product_state(axis, [1.0, 0.0]), Channel.A, setting) == want
        and marginal(product_state([0.0, 1.0], axis), Channel.B, setting) == want
        for axis, want in ((x_axis, (1.0, 0.0)), (y_axis, (0.0, 1.0)))
    )


def test_analyzer_basis_examples():
    assert _registers(0.0, [1.0, 0.0], [0.0, 1.0])
    assert _registers(math.pi / 2, [0.0, 1.0], [-1.0, 0.0])
    assert _registers(math.pi / 4, [INV_SQRT2, INV_SQRT2], [-INV_SQRT2, INV_SQRT2])
    assert not _registers(math.pi / 4, [1.0, 0.0], [0.0, 1.0])


@pytest.mark.parametrize("alpha", np.linspace(0.0, math.pi, 17))
def test_analyzer_basis_orthonormal(alpha):
    # the analyzer measures in the orthonormal basis (cos a, sin a), (-sin a, cos a)
    # of the setting reduced mod pi: each axis is answered for certain
    a = reduce_mod_pi(float(alpha))
    x_axis, y_axis = [math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]
    assert abs(np.vdot(x_axis, y_axis)) < 1e-15
    assert _registers(float(alpha), x_axis, y_axis)
    assert _registers(AnalyzerSetting(float(alpha) + math.pi), x_axis, y_axis)


# ---------------------------------------------------------------- probabilities

def test_joint_probabilities_examples():
    np.testing.assert_allclose(
        joint_probabilities(swapped_pair(), 0.0, 0.0).p, [0.5, 0.0, 0.0, 0.5], atol=1e-15
    )
    np.testing.assert_allclose(
        joint_probabilities(swapped_pair(), 0.0, math.pi / 4).p,
        [0.25, 0.25, 0.25, 0.25],
        atol=1e-12,
    )


def test_joint_probabilities_sum_to_one_randomly():
    rng = np.random.default_rng(5)
    for _ in range(300):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = TwoPhotonState(raw / np.linalg.norm(raw))
        table = joint_probabilities(state, float(rng.uniform(0, 4)), float(rng.uniform(0, 4)))
        assert abs(float(np.sum(table.p)) - 1.0) < 1e-12
        assert np.all(table.p >= 0.0)


def test_marginal_examples():
    for alpha in (0.0, 0.3, 1.1):
        p_x, p_y = marginal(swapped_pair(), Channel.A, alpha)
        assert abs(p_x - 0.5) < 1e-12 and abs(p_y - 0.5) < 1e-12
    p_x, p_y = marginal(product_state([1.0, 0.0], [0.0, 1.0]), Channel.A, 0.0)
    assert abs(p_x - 1.0) < 1e-12 and abs(p_y) < 1e-12
    p_x, p_y = marginal(make_anticorrelated_pair(), Channel.B, math.pi / 3)
    assert abs(p_x - 0.5) < 1e-12 and abs(p_y - 0.5) < 1e-12


def test_no_signaling_analytic_marginals():
    state = swapped_pair()
    rng = np.random.default_rng(17)
    alpha = 0.7
    base = marginal(state, Channel.A, alpha)
    for beta in rng.uniform(0.0, math.pi, size=100):
        # channel-a marginal must not depend on the remote setting at all
        probs = joint_probabilities(state, alpha, float(beta)).p
        p_x = float(probs[XX] + probs[XY])
        assert abs(p_x - base[0]) < 1e-12


def _joint_row_sums(state, channel, setting):
    """marginal's expected bits: the joint table at a remote setting of 0, summed, then snapped."""
    if channel is Channel.A:
        p = joint_probabilities(state, setting, 0.0).p
        p_x, p_y = float(p[XX] + p[XY]), float(p[YX] + p[YY])
    else:
        p = joint_probabilities(state, 0.0, setting).p
        p_x, p_y = float(p[XX] + p[YX]), float(p[XY] + p[YY])
    if min(p_x, p_y) < quantum._RESIDUE:
        return (1.0, 0.0) if p_x > p_y else (0.0, 1.0)
    return p_x, p_y


def _plan_states(rng, settings):
    """States a branch plan meets: the source, behind the plate, collapsed, and plated after collapse."""
    source = make_anticorrelated_pair()
    yield source
    for plate_angle in settings:
        plated = apply_element(source, Channel.A, hwp_jones(plate_angle))
        yield plated
        for state in (source, plated):
            channel = Channel.A if rng.integers(2) else Channel.B
            setting = float(rng.choice(settings))
            for outcome in (PolAxis.X, PolAxis.Y):
                collapsed = project_channel(state, channel, setting, outcome)
                yield collapsed
                yield apply_element(collapsed, Channel.A, hwp_jones(plate_angle))


def test_marginal_is_bitwise_the_joint_row_sums():
    # exact equality: a one-ulp drift in P(X) moves a plan threshold, which a
    # tolerance (or the 1e-12 no-signaling test) would let through
    rng = np.random.default_rng(31)
    lattice = [k * math.pi / 12 for k in range(-12, 25)]
    settings = lattice + [float(x) for x in rng.uniform(-math.pi, 2 * math.pi, size=40)]
    states = list(_plan_states(rng, settings))
    for _ in range(2_000):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        states.append(TwoPhotonState(raw / np.linalg.norm(raw)))
    assert len(states) > 2_000 + 500
    for state in states:
        for channel in (Channel.A, Channel.B):
            for setting in (float(rng.choice(lattice)), float(rng.uniform(-math.pi, 2 * math.pi))):
                assert marginal(state, channel, setting) == _joint_row_sums(state, channel, setting), (
                    state, channel, setting,
                )


# ---------------------------------------------------------------- collapse

def test_measure_b_outcome_y_collapses_to_yy():
    res = measure_channel(swapped_pair(), Channel.B, 0.0, u=0.9)
    assert res.outcome is PolAxis.Y
    assert abs(res.probability - 0.5) < 1e-12
    yy = product_state([0.0, 1.0], [0.0, 1.0])
    assert states_equal_up_to_phase(res.collapsed, yy, 1e-12)


def test_measure_b_outcome_x_collapses_to_xx():
    res = measure_channel(swapped_pair(), Channel.B, 0.0, u=0.1)
    assert res.outcome is PolAxis.X
    xx = product_state([1.0, 0.0], [1.0, 0.0])
    assert states_equal_up_to_phase(res.collapsed, xx, 1e-12)


def test_remeasuring_collapsed_state_is_certain():
    res = measure_channel(swapped_pair(), Channel.B, 0.0, u=0.9)
    for u in (0.0, 0.3, 0.999):
        again = measure_channel(res.collapsed, Channel.B, 0.0, u=u)
        assert again.outcome is PolAxis.Y
        assert abs(again.probability - 1.0) < 1e-12
    partner = measure_channel(res.collapsed, Channel.A, 0.0, u=0.5)
    assert partner.outcome is PolAxis.Y
    assert abs(partner.probability - 1.0) < 1e-12


def test_threshold_rule_tie_goes_to_y():
    # amplitude 0.5 gives p_x exactly 0.25, so u exactly at the threshold picks Y
    state = TwoPhotonState([0.5, 0.0, math.sqrt(0.75), 0.0])
    assert marginal(state, Channel.A, 0.0)[0] == 0.25
    tie = measure_channel(state, Channel.A, 0.0, u=0.25)
    assert tie.outcome is PolAxis.Y
    below = measure_channel(state, Channel.A, 0.0, u=float(np.nextafter(0.25, 0.0)))
    assert below.outcome is PolAxis.X


def test_measure_rejects_u_outside_unit_interval():
    state = swapped_pair()
    with pytest.raises(ValueError):
        measure_channel(state, Channel.B, 0.0, u=1.0)
    with pytest.raises(ValueError):
        measure_channel(state, Channel.B, 0.0, u=-0.1)


@pytest.mark.parametrize("u", [False, True, np.bool_(False), "0.5", None, 0.5j, math.nan, BEYOND_FLOAT], ids=repr)
def test_measure_rejects_non_draws(u):
    # False used to be taken as the draw 0
    with pytest.raises(ValueError):
        measure_channel(swapped_pair(), Channel.B, 0.0, u=u)


@pytest.mark.parametrize("u", [np.float32(0.25), np.float64(0.75), np.int64(0), 0], ids=repr)
def test_measure_accepts_numpy_real_draws(u):
    got = measure_channel(swapped_pair(), Channel.B, 0.0, u=u)
    want = measure_channel(swapped_pair(), Channel.B, 0.0, u=float(u))
    assert (got.outcome, got.probability) == (want.outcome, want.probability)


def test_collapse_probability_matches_marginal():
    rng = np.random.default_rng(23)
    for _ in range(200):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = TwoPhotonState(raw / np.linalg.norm(raw))
        ch = Channel.A if rng.integers(2) else Channel.B
        setting = float(rng.uniform(0, math.pi))
        u = float(rng.uniform(0, 1))
        res = measure_channel(state, ch, setting, u=u)
        p_x, p_y = marginal(state, ch, setting)
        want = p_x if res.outcome is PolAxis.X else p_y
        assert abs(res.probability - want) < 1e-12
        assert abs(np.linalg.norm(res.collapsed.amps) - 1.0) < 1e-12


def test_law_of_total_probability_both_orders():
    rng = np.random.default_rng(29)
    for _ in range(60):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = TwoPhotonState(raw / np.linalg.norm(raw))
        alpha = float(rng.uniform(0, math.pi))
        beta = float(rng.uniform(0, math.pi))
        table = joint_probabilities(state, alpha, beta).p

        rebuilt_a_first = np.empty(4)
        for i, u_a in enumerate((0.0, 0.999999999)):
            first = measure_channel(state, Channel.A, alpha, u=u_a)
            p_first = first.probability
            for j, u_b in enumerate((0.0, 0.999999999)):
                second = measure_channel(first.collapsed, Channel.B, beta, u=u_b)
                rebuilt_a_first[2 * i + j] = p_first * second.probability

        rebuilt_b_first = np.empty(4)
        for j, u_b in enumerate((0.0, 0.999999999)):
            first = measure_channel(state, Channel.B, beta, u=u_b)
            p_first = first.probability
            for i, u_a in enumerate((0.0, 0.999999999)):
                second = measure_channel(first.collapsed, Channel.A, alpha, u=u_a)
                rebuilt_b_first[2 * i + j] = p_first * second.probability

        np.testing.assert_allclose(rebuilt_a_first, table, atol=1e-12)
        np.testing.assert_allclose(rebuilt_b_first, table, atol=1e-12)


# ---------------------------------------------------------------- correlators

def test_correlation_examples():
    assert abs(correlation_E(swapped_pair(), 0.7, 0.7) - 1.0) < 1e-12
    assert abs(correlation_E(make_anticorrelated_pair(), 0.0, 0.0) + 1.0) < 1e-12
    got = correlation_E(swapped_pair(), math.pi / 8, 0.0)
    assert abs(got - INV_SQRT2) < 1e-12


def test_closed_form_correlators_on_grid():
    plate_state = swapped_pair()
    pair_state = make_anticorrelated_pair()
    angles = np.linspace(0.0, math.pi, 50)
    worst = 0.0
    for a in angles:
        for b in angles:
            e2 = correlation_E(plate_state, float(a), float(b))
            e1 = correlation_E(pair_state, float(a), float(b))
            worst = max(worst, abs(e2 - math.cos(2 * (a - b))))
            worst = max(worst, abs(e1 + math.cos(2 * (a + b))))
    assert worst < 1e-12


def test_states_equal_up_to_phase():
    psi = make_anticorrelated_pair()
    assert states_equal_up_to_phase(psi, psi, 1e-12)
    minus = TwoPhotonState(-psi.amps)
    assert states_equal_up_to_phase(psi, minus, 1e-12)
    phase = TwoPhotonState(psi.amps * np.exp(1j * 0.8))
    assert states_equal_up_to_phase(psi, phase, 1e-12)
    assert not states_equal_up_to_phase(psi, swapped_pair(), 1e-12)


# ---------------------------------------------------------------- no matrix library

def test_scalar_algebra_matches_matrix_products_on_complex_inputs():
    # the plan path only meets real amplitudes; this covers complex states and
    # complex unitaries too, against numpy's matrix products.  The sums are the
    # same but their rounding may differ, hence a tolerance of a few ulps
    rng = np.random.default_rng(41)
    for _ in range(300):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = TwoPhotonState(raw / np.linalg.norm(raw))
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        unitary = q * (np.diag(r) / np.abs(np.diag(r)))
        channel = Channel.A if rng.integers(2) else Channel.B
        alpha, beta = (float(x) for x in rng.uniform(-4, 4, size=2))
        np.testing.assert_allclose(
            apply_element(state, channel, unitary).amps,
            matrix_apply(state.amps, channel, unitary),
            rtol=0,
            atol=1e-15,
        )
        np.testing.assert_allclose(
            joint_probabilities(state, alpha, beta).p, matrix_joint(state.amps, alpha, beta), rtol=0, atol=1e-15
        )
        for outcome in (PolAxis.X, PolAxis.Y):
            if marginal(state, channel, alpha)[0 if outcome is PolAxis.X else 1] > 1e-3:
                np.testing.assert_allclose(
                    project_channel(state, channel, alpha, outcome).amps,
                    matrix_project(state.amps, channel, alpha, outcome),
                    rtol=0,
                    atol=1e-14,
                )


# ---------------------------------------------------------------- bit identity
# The one-photon algebra as the entry-by-entry formulas it replaced, one per
# function and channel.  Each qm draw threshold is compiled from these bits,
# so the package must reproduce them exactly, signed zeros included.


def _reference_basis(setting):
    c, s = math.cos(setting.angle), math.sin(setting.angle)
    return complex(c), complex(s), complex(-s)


def _reference_apply(values, channel, rows):
    (j00, j01), (j10, j11) = rows
    xx, xy, yx, yy = values
    if channel is Channel.A:
        return j00 * xx + j01 * yx, j00 * xy + j01 * yy, j10 * xx + j11 * yx, j10 * xy + j11 * yy
    return xx * j00 + xy * j01, xx * j10 + xy * j11, yx * j00 + yy * j01, yx * j10 + yy * j11


def _reference_rows(values, channel, setting):
    c, s, minus_s = _reference_basis(setting)
    xx, xy, yx, yy = values
    if channel is Channel.A:
        return c * xx + s * yx, c * xy + s * yy, minus_s * xx + c * yx, minus_s * xy + c * yy
    return c * xx + s * xy, c * yx + s * yy, minus_s * xx + c * xy, minus_s * yx + c * yy


def _reference_marginal(values, channel, setting):
    x0, x1, y0, y1 = _reference_rows(values, channel, setting)
    p_x = (x0.real * x0.real + x0.imag * x0.imag) + (x1.real * x1.real + x1.imag * x1.imag)
    p_y = (y0.real * y0.real + y0.imag * y0.imag) + (y1.real * y1.real + y1.imag * y1.imag)
    if min(p_x, p_y) < quantum._RESIDUE:
        return (1.0, 0.0) if p_x > p_y else (0.0, 1.0)
    return p_x, p_y


def _reference_joint(values, alpha, beta):
    r0, r1, r2, r3 = _reference_rows(values, Channel.A, alpha)
    c, s, minus_s = _reference_basis(beta)
    t = (r0 * c + r1 * s, r0 * minus_s + r1 * c, r2 * c + r3 * s, r2 * minus_s + r3 * c)
    return [z.real * z.real + z.imag * z.imag for z in t]


def _reference_project(values, channel, setting, outcome):
    c, s, minus_s = _reference_basis(setting)
    v0, v1 = (c, s) if outcome is PolAxis.X else (minus_s, c)
    xx, xy, yx, yy = values
    if channel is Channel.A:
        w0, w1 = v0 * xx + v1 * yx, v0 * xy + v1 * yy
        proj = (v0 * w0, v0 * w1, v1 * w0, v1 * w1)
    else:
        w0, w1 = xx * v0 + xy * v1, yx * v0 + yy * v1
        proj = (w0 * v0, w0 * v1, w1 * v0, w1 * v1)
    total = 0.0
    for z in proj:
        total += z.real * z.real + z.imag * z.imag
    nrm = complex(math.sqrt(total))
    if nrm == 0.0:
        return None
    return tuple(z / nrm for z in proj)


def _bits(values) -> list:
    """Each real and imaginary part as ``float.hex``, so -0.0 and 0.0 differ."""
    return [(float(complex(z).real).hex(), float(complex(z).imag).hex()) for z in values]


def _assert_same_bits_as_the_reference(state, channel, setting, beta, element):
    values = tuple(state.amps.tolist())
    assert _bits(apply_element(state, channel, element).amps.tolist()) == _bits(
        _reference_apply(values, channel, element.m.tolist())
    )
    assert _bits(marginal(state, channel, setting)) == _bits(_reference_marginal(values, channel, setting))
    assert _bits(joint_probabilities(state, setting, beta).p.tolist()) == _bits(
        _reference_joint(values, setting, beta)
    )
    # one detection's P(X), P(Y) and both states after it, from one set of analyzer rows
    p_x, p_y, *after = quantum._detection(state, channel, setting, tuple(PolAxis))
    assert _bits((p_x, p_y)) == _bits(_reference_marginal(values, channel, setting))
    for outcome, got in zip(PolAxis, after):
        want = _reference_project(values, channel, setting, outcome)
        if want is None:
            assert got is None
            with pytest.raises(ValueError, match="degenerate projection"):
                project_channel(state, channel, setting, outcome)
        else:
            assert _bits(got.amps.tolist()) == _bits(want)
            assert _bits(project_channel(state, channel, setting, outcome).amps.tolist()) == _bits(want)


def _random_setting(rng) -> AnalyzerSetting:
    """A lattice angle (a multiple of pi/8, where cos and sin meet exact zeros and ones) or a random one."""
    if rng.integers(2):
        return AnalyzerSetting(float(rng.integers(-8, 17)) * math.pi / 8)
    return AnalyzerSetting(float(rng.uniform(-4.0, 4.0)))


def _plan_path_state(rng) -> TwoPhotonState:
    """A real state as the plan meets one: the source pair, turned by a plate and collapsed, or drawn.

    A drawn state has about a third of its amplitudes at +0.0 or -0.0.
    """
    if rng.integers(2):
        raw = rng.normal(size=4) * (rng.uniform(size=4) > 0.35)
        if not raw.any():
            raw[rng.integers(4)] = 1.0
        return TwoPhotonState(np.where(raw == 0.0, rng.choice([0.0, -0.0], size=4), raw / np.linalg.norm(raw)))
    state = make_anticorrelated_pair()
    if rng.integers(2):
        state = apply_element(state, Channel.A, hwp_jones(float(_random_setting(rng).angle)))
    channel, outcome = rng.choice(list(Channel)), rng.choice(list(PolAxis))
    setting = _random_setting(rng)
    if rng.integers(2) and marginal(state, channel, setting)[0 if outcome is PolAxis.X else 1] > 0.0:
        state = project_channel(state, channel, setting, outcome)
    return state


def test_one_photon_algebra_keeps_its_bits_on_plan_path_values():
    # real states, analyzer settings and half-wave plates: the values every qm plan meets
    rng = np.random.default_rng(30)
    for _ in range(400):
        channel = Channel.A if rng.integers(2) else Channel.B
        plate = hwp_jones(float(_random_setting(rng).angle))
        state, alpha, beta = _plan_path_state(rng), _random_setting(rng), _random_setting(rng)
        _assert_same_bits_as_the_reference(state, channel, alpha, beta, plate)


def test_one_photon_algebra_keeps_its_bits_on_complex_values():
    # complex states and unitary Jones matrices.  On channel B the package
    # multiplies a complex plate entry by an amplitude where the formula above
    # multiplies the other way round; the two orders give the same bits where
    # the interpreter's complex product is compiled without fused
    # multiply-adds, so the cross-CPU CI job runs only the plan-path test,
    # whose products all have a real factor
    rng = np.random.default_rng(31)
    for _ in range(400):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = TwoPhotonState(raw / np.linalg.norm(raw))
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        unitary = JonesMatrix(q * (np.diag(r) / np.abs(np.diag(r))))
        channel = Channel.A if rng.integers(2) else Channel.B
        _assert_same_bits_as_the_reference(state, channel, _random_setting(rng), _random_setting(rng), unitary)


def test_quantum_algebra_has_no_matrix_products():
    # the plan's probabilities must be plain scalar arithmetic: no @ and no call
    # that numpy may hand to BLAS.  Patching np.matmul to raise would prove
    # nothing, because ``a @ b`` reaches ndarray.__matmul__ without it
    tree = ast.parse(inspect.getsource(quantum))
    matmuls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.MatMult)]
    banned = {"outer", "vdot", "dot", "inner", "einsum", "linalg", "matmul", "tensordot", "kron"}
    calls = [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in banned
    ]
    assert matmuls == [] and calls == []
