"""Optical bench geometry, event timeline ordering, config round-trips."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from biphoton import cli
from biphoton.engine import (
    MODEL_NAMES,
    SPEED_OF_LIGHT,
    BenchEvent,
    OpticalBench,
    build_timeline,
    detect_b_before_plate,
    run_trial,
)
from biphoton.quantum import AnalyzerSetting

ORDER = {e: i for i, e in enumerate([BenchEvent.PLATE_A, BenchEvent.DETECT_B, BenchEvent.DETECT_A])}


def order(bench):
    return tuple(ev.event for ev in build_timeline(bench))


def time_of(bench, event):
    (t,) = [ev.time for ev in build_timeline(bench) if ev.event is event]
    return t


def trial_flags(bench):
    """The ordering flag of a replayed trial under every model."""
    return {run_trial(model, bench, 0, 0).b_before_plate for model in MODEL_NAMES}


def test_speed_of_light_is_exact():
    assert SPEED_OF_LIGHT == 299_792_458.0


def test_one_meter_flight_time():
    bench = OpticalBench(d_prism_b=1.0)
    assert time_of(bench, BenchEvent.DETECT_B) == 3.3356409519815204e-9


def test_order_plate_before_detect_b():
    bench = OpticalBench(d_plate_a=1.0, d_prism_a=3.0, d_prism_b=2.0)
    assert order(bench) == (
        BenchEvent.PLATE_A,
        BenchEvent.DETECT_B,
        BenchEvent.DETECT_A,
    )
    assert not detect_b_before_plate(bench)
    assert trial_flags(bench) == {False}


def test_order_detect_b_before_plate():
    bench = OpticalBench(d_plate_a=2.0, d_prism_a=3.0, d_prism_b=1.0)
    assert order(bench) == (
        BenchEvent.DETECT_B,
        BenchEvent.PLATE_A,
        BenchEvent.DETECT_A,
    )
    assert detect_b_before_plate(bench)
    assert trial_flags(bench) == {True}


def test_times_are_distance_over_c():
    bench = OpticalBench(d_plate_a=0.5, d_prism_a=1.5, d_prism_b=0.25)
    assert time_of(bench, BenchEvent.PLATE_A) == 0.5 / SPEED_OF_LIGHT
    assert time_of(bench, BenchEvent.DETECT_A) == 1.5 / SPEED_OF_LIGHT
    assert time_of(bench, BenchEvent.DETECT_B) == 0.25 / SPEED_OF_LIGHT
    times = [t for t, _ in build_timeline(bench)]
    assert times == sorted(times)


def test_tie_break_uses_fixed_event_order():
    bench = OpticalBench(d_plate_a=1.0, d_prism_a=1.0, d_prism_b=1.0)
    events = order(bench)
    assert events == (BenchEvent.PLATE_A, BenchEvent.DETECT_B, BenchEvent.DETECT_A)
    assert [ORDER[e] for e in events] == sorted(ORDER[e] for e in events)
    # the plate wins its tie with B, so B is not before the plate
    assert not detect_b_before_plate(bench)
    assert trial_flags(bench) == {False}
    # B tied with the plate alone, A's prism farther out
    bench = OpticalBench(d_plate_a=1.0, d_prism_a=2.0, d_prism_b=1.0)
    assert order(bench) == (BenchEvent.PLATE_A, BenchEvent.DETECT_B, BenchEvent.DETECT_A)
    assert not detect_b_before_plate(bench)
    assert trial_flags(bench) == {False}


def test_no_plate_bench_has_two_events():
    bench = OpticalBench(plate_present=False)
    events = order(bench)
    assert BenchEvent.PLATE_A not in events
    assert set(events) == {BenchEvent.DETECT_A, BenchEvent.DETECT_B}
    assert not detect_b_before_plate(bench)
    assert trial_flags(bench) == {False}


def test_zero_distances_are_allowed():
    bench = OpticalBench(d_plate_a=0.0, d_prism_a=0.0, d_prism_b=0.0)
    assert order(bench) == (
        BenchEvent.PLATE_A,
        BenchEvent.DETECT_B,
        BenchEvent.DETECT_A,
    )


def test_rejects_negative_distance():
    with pytest.raises(ValueError):
        OpticalBench(d_prism_b=-0.5)


@pytest.mark.parametrize("flag", ["false", "", 0, 1, None])
def test_rejects_non_bool_plate_flag(flag):
    # bool("false") is True: coercing would build a bench with a plate
    with pytest.raises(ValueError):
        OpticalBench(plate_present=flag)


def test_accepts_numpy_bool_plate_flag():
    bench = OpticalBench(plate_present=np.bool_(False))
    assert bench.plate_present is False


@pytest.mark.parametrize("field", ["d_plate_a", "d_prism_a", "d_prism_b", "alpha", "beta", "plate_angle"])
def test_rejects_bool_numbers(field):
    # True would otherwise become 1.0 m or 1.0 rad; an int beyond float range is no number either
    for value in (True, 10**400):
        with pytest.raises(ValueError):
            OpticalBench(**{field: value})


@pytest.mark.parametrize("value", [np.float32(0.25), np.int64(1), Fraction(1, 3)], ids=repr)
@pytest.mark.parametrize("field", ["d_plate_a", "d_prism_a", "d_prism_b", "plate_angle"])
def test_accepts_any_real_number(field, value):
    # as alpha and beta do; the plate is left out so that every distance fits
    bench = OpticalBench(**{field: value}, plate_present=False)
    assert getattr(bench, field) == float(value) and type(getattr(bench, field)) is float


def test_rejects_non_finite_distance():
    with pytest.raises(ValueError):
        OpticalBench(d_prism_a=math.inf)


def test_rejects_plate_beyond_prism():
    with pytest.raises(ValueError):
        OpticalBench(d_plate_a=2.0, d_prism_a=1.0)
    # fine when the plate is absent: the plate distance is ignored
    bench = OpticalBench(d_plate_a=2.0, d_prism_a=1.0, plate_present=False)
    assert not bench.plate_present


def test_angles_coerced_to_settings():
    bench = OpticalBench(alpha=math.pi + 0.25, beta=-0.1)
    assert abs(bench.alpha.angle - 0.25) < 1e-12
    assert abs(bench.beta.angle - (math.pi - 0.1)) < 1e-12


def test_values_that_need_no_conversion_are_kept():
    # checking stores a field again only when it converted the value
    alpha, beta, distance, angle = AnalyzerSetting(0.3), AnalyzerSetting(1.1), 0.75, 0.2
    bench = OpticalBench(alpha=alpha, beta=beta, d_prism_b=distance, plate_angle=angle)
    assert bench.alpha is alpha and bench.beta is beta
    assert bench.d_prism_b is distance and bench.plate_angle is angle


def test_config_round_trip():
    bench = OpticalBench(
        d_plate_a=0.3,
        d_prism_a=2.5,
        d_prism_b=0.75,
        alpha=0.2,
        beta=1.1,
        plate_present=False,
        plate_angle=math.pi / 8,
    )
    doc = cli._bench_doc(bench)
    assert list(doc) == [
        "d_plate_a_m",
        "d_prism_a_m",
        "d_prism_b_m",
        "alpha_deg",
        "beta_deg",
        "plate_present",
        "plate_angle_deg",
    ]
    back = cli._bench(doc)
    assert back.d_plate_a == bench.d_plate_a
    assert back.d_prism_a == bench.d_prism_a
    assert back.d_prism_b == bench.d_prism_b
    assert back.plate_present is False
    assert abs(back.alpha.angle - bench.alpha.angle) < 1e-12
    assert abs(back.beta.angle - bench.beta.angle) < 1e-12
    assert abs(back.plate_angle - bench.plate_angle) < 1e-12


def test_from_config_accepts_partial_keys():
    bench = cli._bench({"d_prism_b_m": 0.25, "beta_deg": 22.5})
    assert bench.d_prism_b == 0.25
    assert abs(bench.beta.angle - math.pi / 8) < 1e-12
    assert bench.d_plate_a == 0.5  # untouched default


def test_from_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match=r"unknown bench config keys: \['weird'\]"):
        cli._bench({"d_prism_b_m": 0.25, "weird": 1})


def test_from_config_rejects_bad_values():
    with pytest.raises(ValueError):
        cli._bench({"d_prism_b_m": "far"})
    with pytest.raises(ValueError):
        cli._bench({"plate_present": "yes"})
    with pytest.raises(ValueError):
        cli._bench({"alpha_deg": math.nan})
    for key in ("d_plate_a_m", "d_prism_a_m", "d_prism_b_m", "alpha_deg", "beta_deg", "plate_angle_deg"):
        with pytest.raises(ValueError, match=key):
            cli._bench({key: 10**400})


def test_bench_is_immutable():
    bench = OpticalBench()
    with pytest.raises(dataclasses.FrozenInstanceError):
        bench.d_prism_b = 9.0
