"""The README against the package as it stands.

Its library example runs, its export list is ``__all__``, every exported
callable keeps its ``ValueError`` rule for numbers, channels and outcomes,
and its command line section names every bench flag.
"""

import math
import re
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import biphoton
from biphoton import Channel, OpticalBench, apply_element, cli, hwp_jones, make_anticorrelated_pair
from biphoton.engine import EnsembleStats, OrderInvarianceReport
from biphoton.local import ChshAngles, ChshReport
from biphoton.quantum import MeasurementResult, PolAxis, ProbTable

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    e_hat, stderr_e = (float(word) for word in capsys.readouterr().out.split())
    # qm on a plate bench: the outcomes always agree
    assert (e_hat, stderr_e) == (1.0, 0.0)


def test_readme_export_sentence_lists_exactly_all():
    # the public surface cannot grow, or shrink, without the README saying so
    text = " ".join(README.read_text().split())
    listed = re.search(r"The top-level `biphoton` package exports only the names [^:]*:(.*?)\. Everything else", text)
    names = re.findall(r"`([^`]+)`", listed.group(1))
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(biphoton.__all__)


def test_readme_command_line_names_every_bench_flag():
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    named = {flag for code in re.findall(r"`([^`]+)`", prose) for flag in code.split("/")}
    for *_, flag, _ in cli._BENCH_KEYS.values():
        assert flag in named


#: numbers, channels and outcomes at and beyond the edges of the README's
#: rule: signed zeros, subnormals, the largest floats, nan, infinities, ints
#: past 2^64 and float range, bools, None, text, bytes, complex numbers,
#: Fractions and Decimals, numpy scalars and arrays, containers and objects
EDGE_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, math.nan, math.inf, -math.inf,
    0, 1, -1, 3, 2**64, 2**64 + 1, -(2**64), 10**400, True, False, None, "1", "A", "X", b"1",
    1j, complex(0.5, 0.0), Fraction(1, 3), Fraction(10**400), Fraction(-7, 2), Decimal("0.5"), Decimal("nan"),
    np.float64(0.3), np.float32(-0.0), np.float16(0.5), np.float64(math.nan), np.int64(3), np.int8(-1),
    np.uint64(2**64 - 1), np.bool_(True), np.complex128(0.5), np.array(0.5), np.array([0.5]), np.array([0.5, 1.0]),
    {}, {"a": 1}, [], [0.5], object(), Channel.A, Channel.B, PolAxis.X, PolAxis.Y,
)

PAIR = make_anticorrelated_pair()
_EDGE = st.sampled_from(EDGE_VALUES)
_NUMBER = st.one_of(_EDGE, st.floats(-7.0, 7.0))
#: trial counts: the pool without its large integers, so that no call runs long
_TRIALS = st.one_of(
    st.sampled_from([v for v in EDGE_VALUES if not isinstance(v, (int, np.integer)) or abs(int(v)) <= 1000]),
    st.integers(-1, 1000),
)
_SEED = st.one_of(st.integers(-(2**70), 2**70), _EDGE)
_WORKERS = st.one_of(st.integers(1, 3), _EDGE)
_MODEL = st.one_of(st.sampled_from(biphoton.MODEL_NAMES), _EDGE)
_CHANNEL = st.one_of(st.sampled_from(Channel), _EDGE)
#: structured arguments, which the rule does not cover, are valid values
_EARLY, _LATE = OpticalBench(d_prism_b=0.25), OpticalBench()
_BENCH = st.sampled_from([_LATE, _EARLY, OpticalBench(alpha=0.3, plate_present=False)])
_ANGLES = st.builds(ChshAngles, *[st.floats(-7.0, 7.0)] * 4)
_STATE = st.sampled_from([PAIR, apply_element(PAIR, Channel.A, hwp_jones(0.6))])
_ELEMENT = st.one_of(
    st.just(hwp_jones(0.2)), st.lists(st.lists(_NUMBER, min_size=2, max_size=2), min_size=2, max_size=2), _EDGE
)

#: per exported callable, the strategy of its positional arguments
CALLS = {
    "AnalyzerSetting": st.tuples(_NUMBER),
    "Channel": st.tuples(_EDGE),
    "OpticalBench": st.tuples(*[st.one_of(st.just(field.default), _NUMBER) for field in fields(OpticalBench)]),
    "analytic_E": st.tuples(_MODEL, _BENCH),
    "analytic_chsh": st.tuples(_MODEL, _ANGLES, st.one_of(st.booleans(), _EDGE)),
    "apply_element": st.tuples(_STATE, _CHANNEL, _ELEMENT),
    "build_timeline": st.tuples(_BENCH),
    "chsh_experiment": st.tuples(_MODEL, _ANGLES, _TRIALS, _SEED, st.one_of(st.booleans(), _EDGE), _WORKERS),
    "derive_seed": st.tuples(_SEED, _SEED),
    "hwp_jones": st.tuples(_NUMBER),
    "joint_probabilities": st.tuples(_STATE, _NUMBER, _NUMBER),
    "make_anticorrelated_pair": st.tuples(),
    "measure_channel": st.tuples(_STATE, _CHANNEL, _NUMBER, st.one_of(_NUMBER, st.floats(0.0, 1.0))),
    "order_invariance_report": st.tuples(_MODEL, st.just(_EARLY), st.just(_LATE), _TRIALS, _SEED, _WORKERS),
    "run_ensemble": st.tuples(_MODEL, _BENCH, _TRIALS, _SEED, _WORKERS),
}

#: the argument that gives a call's trial count
_TRIALS_AT = {"chsh_experiment": 2, "order_invariance_report": 3, "run_ensemble": 2}


def _assert_keeps_its_invariants(result, n):
    if isinstance(result, ProbTable):
        assert abs(math.fsum(result.p.tolist()) - 1.0) <= 2**-50, result
    elif isinstance(result, EnsembleStats):
        assert result.n == n, (result, n)
    elif isinstance(result, ChshReport):
        assert all(-1.0 <= e <= 1.0 for e in (result.e_ab, result.e_abp, result.e_apb, result.e_apbp)), result
    elif isinstance(result, OrderInvarianceReport):
        assert result.early.n == result.late.n == n, result
        assert all(abs(math.fsum(table) - 1.0) <= 2**-50 for table in (result.analytic_early, result.analytic_late))
    elif isinstance(result, MeasurementResult):
        assert result.outcome in PolAxis and 0.0 <= result.probability <= 1.0, result
    elif isinstance(result, float):
        assert -1.0 <= result <= 1.0, result


def test_generated_calls_cover_every_exported_callable():
    assert sorted(CALLS) == sorted(name for name in biphoton.__all__ if callable(getattr(biphoton, name)))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_generated_library_calls_return_or_raise_value_error(data):
    # README "Library": a number, a channel or an outcome outside the rule raises
    # ValueError, and nothing else; what a call returns keeps its invariants.
    # Each example makes one call of every exported callable
    for name, strategy in CALLS.items():
        args = data.draw(strategy, label=name)
        try:
            result = getattr(biphoton, name)(*args)
        except ValueError:
            continue
        _assert_keeps_its_invariants(result, name in _TRIALS_AT and int(args[_TRIALS_AT[name]]))
