"""The C library's ``cos`` and ``sin`` round correctly at every angle behind the goldens.

``quantum`` takes every analyzer and plate coefficient from ``math.cos``
and ``math.sin``, so the golden files and the pinned qm thresholds hold
on another machine only if its libm returns the same doubles there.  This
test records each argument ``quantum`` passes to them while the golden
outputs (every ``cli.main`` case and every demo, in-process) and the
pinned qm plans are produced, and checks each result against the
correctly rounded value of a stdlib ``decimal`` evaluation.  On a libm
that rounds one of them differently, the failure names the function and
the angle instead of showing a golden diff.
"""

import decimal
import math
from decimal import Decimal

import pytest

from biphoton import engine, quantum
from test_engine import PINNED_QM_PLANS
from test_golden import CASES, DEMOS, _demo_stdout, _stdout

#: significant digits of the reference's working precision, beyond the
#: integer digits of the argument, which its reduction mod 2 pi spends
DIGITS = 80

#: distinct (function, argument) evaluations: 38 behind the goldens and 22
#: behind the pinned plans, 16 of them shared; README "Determinism" states it
EVALUATIONS = 44


def _pi() -> Decimal:
    """Pi at the current precision (the ``decimal`` documentation's recipe)."""
    decimal.getcontext().prec += 2
    lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    decimal.getcontext().prec -= 2
    return +s


def correctly_rounded(name: str, x: float) -> float:
    """``cos(x)`` or ``sin(x)`` rounded once to the nearest double, from a Taylor series in ``decimal``."""
    with decimal.localcontext() as ctx:
        ctx.prec = DIGITS + max(0, math.frexp(x)[1]) * 30103 // 100000
        r = Decimal(x) % (2 * _pi())  # Decimal(x) is x exactly
        term = Decimal(1) if name == "cos" else r
        total, k = term, (0 if name == "cos" else 1)
        while True:
            term = -term * r * r / ((k + 1) * (k + 2))
            k += 2
            if total + term == total:
                return float(total)  # str to float rounds correctly
            total += term


class _RecordingMath:
    """``math`` with every ``cos`` and ``sin`` argument and result recorded, with the run that needed it."""

    def __init__(self):
        self.source = None
        self.results = {}

    def _record(self, name, x):
        result = getattr(math, name)(x)
        self.results.setdefault((name, x), (result, self.source))
        return result

    def cos(self, x):
        return self._record("cos", x)

    def sin(self, x):
        return self._record("sin", x)

    def __getattr__(self, name):
        return getattr(math, name)


@pytest.fixture
def recorded(monkeypatch):
    recording = _RecordingMath()
    monkeypatch.setattr(quantum, "math", recording)
    # settings made at import (bench defaults, the canonical CHSH angles) may
    # already hold their cos and sin: recompute them on every use instead
    monkeypatch.setattr(quantum.AnalyzerSetting, "_cos_sin", property(quantum.AnalyzerSetting._cos_sin.func))
    for name, argv in CASES.items():
        recording.source = name
        _stdout(argv)
    for demo in DEMOS:
        recording.source = f"demo-{demo.stem}"
        _demo_stdout(demo)
    for name, (bench, _) in PINNED_QM_PLANS.items():
        recording.source = f"test_qm_plan_thresholds_are_pinned[{name}]"
        engine._branch_plan("qm", bench)
    return recording.results


def test_reference_rounds_known_values():
    assert correctly_rounded("cos", 0.0) == 1.0
    assert correctly_rounded("sin", 0.0) == 0.0
    assert correctly_rounded("sin", math.pi) == 1.2246467991473532e-16
    assert correctly_rounded("cos", math.pi / 2) == 6.123233995736766e-17
    assert correctly_rounded("sin", 1e22) == -0.8522008497671888  # a classic reduction test
    assert correctly_rounded("cos", math.pi / 3) == 0.5000000000000001


def test_libm_rounds_every_golden_angle_correctly(recorded):
    wrong = [
        f"{name}({x!r}) = {got!r}, correctly rounded {want!r} (behind {source})"
        for (name, x), (got, source) in sorted(recorded.items())
        if got != (want := correctly_rounded(name, x))
    ]
    assert not wrong, "\n".join(wrong)
    assert len(recorded) == EVALUATIONS, "update EVALUATIONS and README 'Determinism' to the new count"
