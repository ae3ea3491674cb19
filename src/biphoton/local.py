"""Local models of the photon pair, and CHSH evaluation for any correlator.

Two contrast models are implemented:

* the "naive" model: a photon carries no polarization at all until the
  moment it is measured.  A half-wave plate cannot act on such a photon.
  The first measurement of the pair yields X with probability 1/2 and
  instantaneously paints the orthogonal definite polarization onto the
  partner; a definite photon answers analyzers deterministically by the
  sign rule below.  These are quantum collapse's two rules, P(X) at one
  analyzer and the pair after a detection, made local, and the engine
  compiles both models through them alike: its naive detection is
  ``naive_p_x`` with ``naive_partner`` for each outcome, as its quantum
  one is P(X) and both collapsed states from one evaluation of the
  analyzer.  This model's prediction
  depends on the order of bench events, which is the point of the order
  test.

* the "lhv-sign" model: each pair leaves the source with a shared hidden
  angle lambda in [0, pi).  Photon A carries lambda and photon B carries
  lambda turned by the plate rule, ``naive_plate_action`` (lambda + pi/2
  mod pi, matching the anti-correlated source), and every analyzer answer
  is the deterministic sign of cos 2(setting - angle).  It reproduces
  perfect correlations at aligned settings yet can never exceed the CHSH
  bound of 2.

A local photon is a plain angle in [0, pi), or None while it has no
polarization; every rule that makes an angle reduces it mod pi.  The
rules name the outcomes ``_X`` and ``_Y``, ``quantum``'s module names for
``PolAxis.X`` and ``PolAxis.Y``, because every plan calls them many times
and a module name is read several times faster than an enum member.

Sign rule: outcome X iff the folded angular distance between setting and
hidden angle is <= pi/4, which is the sign of cos 2(setting - angle) with
the tie resolved toward X.  The folded form uses no trig, so the scalar
and vectorized paths agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .quantum import _X, _Y, ATOL, AnalyzerSetting, PolAxis, as_setting, reduce_mod_pi

_HALF_PI = math.pi / 2.0
_QUARTER_PI = math.pi / 4.0


def fold_distance(delta: float) -> float:
    """Angular distance of ``delta`` from 0 mod pi, folded into [0, pi/2]."""
    d = reduce_mod_pi(delta)
    return min(d, math.pi - d)


def lhv_sample(u: float) -> float:
    """Hidden angle lambda = u * pi shared by a pair at the source, in [0, pi) for u in [0, 1)."""
    return u * math.pi


def lhv_outcome(lam: float, setting: "AnalyzerSetting | float") -> PolAxis:
    """Deterministic analyzer answer: X iff cos 2(setting - lambda) >= 0."""
    d = fold_distance(as_setting(setting).angle - lam)
    return _X if d <= _QUARTER_PI else _Y


def naive_plate_action(photon: Optional[float]) -> Optional[float]:
    """Half-wave plate acting on a local-model photon.

    A definite polarization plane is turned by pi/2 whatever the plate's
    fast-axis angle, so ``plate_angle`` reaches only the quantum model; a
    photon with no polarization yet (None) offers the plate nothing to act
    on and passes unchanged.  Both local models share this rule.
    """
    if photon is None:
        return None
    return reduce_mod_pi(photon + _HALF_PI)


def naive_p_x(photon: Optional[float], setting: "AnalyzerSetting | float") -> float:
    """P(X) of a naive-model photon: 1/2 while unpolarized, else 1 or 0 by the sign rule."""
    if photon is None:
        return 0.5
    return float(lhv_outcome(photon, setting) is _X)


def naive_partner(setting: "AnalyzerSetting | float", outcome: PolAxis) -> float:
    """The angle an unpolarized photon's detection paints onto its partner.

    The partner becomes definite, orthogonal to the axis the analyzer at
    ``setting`` registered for ``outcome``.  An outcome that is not a
    ``PolAxis`` raises ValueError.
    """
    if outcome is not _X and outcome is not _Y:
        raise ValueError(f"outcome must be PolAxis.X or PolAxis.Y, got {outcome!r}")
    angle = as_setting(setting).angle
    registered_axis = angle if outcome is _X else angle + _HALF_PI
    return reduce_mod_pi(registered_axis + _HALF_PI)


def lhv_sign_correlator(plate_present: bool) -> Callable[..., float]:
    """Closed-form correlator of the lhv-sign model.

    Without the plate the model is anti-correlated: E = -(1 - 4 d / pi)
    with d the folded distance between the settings.  The plate rotates
    photon A's hidden angle by pi/2, flipping the sign.
    """
    sign = 1.0 if plate_present else -1.0

    def correlator(alpha, beta) -> float:
        d = fold_distance(as_setting(alpha).angle - as_setting(beta).angle)
        return sign * (1.0 - 4.0 * d / math.pi)

    return correlator


@dataclass(frozen=True)
class ChshAngles:
    """The four analyzer settings of a CHSH run: a, a' on channel A; b, b' on B."""

    a: AnalyzerSetting
    a_prime: AnalyzerSetting
    b: AnalyzerSetting
    b_prime: AnalyzerSetting

    def __post_init__(self):
        for name in ("a", "a_prime", "b", "b_prime"):
            object.__setattr__(self, name, as_setting(getattr(self, name)))

    def pairs(self) -> tuple[tuple[AnalyzerSetting, AnalyzerSetting], ...]:
        """Setting pairs in report order: (a,b), (a,b'), (a',b), (a',b')."""
        return (
            (self.a, self.b),
            (self.a, self.b_prime),
            (self.a_prime, self.b),
            (self.a_prime, self.b_prime),
        )


#: maximally violating settings for the plate (correlated) source
CANONICAL_CHSH_ANGLES = ChshAngles(0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0)


@dataclass(frozen=True)
class ChshReport:
    """The four correlators and S = |E_ab - E_ab' + E_a'b + E_a'b'|.

    Standard errors are zero for analytic evaluation and the plug-in
    estimates for Monte Carlo runs.  Sign convention: the minus sits on
    the (a, b') term.
    """

    e_ab: float
    e_abp: float
    e_apb: float
    e_apbp: float
    se_ab: float = 0.0
    se_abp: float = 0.0
    se_apb: float = 0.0
    se_apbp: float = 0.0

    @property
    def s(self) -> float:
        return abs(self.e_ab - self.e_abp + self.e_apb + self.e_apbp)

    @property
    def stderr_total(self) -> float:
        return math.sqrt(self.se_ab**2 + self.se_abp**2 + self.se_apb**2 + self.se_apbp**2)

    def violates_classical_bound(self) -> bool:
        """Whether S clears the local bound of 2 by three standard errors."""
        return self.s - 3.0 * self.stderr_total > 2.0


def chsh_S(correlator: Callable[..., float], angles: ChshAngles) -> ChshReport:
    """Evaluate a correlator function at the four CHSH setting pairs.

    ``correlator(alpha, beta)`` must return a value in [-1, 1]; anything
    else is rejected as an invalid model.
    """
    terms = []
    for alpha, beta in angles.pairs():
        e = float(correlator(alpha, beta))
        if not (math.isfinite(e) and abs(e) <= 1.0 + ATOL):
            raise ValueError(f"correlator returned {e!r}, outside [-1, 1]")
        terms.append(e)
    return ChshReport(*terms)
