"""Exact polarization algebra for one entangled photon pair.

The joint state of the pair lives on a 4-dimensional complex space, one
polarization qubit per channel.  Amplitudes are stored in the fixed order

    [XX, XY, YX, YY]

where the first letter is the polarization axis of the photon in channel
A and the second the one in channel B.  All operations here are pure
functions on immutable values; randomness enters only through an explicit
``u`` argument, never from internal generator state.

The algebra is written out entry by entry on Python numbers: every 2x2
product, projection and norm is a fixed sequence of scalar operations,
each sum of two terms added left to right.  A 2x2 acting on one photon
of the pair, the plate or an analyzer, is written once, in ``_act``,
which is also the one check that a channel is ``Channel.A`` or
``Channel.B``.  A detection, P(X) and P(Y) at one analyzer and the state
after each outcome, is read from one such product, in ``_detection``,
which ``marginal``, ``project_channel``, ``measure_channel`` and qm's
plan share.  Nothing goes to numpy's
matrix routines or its BLAS, whose kernels may order or fuse the same
sums differently from one CPU to the next, so the probabilities that
qm's plan is compiled from are the result of fixed-order IEEE-754
scalar operations.  On that path every amplitude and coefficient is real
(the source pair, the half-wave plate and the analyzers), so each complex
product is one correctly rounded real product, however the interpreter's
complex multiply was compiled.  ``math.cos`` and ``math.sin`` still come
from the platform's C library.  A state holds its amplitudes, and a
Jones matrix its entries, as Python complex numbers; arrays appear only
at the edges, where ``amps``, ``m`` and ``ProbTable.p`` hand out
read-only numpy values.

Conventions:

* analyzer angles are radians, physics is pi-periodic, so settings are
  reduced mod pi at construction;
* the half-wave-plate Jones matrix uses the real convention (the global
  phase is dropped; physical predictions are phase-invariant);
* sampling threshold: ``u < p_x`` selects X, so a tie at ``u == p_x``
  deterministically selects Y;
* ``_real`` is the one rule for every real argument, here and in
  ``engine``: a finite Python or numpy real, not a bool, or ValueError;
  ``_complex`` is the one rule for every amplitude and Jones entry given
  to ``TwoPhotonState`` or ``JonesMatrix``: a finite Python or numpy
  number, not a bool, or ValueError.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

#: tolerance for exact-algebra checks (normalization, unitarity, probability tables)
ATOL = 1e-12

#: a detection probability below this is a rounding residue of an exact 0:
#: the residues measured on plan-path states stay below 1e-29, while a
#: genuine probability as small as 1e-14 (a plate turned by 2^-24 rad) is kept
_RESIDUE = 2.0**-64

#: amplitude / probability index order
XX, XY, YX, YY = 0, 1, 2, 3


class Channel(enum.Enum):
    A = "A"
    B = "B"


class PolAxis(enum.Enum):
    X = "X"
    Y = "Y"


#: the enum members as module names: Python 3.11 looks ``Channel.A`` up
#: through a descriptor, several times slower than a module name, and every
#: plan reads channels and outcomes many times; ``engine`` names its bench
#: events the same way
_A, _B = Channel.A, Channel.B
_X, _Y = PolAxis.X, PolAxis.Y


def _real(value, what: str) -> float:
    """``value`` as a finite float; a bool, a str and an int beyond float range are not numbers here."""
    if type(value) is float and math.isfinite(value):  # nearly every call: a finite float is kept as it is
        return value
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            if math.isfinite(x := float(value)):
                return x
        except OverflowError:  # an int or a Fraction beyond float range
            pass
    raise ValueError(f"{what} must be a finite real number, got {value!r}")


def _complex(value, what: str) -> complex:
    """``value`` as a finite complex; a bool, a str and a number beyond complex range are not numbers here."""
    if not isinstance(value, bool) and isinstance(value, numbers.Number):
        try:
            if cmath.isfinite(z := complex(value)):
                return z
        except (OverflowError, TypeError, ValueError):  # beyond float range, or a Number that is not complex
            pass
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def reduce_mod_pi(angle: float) -> float:
    """Reduce an angle to the canonical analyzer range [0, pi)."""
    # a CHSH scan makes tens of thousands of calls, nearly all with a
    # float, so only other values pay for the full check of ``_real``
    if type(angle) is not float:
        angle = _real(angle, "angle")
    elif not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    # float % takes the sign of pi, so a zero remainder is +0.0
    r = angle % math.pi
    return 0.0 if r == math.pi else r  # a tiny negative angle rounds up to pi


@dataclass(frozen=True)
class AnalyzerSetting:
    """Analyzer orientation in radians, stored reduced to [0, pi)."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", reduce_mod_pi(_real(self.angle, "analyzer angle in radians")))

    @classmethod
    def from_degrees(cls, degrees: float) -> "AnalyzerSetting":
        return cls(math.radians(_real(degrees, "analyzer angle in degrees")))

    @functools.cached_property
    def _cos_sin(self) -> tuple[complex, complex, complex]:
        """(cos a, sin a, -sin a) of this setting as complex numbers, computed on first use and kept with it."""
        c, s = math.cos(self.angle), math.sin(self.angle)
        return complex(c), complex(s), complex(-s)


def as_setting(setting: "AnalyzerSetting | float") -> AnalyzerSetting:
    if isinstance(setting, AnalyzerSetting):
        return setting
    return AnalyzerSetting(setting)


def _norm2(amps) -> float:
    """Squared norm of a sequence of complex amplitudes, |z|^2 = re^2 + im^2 summed in order."""
    total = 0.0
    for z in amps:
        total += z.real * z.real + z.imag * z.imag
    return total


def _read_only(values, shape) -> np.ndarray:
    a = np.array(values, dtype=np.complex128).reshape(shape)
    a.setflags(write=False)
    return a


class TwoPhotonState:
    """Pure joint polarization state; 4 complex amplitudes, unit norm.

    The state holds its amplitudes as Python complex numbers, copied on
    construction; ``amps`` hands them out as a new read-only array.
    """

    __slots__ = ("_values",)

    def __init__(self, amps):
        amps = np.array(amps, dtype=object).reshape(4).tolist()
        self._values = _unit_amplitudes(tuple(_complex(z, "state amplitude") for z in amps))

    @classmethod
    def _of(cls, values: tuple) -> "TwoPhotonState":
        """The state of four Python complex amplitudes, checked as the constructor checks them."""
        state = cls.__new__(cls)
        state._values = _unit_amplitudes(values)
        return state

    @property
    def amps(self) -> np.ndarray:
        """Amplitudes over [XX, XY, YX, YY] (read-only)."""
        return _read_only(self._values, 4)

    def __repr__(self):
        return f"TwoPhotonState({list(self._values)!r})"


def _unit_amplitudes(values: tuple) -> tuple:
    sq = _norm2(values)
    if not abs(sq - 1.0) <= ATOL:  # also true for a nan sum
        if not all(map(cmath.isfinite, values)):
            raise ValueError("state amplitudes must be finite")
        raise ValueError(f"state not normalized: sum |amps|^2 = {sq!r}")
    return values


class JonesMatrix:
    """A 2x2 unitary acting on one photon's polarization (checked on construction).

    The entries are held as Python complex numbers; ``m`` hands them out as
    a new read-only array.
    """

    __slots__ = ("_rows",)

    def __init__(self, m):
        entries = np.array(m, dtype=object).reshape(4).tolist()
        m00, m01, m10, m11 = (_complex(z, "Jones matrix entry") for z in entries)
        self._rows = _unitary_rows(((m00, m01), (m10, m11)))

    @classmethod
    def _of(cls, rows: tuple) -> "JonesMatrix":
        """The matrix of two rows of two Python complex entries, checked as the constructor checks them."""
        matrix = cls.__new__(cls)
        matrix._rows = _unitary_rows(rows)
        return matrix

    @property
    def m(self) -> np.ndarray:
        return _read_only(self._rows, (2, 2))

    def __repr__(self):
        return f"JonesMatrix({[list(row) for row in self._rows]!r})"


def _unitary_rows(rows: tuple) -> tuple:
    (m00, m01), (m10, m11) = rows
    if not all(map(cmath.isfinite, (m00, m01, m10, m11))):
        raise ValueError("Jones matrix entries must be finite")
    # the entries of m m^H - 1; the lower off-diagonal one is the conjugate of the upper
    dev = max(
        abs(_norm2((m00, m01)) - 1.0),
        abs(m00 * m10.conjugate() + m01 * m11.conjugate()),
        abs(_norm2((m10, m11)) - 1.0),
    )
    if dev > ATOL:
        raise ValueError(f"Jones matrix is not unitary (max deviation {dev:.3e})")
    return rows


class ProbTable:
    """Joint outcome probabilities over [XX, XY, YX, YY]; sums to 1."""

    __slots__ = ("_p",)

    def __init__(self, p):
        a = np.array(p, dtype=np.float64).reshape(4)
        p0, p1, p2, p3 = values = a.tolist()
        if not all(map(math.isfinite, values)):
            raise ValueError("probabilities must be finite")
        if min(values) < -ATOL or max(values) > 1.0 + ATOL:
            raise ValueError(f"probabilities out of [0, 1]: {values}")
        total = p0 + p1 + p2 + p3
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        a.setflags(write=False)
        self._p = a

    @property
    def p(self) -> np.ndarray:
        return self._p

    def __repr__(self):
        return f"ProbTable({self._p.tolist()!r})"


@dataclass(frozen=True)
class MeasurementResult:
    """Outcome of one projective measurement on one channel."""

    outcome: PolAxis
    collapsed: TwoPhotonState
    probability: float


def make_anticorrelated_pair() -> TwoPhotonState:
    """The source state: (|x>_a |y>_b + |y>_a |x>_b) / sqrt(2)."""
    s = complex(math.sqrt(0.5))  # correctly rounded 1/sqrt(2)
    return TwoPhotonState._of((0j, s, s, 0j))


def hwp_jones(plate_angle: float) -> JonesMatrix:
    """Half-wave-plate Jones matrix with fast axis at ``plate_angle`` radians.

    Real convention: [[cos 2t, sin 2t], [sin 2t, -cos 2t]].  At t = pi/4
    this swaps the x and y components, i.e. turns the polarization plane
    by pi/2.
    """
    t = _real(plate_angle, "plate angle")
    if abs(t) >= 2.0**1023:  # 2t would overflow to inf; 2t's sine and cosine repeat with period pi in t
        t = reduce_mod_pi(t)
    c = math.cos(2.0 * t)
    s = math.sin(2.0 * t)
    return JonesMatrix._of(((complex(c), complex(s)), (complex(s), complex(-c))))


def _act(values: tuple, channel: Channel, m00: complex, m01: complex, m10: complex, m11: complex) -> tuple:
    """The 2x2 ``[[m00, m01], [m10, m11]]`` applied to ``channel``'s photon of the amplitudes ``values``.

    The one place where a matrix meets one photon of the pair, and so the
    one place that checks the channel: anything but ``Channel.A`` or
    ``Channel.B`` raises ValueError.  Each entry is the coefficient times
    the amplitude, two products added left to right.  The result lists
    ``channel``'s new axis first: for channel A the usual [XX, XY, YX, YY],
    for channel B its transpose, B's new axis against A's x and y.
    """
    xx, xy, yx, yy = values
    if channel is _B:  # B's axis first: A's x and y become the other index
        xy, yx = yx, xy
    elif channel is not _A:
        raise ValueError(f"channel must be Channel.A or Channel.B, got {channel!r}")
    return m00 * xx + m01 * yx, m00 * xy + m01 * yy, m10 * xx + m11 * yx, m10 * xy + m11 * yy


def _in_order(values: tuple, channel: Channel) -> tuple:
    """Amplitudes that list ``channel``'s axis first, put back in [XX, XY, YX, YY] order."""
    return values if channel is _A else (values[0], values[2], values[1], values[3])


def apply_element(state: TwoPhotonState, channel: Channel, element: JonesMatrix) -> TwoPhotonState:
    """Apply a one-photon unitary to the chosen channel of the joint state.

    Channel A applies (J x I), channel B applies (I x J).  Raises
    ValueError if ``element`` is not unitary.
    """
    j = element if isinstance(element, JonesMatrix) else JonesMatrix(element)
    (j00, j01), (j10, j11) = j._rows
    return TwoPhotonState._of(_in_order(_act(state._values, channel, j00, j01, j10, j11), channel))


def _analyzer_rows(values: tuple, channel: Channel, setting) -> tuple[complex, complex, complex, complex]:
    """``basis^H psi`` on ``channel``: its analyzer's <x'| row against the other channel's x and y, then <y'|.

    The basis is real, so ``basis^H`` is its transpose.  Its entries are
    complex, not float, so every product is complex by complex, whose
    signed zeros do not depend on how the Python version mixes a float into
    a complex product.  An ``AnalyzerSetting`` keeps them once made, so the
    analyzers of a plan, which meet each setting several times, pay for
    ``cos`` and ``sin`` once per setting.
    """
    c, s, minus_s = as_setting(setting)._cos_sin
    return _act(values, channel, c, s, minus_s, c)


def joint_probabilities(
    state: TwoPhotonState,
    alpha: "AnalyzerSetting | float",
    beta: "AnalyzerSetting | float",
) -> ProbTable:
    """Born-rule probabilities of the four detector pairs at settings (alpha, beta).

    The amplitudes are ``u^H psi conj(v)`` for the analyzer bases ``u`` at
    ``alpha`` and ``v`` at ``beta``: channel A's analyzer first, then
    channel B's on its result.
    """
    t = _analyzer_rows(_analyzer_rows(state._values, _A, alpha), _B, beta)
    return ProbTable([z.real * z.real + z.imag * z.imag for z in _in_order(t, _B)])


def _detection(state: TwoPhotonState, channel: Channel, setting, outcomes: tuple = ()) -> tuple:
    """``(p_x, p_y, *after)``: a detection on ``channel`` at ``setting``, from one set of analyzer rows.

    ``p_x`` and ``p_y`` are the squared norms of the analyzer's rows of the
    state.  A probability below ``_RESIDUE`` (2^-64) is a rounding residue:
    the pair is then exactly (1, 0) or (0, 1).  ``after`` holds, for each of
    ``outcomes``, the state projected onto that outcome's analyzer vector
    on the channel and renormalized, or None where the projection is zero.
    An outcome that is not a ``PolAxis`` raises ValueError.  ``marginal``,
    ``project_channel``, ``measure_channel`` and the qm plan's first
    detection all read a detection here, so its arithmetic is written once.
    """
    c, s, minus_s = as_setting(setting)._cos_sin
    x0, x1, y0, y1 = _act(state._values, channel, c, s, minus_s, c)
    p_x = (x0.real * x0.real + x0.imag * x0.imag) + (x1.real * x1.real + x1.imag * x1.imag)
    p_y = (y0.real * y0.real + y0.imag * y0.imag) + (y1.real * y1.real + y1.imag * y1.imag)
    if min(p_x, p_y) < _RESIDUE:
        p_x, p_y = (1.0, 0.0) if p_x > p_y else (0.0, 1.0)
    result = [p_x, p_y]
    for outcome in outcomes:
        if outcome is _X:
            v0, v1, w0, w1 = c, s, x0, x1
        elif outcome is _Y:
            v0, v1, w0, w1 = minus_s, c, y0, y1
        else:
            raise ValueError(f"outcome must be PolAxis.X or PolAxis.Y, got {outcome!r}")
        # |v> (<v| psi): the outcome's vector times its row, the channel's axis first
        p0, p1, p2, p3 = proj = _in_order((v0 * w0, v0 * w1, v1 * w0, v1 * w1), channel)
        nrm = complex(math.sqrt(_norm2(proj)))
        result.append(None if nrm == 0.0 else TwoPhotonState._of((p0 / nrm, p1 / nrm, p2 / nrm, p3 / nrm)))
    return tuple(result)


def marginal(
    state: TwoPhotonState,
    channel: Channel,
    setting: "AnalyzerSetting | float",
) -> tuple[float, float]:
    """(p_x, p_y) for one channel: the squared norms of the analyzer's rows.

    The rows of ``basis^H psi`` on the channel give the joint table at the
    other channel's setting 0, summed over it, bit for bit.  A probability
    below ``_RESIDUE`` (2^-64) is a rounding residue: the pair is then
    exactly (1, 0) or (0, 1).
    """
    return _detection(state, channel, setting)


def measure_channel(
    state: TwoPhotonState,
    channel: Channel,
    setting: "AnalyzerSetting | float",
    u: float,
) -> MeasurementResult:
    """Projective measurement of one channel, consuming one uniform draw.

    Outcome is X' if ``u < p_x`` else Y' (tie goes to Y).  The joint state
    is projected onto the outcome's analyzer vector on that channel and
    renormalized, so the partner's description updates with it.
    """
    draw = _real(u, "u")
    if not 0.0 <= draw < 1.0:
        raise ValueError(f"u must lie in [0, 1), got {u!r}")
    p_x, p_y, after_x, after_y = _detection(state, channel, setting, (_X, _Y))
    # the selected state is never None: a probability below _RESIDUE is an
    # exact 0, which no u in [0, 1) selects (u < 0.0 is false, u < 1.0
    # true), and one at or above it has a nonzero projection
    if draw < p_x:
        return MeasurementResult(_X, after_x, p_x)
    return MeasurementResult(_Y, after_y, p_y)


def project_channel(
    state: TwoPhotonState,
    channel: Channel,
    setting: "AnalyzerSetting | float",
    outcome: PolAxis,
) -> TwoPhotonState:
    """The joint state after ``channel``'s analyzer at ``setting`` registers ``outcome``.

    The state is projected onto the outcome's analyzer vector on that
    channel and renormalized.  Raises ValueError if the outcome is not a
    ``PolAxis`` or has zero probability.
    """
    _, _, after = _detection(state, channel, setting, (outcome,))
    if after is None:
        raise ValueError("degenerate projection: selected branch has zero probability")
    return after
