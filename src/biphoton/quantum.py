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
each sum of two terms added left to right.  Nothing goes to numpy's
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
  ``engine``: a finite Python or numpy real, not a bool, or ValueError.
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

#: amplitude / probability index order
XX, XY, YX, YY = 0, 1, 2, 3


class Channel(enum.Enum):
    A = "A"
    B = "B"


class PolAxis(enum.Enum):
    X = "X"
    Y = "Y"


def _real(value, what: str) -> float:
    """``value`` as a finite float; a bool, a str and an int beyond float range are not numbers here."""
    if not isinstance(value, bool) and isinstance(value, (float, numbers.Real)):  # float first: it is quick
        try:
            if math.isfinite(x := float(value)):
                return x
        except OverflowError:  # an int or a Fraction beyond float range
            pass
    raise ValueError(f"{what} must be a finite real number, got {value!r}")


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
        """``_basis`` of this setting, computed on first use and kept with it."""
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
        self._values = _unit_amplitudes(tuple(np.array(amps, dtype=np.complex128).reshape(4).tolist()))

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
        (m00, m01), (m10, m11) = np.array(m, dtype=np.complex128).reshape(2, 2).tolist()
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
    c = math.cos(2.0 * t)
    s = math.sin(2.0 * t)
    return JonesMatrix._of(((complex(c), complex(s)), (complex(s), complex(-c))))


def apply_element(state: TwoPhotonState, channel: Channel, element: JonesMatrix) -> TwoPhotonState:
    """Apply a one-photon unitary to the chosen channel of the joint state.

    Channel A applies (J x I), channel B applies (I x J).  Raises
    ValueError if ``element`` is not unitary.
    """
    j = element if isinstance(element, JonesMatrix) else JonesMatrix(element)
    (j00, j01), (j10, j11) = j._rows
    xx, xy, yx, yy = state._values
    if channel is Channel.A:  # J psi: J mixes the rows of the amplitude matrix
        out = (j00 * xx + j01 * yx, j00 * xy + j01 * yy, j10 * xx + j11 * yx, j10 * xy + j11 * yy)
    else:  # psi J^T: J mixes its columns
        out = (xx * j00 + xy * j01, xx * j10 + xy * j11, yx * j00 + yy * j01, yx * j10 + yy * j11)
    return TwoPhotonState._of(out)


def _basis(setting: "AnalyzerSetting | float") -> tuple[complex, complex, complex]:
    """(cos a, sin a, -sin a) of the setting as complex numbers.

    Complex, not float, so every product below is complex by complex, whose
    signed zeros do not depend on how the Python version mixes a float into
    a complex product.  An ``AnalyzerSetting`` keeps its triple once made,
    so the analyzers of a plan, which meet each setting several times, pay
    for ``cos`` and ``sin`` once per setting.
    """
    return as_setting(setting)._cos_sin


def _analyzer_rows(state: TwoPhotonState, channel: Channel, setting) -> tuple[complex, complex, complex, complex]:
    """``basis^H psi`` (``psi`` transposed for channel B), flattened.

    The first two entries are <x'| of ``channel`` against the other
    channel's x and y, the last two <y'|.  The basis is real, so ``basis^H``
    is its transpose.
    """
    c, s, minus_s = _basis(setting)
    xx, xy, yx, yy = state._values
    if channel is Channel.A:
        return c * xx + s * yx, c * xy + s * yy, minus_s * xx + c * yx, minus_s * xy + c * yy
    return c * xx + s * xy, c * yx + s * yy, minus_s * xx + c * xy, minus_s * yx + c * yy


def joint_probabilities(
    state: TwoPhotonState,
    alpha: "AnalyzerSetting | float",
    beta: "AnalyzerSetting | float",
) -> ProbTable:
    """Born-rule probabilities of the four detector pairs at settings (alpha, beta).

    The amplitudes are ``u^H psi conj(v)`` for the analyzer bases ``u`` at
    ``alpha`` and ``v`` at ``beta``: channel A's rows first, then channel
    B's basis on the right.
    """
    r0, r1, r2, r3 = _analyzer_rows(state, Channel.A, alpha)
    c, s, minus_s = _basis(beta)
    t = (r0 * c + r1 * s, r0 * minus_s + r1 * c, r2 * c + r3 * s, r2 * minus_s + r3 * c)
    return ProbTable([z.real * z.real + z.imag * z.imag for z in t])


def marginal(
    state: TwoPhotonState,
    channel: Channel,
    setting: "AnalyzerSetting | float",
) -> tuple[float, float]:
    """(p_x, p_y) for one channel: the squared norms of the analyzer's rows.

    The rows of ``basis^H @ psi`` (``psi`` transposed for channel B) give
    the joint table at the other channel's setting 0, summed over it, bit
    for bit.  A probability below ``ATOL`` is a rounding residue: the pair
    is then exactly (1, 0) or (0, 1).
    """
    x0, x1, y0, y1 = _analyzer_rows(state, channel, setting)
    p_x = (x0.real * x0.real + x0.imag * x0.imag) + (x1.real * x1.real + x1.imag * x1.imag)
    p_y = (y0.real * y0.real + y0.imag * y0.imag) + (y1.real * y1.real + y1.imag * y1.imag)
    if min(p_x, p_y) < ATOL:
        return (1.0, 0.0) if p_x > p_y else (0.0, 1.0)
    return p_x, p_y


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
    p_x, p_y = marginal(state, channel, setting)
    if draw < p_x:
        outcome, prob = PolAxis.X, p_x
    else:
        outcome, prob = PolAxis.Y, p_y
    # unreachable degenerate projection: marginal returns a rounding residue
    # as an exact 0, which no u in [0, 1) selects (u < 0.0 is false, u < 1.0 true)
    return MeasurementResult(outcome, project_channel(state, channel, setting, outcome), prob)


def project_channel(
    state: TwoPhotonState,
    channel: Channel,
    setting: "AnalyzerSetting | float",
    outcome: PolAxis,
) -> TwoPhotonState:
    """The joint state after ``channel``'s analyzer at ``setting`` registers ``outcome``.

    The state is projected onto the outcome's analyzer vector on that
    channel and renormalized.  Raises ValueError if the outcome has zero
    probability.
    """
    c, s, minus_s = _basis(setting)
    v0, v1 = (c, s) if outcome is PolAxis.X else (minus_s, c)
    xx, xy, yx, yy = state._values
    if channel is Channel.A:  # |v> (<v| psi): v times the analyzer's row
        w0, w1 = v0 * xx + v1 * yx, v0 * xy + v1 * yy
        proj = (v0 * w0, v0 * w1, v1 * w0, v1 * w1)
    else:  # (psi |v>) <v|: the analyzer's column times v
        w0, w1 = xx * v0 + xy * v1, yx * v0 + yy * v1
        proj = (w0 * v0, w0 * v1, w1 * v0, w1 * v1)
    nrm = complex(math.sqrt(_norm2(proj)))
    if nrm == 0.0:
        raise ValueError("degenerate projection: selected branch has zero probability")
    p0, p1, p2, p3 = proj
    return TwoPhotonState._of((p0 / nrm, p1 / nrm, p2 / nrm, p3 / nrm))
