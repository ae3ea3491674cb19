"""Exact polarization algebra for one entangled photon pair.

The joint state of the pair lives on a 4-dimensional complex space, one
polarization qubit per channel.  Amplitudes are stored in the fixed order

    [XX, XY, YX, YY]

where the first letter is the polarization axis of the photon in channel
A and the second the one in channel B.  All operations here are pure
functions on immutable values; randomness enters only through an explicit
``u`` argument, never from internal generator state.

Conventions:

* analyzer angles are radians, physics is pi-periodic, so settings are
  reduced mod pi at construction;
* the half-wave-plate Jones matrix uses the real convention (the global
  phase is dropped; physical predictions are phase-invariant);
* sampling threshold: ``u < p_x`` selects X, so a tie at ``u == p_x``
  deterministically selects Y.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

#: tolerance for exact-algebra checks (normalization, unitarity, overlap)
ATOL = 1e-12

#: amplitude / probability index order
XX, XY, YX, YY = 0, 1, 2, 3


class Channel(enum.Enum):
    A = "A"
    B = "B"


class PolAxis(enum.Enum):
    X = "X"
    Y = "Y"


def reduce_mod_pi(angle: float) -> float:
    """Reduce an angle to the canonical analyzer range [0, pi)."""
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    r = math.fmod(angle, math.pi)
    if r < 0.0:
        r += math.pi
    if r >= math.pi:  # the += above can round up to pi for tiny negatives
        r -= math.pi
    return r


@dataclass(frozen=True)
class AnalyzerSetting:
    """Analyzer orientation in radians, stored reduced to [0, pi)."""

    angle: float

    def __post_init__(self):
        # a bool is an int, and float("1") is 1.0, but neither is an angle
        if isinstance(self.angle, bool) or not isinstance(self.angle, numbers.Real):
            raise ValueError(f"analyzer angle must be real radians, got {self.angle!r}")
        object.__setattr__(self, "angle", reduce_mod_pi(float(self.angle)))

    @classmethod
    def from_degrees(cls, degrees: float) -> "AnalyzerSetting":
        return cls(math.radians(degrees))


def as_setting(setting: "AnalyzerSetting | float") -> AnalyzerSetting:
    if isinstance(setting, AnalyzerSetting):
        return setting
    return AnalyzerSetting(setting)


class TwoPhotonState:
    """Pure joint polarization state; 4 complex amplitudes, unit norm.

    The amplitude array is copied on construction and exposed read-only.
    """

    __slots__ = ("_amps",)

    def __init__(self, amps):
        a = np.array(amps, dtype=np.complex128).reshape(4)
        if not np.all(np.isfinite(a.view(np.float64))):
            raise ValueError("state amplitudes must be finite")
        sq = float(np.vdot(a, a).real)
        if abs(sq - 1.0) > ATOL:
            raise ValueError(f"state not normalized: sum |amps|^2 = {sq!r}")
        a.setflags(write=False)
        self._amps = a

    @property
    def amps(self) -> np.ndarray:
        """Amplitudes over [XX, XY, YX, YY] (read-only)."""
        return self._amps

    def matrix(self) -> np.ndarray:
        """Amplitudes as a 2x2 array, row = channel-A axis, column = channel-B axis."""
        return self._amps.reshape(2, 2)

    def norm(self) -> float:
        return float(np.linalg.norm(self._amps))

    def overlap(self, other: "TwoPhotonState") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self._amps, other._amps))

    def __repr__(self):
        return f"TwoPhotonState({self._amps.tolist()!r})"


class JonesMatrix:
    """A 2x2 unitary acting on one photon's polarization (checked on construction)."""

    __slots__ = ("_m",)

    def __init__(self, m):
        a = np.array(m, dtype=np.complex128).reshape(2, 2)
        if not np.all(np.isfinite(a.view(np.float64))):
            raise ValueError("Jones matrix entries must be finite")
        dev = np.abs(a @ a.conj().T - np.eye(2)).max()
        if dev > ATOL:
            raise ValueError(f"Jones matrix is not unitary (max deviation {dev:.3e})")
        a.setflags(write=False)
        self._m = a

    @property
    def m(self) -> np.ndarray:
        return self._m

    def __repr__(self):
        return f"JonesMatrix({self._m.tolist()!r})"


class ProbTable:
    """Joint outcome probabilities over [XX, XY, YX, YY]; sums to 1."""

    __slots__ = ("_p",)

    def __init__(self, p):
        a = np.array(p, dtype=np.float64).reshape(4)
        if not np.all(np.isfinite(a)):
            raise ValueError("probabilities must be finite")
        if a.min() < -ATOL or a.max() > 1.0 + ATOL:
            raise ValueError(f"probabilities out of [0, 1]: {a.tolist()}")
        if abs(float(a.sum()) - 1.0) > ATOL:
            raise ValueError(f"probabilities sum to {a.sum()!r}, not 1")
        a.setflags(write=False)
        self._p = a

    @property
    def p(self) -> np.ndarray:
        return self._p

    def __getitem__(self, idx: int) -> float:
        return float(self._p[idx])

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
    s = math.sqrt(0.5)  # correctly rounded 1/sqrt(2)
    return TwoPhotonState([0.0, s, s, 0.0])


def hwp_jones(plate_angle: float) -> JonesMatrix:
    """Half-wave-plate Jones matrix with fast axis at ``plate_angle`` radians.

    Real convention: [[cos 2t, sin 2t], [sin 2t, -cos 2t]].  At t = pi/4
    this swaps the x and y components, i.e. turns the polarization plane
    by pi/2.
    """
    if not (isinstance(plate_angle, (int, float)) and math.isfinite(plate_angle)):
        raise ValueError(f"plate angle must be finite, got {plate_angle!r}")
    c = math.cos(2.0 * plate_angle)
    s = math.sin(2.0 * plate_angle)
    return JonesMatrix([[c, s], [s, -c]])


def apply_element(state: TwoPhotonState, channel: Channel, element: JonesMatrix) -> TwoPhotonState:
    """Apply a one-photon unitary to the chosen channel of the joint state.

    Channel A applies (J x I), channel B applies (I x J).  Raises
    ValueError if ``element`` is not unitary.
    """
    j = element if isinstance(element, JonesMatrix) else JonesMatrix(element)
    psi = state.matrix()
    if channel is Channel.A:
        out = j.m @ psi
    else:
        out = psi @ j.m.T
    return TwoPhotonState(out.reshape(4))


def analyzer_basis(setting: "AnalyzerSetting | float") -> np.ndarray:
    """Orthonormal analyzer basis as the columns of a complex 2x2 array.

    Column 0 is |x'> = (cos a, sin a), column 1 is |y'> = (-sin a, cos a).
    """
    a = as_setting(setting).angle
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def joint_probabilities(
    state: TwoPhotonState,
    alpha: "AnalyzerSetting | float",
    beta: "AnalyzerSetting | float",
) -> ProbTable:
    """Born-rule probabilities of the four detector pairs at settings (alpha, beta)."""
    u = analyzer_basis(alpha)
    v = analyzer_basis(beta)
    t = u.conj().T @ state.matrix() @ v.conj()
    return ProbTable((t.real**2 + t.imag**2).reshape(4))


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
    psi = state.matrix()
    rows = analyzer_basis(setting).conj().T @ (psi if channel is Channel.A else psi.T)
    p = rows.real**2 + rows.imag**2
    p_x, p_y = float(p[0, 0] + p[0, 1]), float(p[1, 0] + p[1, 1])
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
    if not (isinstance(u, (int, float)) and 0.0 <= u < 1.0):
        raise ValueError(f"u must lie in [0, 1), got {u!r}")
    p_x, p_y = marginal(state, channel, setting)
    if u < p_x:
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
    v = analyzer_basis(setting)[:, 0 if outcome is PolAxis.X else 1]
    psi = state.matrix()
    if channel is Channel.A:
        proj = np.outer(v, v.conj() @ psi)
    else:
        proj = np.outer(psi @ v.conj(), v)
    nrm = np.linalg.norm(proj)
    if nrm == 0.0:
        raise ValueError("degenerate projection: selected branch has zero probability")
    return TwoPhotonState(proj.reshape(4) / nrm)
