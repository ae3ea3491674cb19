"""Reference functions the tests check the package against; the package itself never calls them.

Pytest puts this directory on ``sys.path``, so tests ``import oracles``
(``tests/`` has no ``__init__.py``).
"""

import math

import numpy as np

from biphoton.quantum import (
    ATOL,
    XX,
    XY,
    YX,
    YY,
    AnalyzerSetting,
    Channel,
    PolAxis,
    TwoPhotonState,
    as_setting,
    joint_probabilities,
)
from biphoton.rng import splitmix

_MASK = (1 << 64) - 1


def product_state(vec_a, vec_b) -> TwoPhotonState:
    """Joint state |vec_a>_a |vec_b>_b from two unit Jones vectors."""
    a = np.asarray(vec_a, dtype=np.complex128).reshape(2)
    b = np.asarray(vec_b, dtype=np.complex128).reshape(2)
    return TwoPhotonState(np.outer(a, b).reshape(4))


def correlation_E(
    state: TwoPhotonState,
    alpha: "AnalyzerSetting | float",
    beta: "AnalyzerSetting | float",
) -> float:
    """Correlator E = p_XX + p_YY - p_XY - p_YX of the +-1-valued outcomes."""
    p = joint_probabilities(state, alpha, beta).p
    return float(p[XX] + p[YY] - p[XY] - p[YX])


def states_equal_up_to_phase(s1: TwoPhotonState, s2: TwoPhotonState, tol: float = ATOL) -> bool:
    """Whether two unit states coincide as physical states (rays)."""
    return abs(np.vdot(s1.amps, s2.amps)) >= 1.0 - tol


def matrix_apply(amps, channel: Channel, m) -> np.ndarray:
    """(J x I) psi or (I x J) psi as numpy matrix products: the reference of ``apply_element``."""
    psi = np.asarray(amps, dtype=np.complex128).reshape(2, 2)
    return (m @ psi if channel is Channel.A else psi @ m.T).reshape(4)


def _basis(setting) -> np.ndarray:
    """The analyzer's basis as the columns of a 2x2 array: (cos a, sin a) and (-sin a, cos a)."""
    a = as_setting(setting).angle
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]], dtype=np.complex128)


def matrix_joint(amps, alpha: float, beta: float) -> np.ndarray:
    """|u^H psi conj(v)|^2 as numpy matrix products: the reference of ``joint_probabilities``."""
    psi = np.asarray(amps, dtype=np.complex128).reshape(2, 2)
    t = _basis(alpha).conj().T @ psi @ _basis(beta).conj()
    return (np.abs(t) ** 2).reshape(4)


def matrix_project(amps, channel: Channel, setting: float, outcome: PolAxis) -> np.ndarray:
    """The state projected onto the outcome's analyzer vector and renormalized, with np.outer and norm."""
    v = _basis(setting)[:, 0 if outcome is PolAxis.X else 1]
    psi = np.asarray(amps, dtype=np.complex128).reshape(2, 2)
    proj = np.outer(v, v.conj() @ psi) if channel is Channel.A else np.outer(psi @ v.conj(), v)
    return proj.reshape(4) / np.linalg.norm(proj)


def draw_u64(master_seed: int, trial_index: int, draw_counter: int) -> int:
    """The raw 64-bit word for one (seed, trial, counter) triple, one scalar round at a time."""
    h = splitmix(master_seed & _MASK)
    h = splitmix(h ^ (trial_index & _MASK))
    return splitmix(h ^ (draw_counter & _MASK))


def draw_uniform(master_seed: int, trial_index: int, draw_counter: int) -> float:
    """Uniform float on [0, 1) for one (seed, trial, counter) triple: the scalar oracle of ``uniform_array``."""
    return (draw_u64(master_seed, trial_index, draw_counter) >> 11) * 2.0**-53
