"""Timed optical bench: event ordering, single trials, Monte Carlo ensembles.

A bench places a pair source at the origin, a removable half-wave plate
and a polarizing prism on channel A, and a prism on channel B, all at
configurable distances.  Photons travel at c, so the order in which the
plate acts and the detections fire is set purely by geometry; exact ties
are broken by a fixed event precedence (plate, then B, then A).

Every trial is driven by counter-based uniform draws keyed on
(master_seed, trial_index, draw_counter), so a run is reproducible from
its seed alone and any single trial can be replayed in isolation.  Each
sampler call (``run_trial``, ``simulate_outcomes``, ``run_ensemble``)
compiles its bench once, in ``_compile``, into one plan value, a
``_Plan``, which does not depend on the seed.  Its fields: ``arcs``, each
channel's arc ``(opens, closes)`` of X draws of draw 0, for a plan that
reads one draw; ``branch``, qm's and naive's branch plan (first-detected
channel, P(first = X), P(second = X | first = X), P(second = X | first =
Y)); and ``thresholds``, those three probabilities as integer draw
thresholds.  ``_kernel(plan, master_seed)`` builds a chunk kernel from
the plan alone; the ensembles apply it to chunks of trial indices and
``run_trial`` to a single index, so a replayed trial is its ensemble's
trial by construction.  The quantum and naive models compile to a branch
plan, made by one walk of the timeline through each model's four rules
(the pair at emission, the plate, P(X) at one analyzer, and a detection:
P(X) and the pair after each outcome, which qm reads from one set of
analyzer rows), ``_branch_plan``; their exact tables multiply out the
same walk's value and compile no ``_Plan``.  The hidden-angle model
compiles to arcs: a draw is k / 2^53, each channel is X on one arc of
the circle of draws k mod 2^53, and the arc's two ends are pinned with
the scalar rules of ``local``.  A plan that reads one
draw runs one kernel, ``_arc_kernel``: lhv-sign's plan, and a branch plan
whose second outcome is certain (naive's always, qm's where the first
detection fixes the second), whose first channel is X below its
threshold and whose second is X where the first is, where it is not,
always or never.  Only an uncertain branch plan reads draw 1, on the
two-draw kernel.  Either way a kernel compares the integer draws k from
``rng.uniform_array`` with integer thresholds (u < p is k < ceil(p *
2^53); an arc outcome compares k's offset from one arc end with the
arc's width), in place, in buffers that each thread of an ensemble
reuses from chunk to chunk, every row on a 64-byte boundary.  A kernel
writes a chunk's two outcome rows, the ones it is handed, and returns
nothing.  An ensemble's calling thread and its helper threads claim
chunks from one shared sequence, each with one chunk in progress and one
running total, and no executor is involved.  Draw discipline per trial,
unchanged by the compilation: the hidden-angle model reads one draw (the
shared angle at emission); the quantum and naive models read draw 0 for
the first detection in time order and draw 1 for the second only if the
first leaves it uncertain, which for the naive model it never does.
Planning reads enum members through module names (``_A``, ``_X``,
``_PLATE_A`` and the rest), which Python 3.11 looks up several times
faster than ``Channel.A``, and starts every walk from one source pair,
``_PAIR``, an immutable value.
"""

from __future__ import annotations

import math
import os
import threading
from ctypes import addressof, c_char
from dataclasses import dataclass, replace
from enum import IntEnum
from operator import add
from typing import NamedTuple

import numpy as np

from .local import (
    ChshAngles,
    ChshReport,
    chsh_S,
    lhv_outcome,
    lhv_sample,
    lhv_sign_correlator,
    naive_p_x,
    naive_partner,
    naive_plate_action,
)
from .quantum import (
    XX,
    XY,
    YX,
    YY,
    _A,
    _B,
    _X,
    _Y,
    AnalyzerSetting,
    PolAxis,
    ProbTable,
    _detection,
    _real,
    apply_element,
    as_setting,
    hwp_jones,
    make_anticorrelated_pair,
    marginal,
    measure_channel,  # unused here, but perfbench/tracer.py times it through this name
    reduce_mod_pi,
)
from .rng import _integer, _u64, derive_seed, uniform_array

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by definition

#: trials per vectorized chunk.  Draws are keyed by trial index, so the
#: output is the same at any chunk size and worker count; CHUNK sets each
#: thread's buffer memory and the fixed cost each chunk pays
CHUNK = 65_536

MODEL_NAMES = ("qm", "lhv-sign", "naive")

_QUARTER_PI = math.pi / 4.0


class BenchEvent(IntEnum):
    """Bench events; the enum value breaks ties between simultaneous events."""

    PLATE_A = 0
    DETECT_B = 1
    DETECT_A = 2


#: the bench events as module names, read as ``quantum`` reads ``_A`` and ``_B``
_PLATE_A, _DETECT_B, _DETECT_A = BenchEvent.PLATE_A, BenchEvent.DETECT_B, BenchEvent.DETECT_A


class TimedEvent(NamedTuple):
    time: float
    event: BenchEvent


def _store_changed(obj, checked: dict) -> None:
    """Set each frozen field of ``obj`` whose checked value is not the object it was given."""
    for name, value in checked.items():
        if value is not getattr(obj, name):
            object.__setattr__(obj, name, value)


def _distance(value, what: str) -> float:
    """``value`` as a finite, nonnegative distance in meters; a zero is +0.0."""
    d = _real(value, what)
    if d < 0.0:
        raise ValueError(f"{what} must be a nonnegative distance in meters, got {d!r}")
    return d or 0.0  # -0.0 is false: a zero is +0.0, any other value kept as it is


@dataclass(frozen=True)
class OpticalBench:
    """Geometry and settings of one run, in SI units and radians.

    Distances are in meters from the source, the analyzer and plate angles
    in radians; the config file's keys and units (meters and degrees)
    belong to the command line, ``cli``.  When the plate is present it must sit no farther out than channel A's
    prism, so it always acts before A's detection.  Only the qm model reads
    ``plate_angle``: the local models' plate turns a definite photon by pi/2.
    """

    d_plate_a: float = 0.5
    d_prism_a: float = 1.5
    d_prism_b: float = 1.0
    alpha: "AnalyzerSetting | float" = AnalyzerSetting(0.0)
    beta: "AnalyzerSetting | float" = AnalyzerSetting(0.0)
    plate_present: bool = True
    plate_angle: float = _QUARTER_PI

    def __post_init__(self):
        d_plate_a = _distance(self.d_plate_a, "d_plate_a")
        d_prism_a = _distance(self.d_prism_a, "d_prism_a")
        d_prism_b = _distance(self.d_prism_b, "d_prism_b")
        alpha, beta = as_setting(self.alpha), as_setting(self.beta)
        if not isinstance(self.plate_present, (bool, np.bool_)):
            raise ValueError(f"plate_present must be true or false, got {self.plate_present!r}")
        plate_present = bool(self.plate_present)
        # -0.0 is false, so a zero angle is stored as +0.0, which prints without a sign
        plate_angle = _real(self.plate_angle, "plate_angle in radians") or 0.0
        if plate_present and d_plate_a > d_prism_a:
            raise ValueError("plate must sit between source and prism: d_plate_a <= d_prism_a")
        _store_changed(self, {
            "d_plate_a": d_plate_a,
            "d_prism_a": d_prism_a,
            "d_prism_b": d_prism_b,
            "alpha": alpha,
            "beta": beta,
            "plate_present": plate_present,
            "plate_angle": plate_angle,
        })


def build_timeline(bench: OpticalBench) -> tuple[TimedEvent, ...]:
    """Events of one trial at time distance / c, sorted by time, ties by event precedence."""
    events = [
        TimedEvent(bench.d_prism_b / SPEED_OF_LIGHT, _DETECT_B),
        TimedEvent(bench.d_prism_a / SPEED_OF_LIGHT, _DETECT_A),
    ]
    if bench.plate_present:
        events.append(TimedEvent(bench.d_plate_a / SPEED_OF_LIGHT, _PLATE_A))
    return tuple(sorted(events))


def detect_b_before_plate(bench: OpticalBench) -> bool:
    """Whether channel B's detection fires before the plate acts.

    False when the plate is absent: there is nothing to beat.  The plate
    never acts after A's detection and wins ties, so B beats it exactly
    when B's detection is the first event.
    """
    return bench.plate_present and build_timeline(bench)[0].event is _DETECT_B


@dataclass(frozen=True)
class TrialRecord:
    """One emitted pair: both outcomes plus the bench ordering flag."""

    trial_index: int
    model: str
    outcome_a: PolAxis
    outcome_b: PolAxis
    b_before_plate: bool


@dataclass(frozen=True)
class EnsembleStats:
    """Joint outcome counts of an ensemble; channel A's axis is named first."""

    n_xx: int
    n_xy: int
    n_yx: int
    n_yy: int

    def __post_init__(self):
        checked = {}
        for name in ("n_xx", "n_xy", "n_yx", "n_yy"):
            c = checked[name] = _integer(getattr(self, name), name)
            if c < 0:
                raise ValueError(f"{name} must be a nonnegative integer count, got {c!r}")
        _store_changed(self, checked)
        if self.n == 0:
            raise ValueError("ensemble has no trials")

    @property
    def n(self) -> int:
        return self.n_xx + self.n_xy + self.n_yx + self.n_yy

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (self.n_xx, self.n_xy, self.n_yx, self.n_yy)

    @property
    def frequencies(self) -> tuple[float, ...]:
        n = self.n
        return tuple(c / n for c in self.counts)

    def cell_stderr(self) -> tuple[float, ...]:
        """Binomial standard error sqrt(f (1 - f) / n) of each cell frequency."""
        n = self.n
        return tuple(math.sqrt(f * (1.0 - f) / n) for f in self.frequencies)

    @property
    def e_hat(self) -> float:
        """Sample correlator of the +-1-valued outcomes."""
        return (self.n_xx + self.n_yy - self.n_xy - self.n_yx) / self.n

    @property
    def stderr_e(self) -> float:
        e = self.e_hat
        return math.sqrt(max(0.0, 1.0 - e * e) / self.n)

    def marginal_a(self) -> tuple[float, float]:
        n = self.n
        return ((self.n_xx + self.n_xy) / n, (self.n_yx + self.n_yy) / n)

    def marginal_b(self) -> tuple[float, float]:
        n = self.n
        return ((self.n_xx + self.n_yx) / n, (self.n_xy + self.n_yy) / n)


def _check_model(model: str) -> None:
    if model not in MODEL_NAMES:
        raise ValueError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")


# ---------------------------------------------------------------------------
# per-bench plans: each model compiles a bench into one plan value, which the chunk kernels read


#: the pair at emission: an immutable value, made once
_PAIR = make_anticorrelated_pair()


def _qm_detection(state, channel, setting):
    """P(X) at ``channel``'s analyzer and the pair after each outcome, from one set of analyzer rows."""
    p_x, _, after_x, after_y = _detection(state, channel, setting, (_X, _Y))
    return p_x, after_x, after_y


def _qm_rules(bench):
    """quantum's per-event rules; the walk's state is the pair's joint state."""
    # the plate rule runs only on a timeline that holds the plate
    plate = hwp_jones(bench.plate_angle) if bench.plate_present else None
    return (
        _PAIR,
        lambda state: apply_element(state, _A, plate),
        lambda state, channel, setting: marginal(state, channel, setting)[0],
        _qm_detection,
    )


def _naive_detection(photons, channel, setting):
    """P(X) of ``channel``'s photon and the photons after each outcome, which paints the partner."""
    a, b = photons
    x, y = naive_partner(setting, _X), naive_partner(setting, _Y)
    if channel is _A:
        return naive_p_x(a, setting), (a, x), (a, y)
    return naive_p_x(b, setting), (x, b), (y, b)


def _naive_rules(bench):
    """local's naive rules; the walk's state is the photon angles (A, B), None while unpolarized."""
    return (
        (None, None),
        lambda photons: (naive_plate_action(photons[0]), photons[1]),
        lambda photons, channel, setting: naive_p_x(photons[0 if channel is _A else 1], setting),
        _naive_detection,
    )


#: per two-detection model, the rules that ``_branch_plan`` walks into (first-detected
#: channel, P(first = X), P(second = X | first = X), P(second = X | first = Y))
_RULES = {"qm": _qm_rules, "naive": _naive_rules}


def _branch_plan(model, bench):
    """Branch plan of a two-detection model, walking the bench's timeline through its rules.

    The model's rules give the pair at emission, the plate's action on it,
    P(X) at one analyzer, for the second detection, and a detection, for
    the first: P(X) at one analyzer and the pair after each outcome (qm
    reads all three from one set of analyzer rows, ``quantum._detection``).
    P(first = X) is 1/2 up to rounding on every bench (the first detection
    always meets an unpolarized photon or half of a maximally entangled
    pair), so both branches are live.
    """
    state, plate, p_x, detection = _RULES[model](bench)
    timeline = build_timeline(bench)
    i = 0
    while timeline[i].event is _PLATE_A:
        state = plate(state)
        i += 1
    if timeline[i].event is _DETECT_A:
        first_ch, first_setting, second_ch, second_setting = _A, bench.alpha, _B, bench.beta
    else:
        first_ch, first_setting, second_ch, second_setting = _B, bench.beta, _A, bench.alpha
    p1x, after_x, after_y = detection(state, first_ch, first_setting)
    tail = timeline[i + 1 :]

    def second_p_x(branch):
        for ev in tail:
            if ev.event is _PLATE_A:
                branch = plate(branch)
        return p_x(branch, second_ch, second_setting)

    return first_ch, p1x, second_p_x(after_x), second_p_x(after_y)


#: draws per unit: a draw is u = k / DRAWS for an integer k in [0, DRAWS)
_DRAWS = 2**53


def _draw_threshold(p: float) -> int:
    """The K for which a draw k has k < K exactly when u = k / 2^53 < p.

    k / 2^53 and p * 2^53 are exact, so u < p is k < p * 2^53, which for an
    integer k is k < ceil(p * 2^53).
    """
    return math.ceil(p * _DRAWS)


#: the dtypes of the buffer rows, as dtype objects, which the array constructor
#: takes as they are
_WORD, _FLAG = np.dtype(np.uint64), np.dtype(bool)


def _block(nbytes: int):
    """An over-allocated uint8 block and the offset in it of ``nbytes`` that start on a 64-byte boundary.

    The heap aligns a block to 16 bytes only, and a row that starts 16 or
    48 bytes past a cache line is classified measurably slower, so every
    row is carved from a block like this one, whose address is read once.
    """
    block = np.empty(nbytes + 63, dtype=np.uint8)
    return block, -addressof(c_char.from_buffer(block)) & 63


def _buffers(size: int, outcomes: bool = True):
    """One thread's scratch for chunks of up to ``size`` trials, every row on a 64-byte boundary.

    Three uint64 rows of words; a chunk's trial indices are made in the
    row that ``uniform_array`` hashes them into.  Two bool rows, the
    outcomes of channels A and B, or None when ``outcomes`` is false, for
    a call that classifies into outcome arrays of its own.  The rows are
    carved from one block, each a whole number of 64-byte lines apart.
    """
    row = (size + 63) & -64
    block, at = _block((26 if outcomes else 24) * row)
    words = np.ndarray((3, size), _WORD, block, at, (8 * row, 8))
    return words, np.ndarray((2, size), _FLAG, block, at + 24 * row, (row, 1)) if outcomes else None


#: the trial offsets within a chunk, 0 .. CHUNK - 1: made once, read-only,
#: so no call builds its own (a chunk's indices are these plus its start)
_OFFSETS = np.ndarray(CHUNK, _WORD, *_block(8 * CHUNK))
_OFFSETS[:] = np.arange(CHUNK, dtype=np.uint64)
_OFFSETS.setflags(write=False)


def _trial_indices(start: int, row):
    """The trial indices start .. start + len(row) - 1, all mod 2^64, made in ``row``.

    Chunk 0's are a prefix of ``_OFFSETS`` instead, and ``row`` is left as it is.
    """
    m = len(row)
    return np.add(_OFFSETS[:m], _u64(start), out=row) if start else _OFFSETS[:m]


class _Plan(NamedTuple):
    """What the sampler does on one bench, at any seed: the value ``_compile`` returns."""

    #: each channel's arc ``(opens, closes)`` of X draws of draw 0, A's first, when the
    #: plan reads one draw; None when it reads two
    arcs: "tuple[tuple[int, int], tuple[int, int]] | None"
    #: qm and naive: (first-detected channel, P(first = X), P(second = X | first = X),
    #: P(second = X | first = Y)), ``_branch_plan``'s value; None for lhv-sign
    branch: "tuple | None" = None
    #: qm and naive: each of the three probabilities as its integer draw threshold
    thresholds: "tuple[int, int, int] | None" = None


def _compile(model, bench):
    """Compile the bench once into its ``_Plan``, which does not depend on the seed.

    Only the sampler entry points, ``run_trial``, ``simulate_outcomes``
    and ``run_ensemble``, compile; the exact tables read the models' rules.
    The plan's fields are ``arcs``, ``branch`` and ``thresholds``.
    lhv-sign's plan is one arc per channel (``_lhv_breakpoints``) and
    nothing else.  A two-detection model's plan is its branch plan,
    ``_branch_plan``'s floats, which ``analytic_joint_table`` multiplies
    out without compiling, and each probability's draw threshold: ``u <
    p`` is the integer ``k < _draw_threshold(p)``, and draw 0 decides the
    first detection and draw 1 the second.  When the second outcome is
    certain (naive's always) the plan also holds two arcs of draw 0, which
    is all it reads then: the first channel is X below the first
    threshold, and the second is X where the first is, where it is not,
    or everywhere or nowhere.
    """
    if model == "lhv-sign":
        return _Plan((_lhv_breakpoints(bench.alpha, bench.plate_present), _lhv_breakpoints(bench.beta, True)))
    branch = _branch_plan(model, bench)
    first_k, given_x, given_y = thresholds = tuple(map(_draw_threshold, branch[1:]))
    if not {given_x, given_y} <= {0, _DRAWS}:
        return _Plan(None, branch, thresholds)
    first = (0, first_k)
    second = first if given_x > given_y else (first_k, _DRAWS) if given_y > given_x else (0, given_x)
    return _Plan((first, second) if branch[0] is _A else (second, first), branch, thresholds)


def _kernel(plan, master_seed):
    """The chunk kernel of a bench's ``_Plan`` under ``master_seed``.

    The kernel ``outcomes(start, words, a_is_x, b_is_x)`` takes the first
    trial index of a chunk, three uint64 word rows of the chunk's length
    and the two bool rows of that length it is handed, writes the chunk's
    outcomes of channels A and B into those two rows and returns nothing.
    The trial indices are made in the word row that ``uniform_array``
    turns into ``h1``, the row of its last draw, which hashes them in
    place.  A plan with arcs runs ``_arc_kernel``; one without compares
    draw 0 with the first threshold and draw 1 with the second's.
    """
    if plan.arcs:
        return _arc_kernel(*plan.arcs, master_seed)
    a_first = plan.branch[0] is _A
    first_k, given_x, given_y = plan.thresholds
    # the thresholds as 0-d uint64 arrays, which no call has to convert; where
    # the first is X, the second's threshold is given_y plus step, mod 2^64
    first_k, step, given_y = map(_u64, (first_k, given_x - given_y, given_y))

    def outcomes(start, words, a_is_x, b_is_x):
        first_is_x, second_is_x = (a_is_x, b_is_x) if a_first else (b_is_x, a_is_x)
        draws = uniform_array(master_seed, _trial_indices(start, words[1]), (0, 1), words)
        np.less(draws[0], first_k, out=first_is_x)
        # the row after the draws is free scratch once they are made; the
        # bool row is copied into it, since a ufunc that mixes the two
        # dtypes casts through a 64 KiB buffer of its own
        threshold = words[2]
        np.copyto(threshold, first_is_x)
        threshold *= step
        threshold += given_y
        np.less(draws[1], threshold, out=second_is_x)

    return outcomes


#: draws a pin steps from its estimate to the exact flip; the rounding of
#: the scalar rules moves a flip by a few draws at most
_BREAKPOINT_REACH = 64


#: where a hidden angle turned by pi/2 (channel B's, and A's behind the
#: plate) restarts from ~pi to 0: lambda + pi/2 first reaches pi at u = 1/2,
#: where it is exactly pi.  A turned photon's arc of lhv-sign draws is
#: measured from here, an unturned one's from k = 0
_WRAP = _DRAWS // 2


def _lhv_breakpoints(setting, turned):
    """One channel of lhv-sign as the draws (opens, closes) that end its arc of X.

    ``setting`` is the channel's analyzer, and ``turned`` whether its photon
    is the hidden angle turned by the plate rule, ``naive_plate_action``:
    photon A is the hidden angle, photon B is that angle turned, and a plate
    on channel A turns photon A.  So channel A's arc depends only on alpha
    and the plate, and B's only on beta.  From the draw where the photon's
    angle is 0, k going up mod 2^53 sweeps the angle over [0, pi) once, so
    the channel is X on one arc of the draw circle: it opens where the
    angle crosses the setting - pi/4 and closes where it crosses the
    setting + pi/4, and it is X at k exactly when k is in [opens, closes),
    read mod 2^53.  Each end is estimated in closed form, then pinned to
    the draw where the scalar rules (the photon, turned or not, then
    ``lhv_outcome``) flip, so ties keep their bits.
    """
    start = _WRAP if turned else 0
    known = {}

    def is_x(k):
        k %= _DRAWS
        if k not in known:
            lam = lhv_sample(k / _DRAWS)  # photon A at the source, in [0, pi)
            known[k] = lhv_outcome(naive_plate_action(lam) if turned else lam, setting) is _X
        return known[k]

    def pin(edge, to_x):
        # the draw where the outcome flips to ``to_x``, stepped to from the estimate;
        # a pin takes two evaluations when the flip is at k or k + 1, where the
        # rules' rounding puts most opening flips, and most closing ones a draw later
        k = start + math.floor(reduce_mod_pi(edge) / math.pi * _DRAWS) + (0 if to_x else 1)
        step = -1 if is_x(k) == to_x else 1
        for _ in range(_BREAKPOINT_REACH):
            # is_x(k) first: it is known, and when it is not to_x, is_x(k - 1) is not needed
            if is_x(k) == to_x != is_x(k - 1):
                return k % _DRAWS
            k += step
        raise AssertionError(f"no lhv-sign flip within reach of draw {k % _DRAWS}")

    ends = pin(setting.angle - _QUARTER_PI, True), pin(setting.angle + _QUARTER_PI, False)
    # the restart of a turned angle, from ~pi to 0, flips the outcome only as an arc end
    if turned and is_x(_WRAP - 1) != is_x(_WRAP) and _WRAP not in ends:
        raise AssertionError(f"lhv-sign outcome flips at the restart draw {_WRAP}, off its arc {ends}")
    return ends


def _arc_kernel(arc_a, arc_b, master_seed):
    """Chunk kernel of a one-draw plan: each channel is X on one arc ``(opens, closes)`` of draw 0.

    An outcome compares the draw's offset from an arc end with a width.
    The offset k - end is taken mod 2^64, so a draw below the end lands far
    above any width.  An arc that does not wrap past draw 0 is X where the
    offset from its opening is below its width, and an empty one
    (``opens == closes``) is never X; one that wraps is X where the offset
    from its closing reaches the width of its gap of Y.  Every plan that
    reads one draw runs here: lhv-sign's, whose arcs are never empty, and a
    branch plan whose second outcome is certain, whose arcs lie within
    [0, 2^53]; only an uncertain branch plan reads draw 1, on the two-draw
    kernel of ``_kernel``.
    """

    def arc(opens, closes):
        # the end and the width as 0-d uint64 arrays, which no call has to convert
        if opens <= closes:
            return np.less, _u64(opens), _u64(closes - opens)
        return np.greater_equal, _u64(closes), _u64(opens - closes)

    (compare_a, end_a, width_a), (compare_b, end_b, width_b) = arc(*arc_a), arc(*arc_b)

    def outcomes(start, words, a_is_x, b_is_x):
        draws = uniform_array(master_seed, _trial_indices(start, words[0]), (0,), words[:2])[0]
        offset = words[1]
        compare_a(np.subtract(draws, end_a, out=offset), width_a, out=a_is_x)
        compare_b(np.subtract(draws, end_b, out=offset), width_b, out=b_is_x)

    return outcomes


def run_trial(model: str, bench: OpticalBench, master_seed: int, trial_index: int) -> TrialRecord:
    """Simulate one pair emission under ``model``: its ensemble's kernel on a one-trial chunk.

    Draw k of trial i is the counter-based uniform at (master_seed, i, k),
    so any single trial can be replayed without rerunning its ensemble.
    The chunk starts at ``trial_index`` mod 2^64, and its index is made in
    the word row that the kernel hashes, as an ensemble chunk's are.
    """
    _check_model(model)
    trial_index = _integer(trial_index, "trial_index")
    words, flags = _buffers(1)
    _kernel(_compile(model, bench), master_seed)(trial_index, words, *flags)
    outcome_a, outcome_b = (_X if is_x[0] else _Y for is_x in flags)
    return TrialRecord(trial_index, model, outcome_a, outcome_b, detect_b_before_plate(bench))


def _positive_int(name, value):
    n = _integer(value, name)
    if n < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return n


def _check_run_args(model, n_trials, workers):
    """``n_trials`` and ``workers`` as Python ints, once ``model`` and both are checked."""
    _check_model(model)
    return _positive_int("n_trials", n_trials), _positive_int("workers", workers)


def _cores():
    """The CPUs this process may run on: its affinity where the platform has one, else the CPU count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _map_chunks(kernel, n, workers, consume, into=None):
    """Each thread's running total of ``consume(start, a_is_x, b_is_x)`` over trials 0 .. n - 1.

    ``kernel`` is a bench's chunk kernel, and a chunk is a CHUNK-sized run
    of trials.  The calling thread classifies chunks itself, next to
    helper threads up to ``workers``, the chunk count and the CPUs this
    process may run on, one thread in all.  Every thread claims the next
    chunk start from one shared iterator under a lock, so each has one
    chunk in progress at a time, and counter-based draws make a chunk's
    outcomes the same whichever thread runs it: the results are the same
    for any thread count.  Each thread classifies its chunks in one set of
    ``_buffers``, handing the kernel its word rows and two bool rows,
    which ``consume`` then gets and must be done with when it returns, and
    keeps one running total, the elementwise sum of the integer tuples
    ``consume`` returns; a thread that got no chunk has none.  No state of
    a chunk outlives it, so memory stays bounded at any trial count.
    Given ``into``, two bool arrays of n, the two rows handed over are
    the chunk's slices of them instead, and the buffer sets have no bool
    rows.
    A chunk's trial indices are the shared ``_OFFSETS`` plus its start,
    made in one of its word rows, and chunk 0's are a prefix of the
    offsets, so a one-chunk call allocates nothing beyond its buffer set.
    The helpers are joined before the call returns; the first exception
    raised on any thread, an interrupt of the calling thread included,
    stops further claims and is raised here.
    """
    size = min(n, CHUNK)
    starts = range(0, n, CHUNK)
    threads = min(workers, len(starts))
    if threads > 1:
        threads = min(threads, _cores())
    claims = iter(starts)
    lock = threading.Lock()
    # appends to a list are atomic, also on a free-threaded build; the lock
    # guards the claims, which read errors and advance the shared iterator
    totals, errors = [], []

    def work():
        try:
            words, flags = _buffers(size, into is None)
            total = None
            while True:
                with lock:
                    start = None if errors else next(claims, None)
                if start is None:
                    break
                m = min(size, n - start)
                # a full chunk takes the buffers as they are, the last one a prefix
                chunk_words = words if m == size else words[:, :m]
                if into is None:
                    a_is_x, b_is_x = flags if m == size else flags[:, :m]
                else:
                    a_is_x, b_is_x = into[0][start : start + m], into[1][start : start + m]
                kernel(start, chunk_words, a_is_x, b_is_x)
                cells = consume(start, a_is_x, b_is_x)
                total = cells if total is None else tuple(map(add, total, cells))
            if total is not None:
                totals.append(total)
        except BaseException as exc:
            errors.append(exc)

    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    try:
        for helper in helpers:
            helper.start()
        work()
    except BaseException as exc:  # a helper that could not start, or an interrupt between chunks
        errors.append(exc)
    for helper in helpers:
        while helper.is_alive():
            try:
                helper.join()
            except BaseException as exc:  # an interrupt while waiting: no more claims
                errors.append(exc)
    if errors:
        raise errors[0]
    return totals


def simulate_outcomes(
    model: str,
    bench: OpticalBench,
    n_trials: int,
    master_seed: int,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean outcome arrays (a_is_x, b_is_x) for trials 0 .. n_trials - 1.

    Work is split into fixed-size chunks, each classified straight into
    its disjoint slices of the two arrays, so the arrays are
    byte-identical for any worker count.  They are this call's own, made
    for it and shared with no buffer or other call, and each starts on a
    64-byte boundary.
    """
    n_trials, workers = _check_run_args(model, n_trials, workers)
    row = (n_trials + 63) & -64
    block, at = _block(2 * row)
    a_is_x, b_is_x = np.ndarray((2, n_trials), _FLAG, block, at, (row, 1))
    _map_chunks(_kernel(_compile(model, bench), master_seed), n_trials, workers, lambda *chunk: (), (a_is_x, b_is_x))
    return a_is_x, b_is_x


def run_ensemble(
    model: str,
    bench: OpticalBench,
    n_trials: int,
    master_seed: int,
    workers: int = 1,
) -> EnsembleStats:
    """Monte Carlo ensemble: joint outcome counts over ``n_trials`` emissions.

    Counter-based draws make each chunk independent of execution order,
    and the threads' totals are summed as integers, so multi-worker runs
    return exactly the serial counts.
    """
    n_trials, workers = _check_run_args(model, n_trials, workers)

    def count(start: int, a: np.ndarray, b: np.ndarray) -> tuple[int, int, int, int]:
        a_x, b_x = int(np.count_nonzero(a)), int(np.count_nonzero(b))
        # a is this thread's chunk buffer, read already, so it takes a & b in place
        xx = int(np.count_nonzero(np.logical_and(a, b, out=a)))
        return xx, a_x - xx, b_x - xx, len(a) - a_x - b_x + xx

    totals = _map_chunks(_kernel(_compile(model, bench), master_seed), n_trials, workers, count)
    return EnsembleStats(*map(sum, zip(*totals)))


def _ensembles(model, benches, n_trials, master_seed, workers):
    """Each bench with its ensemble, bench k under derived child seed k, run as it is drawn.

    ``run_ensemble`` is looked up at each call, so whatever replaces it in
    this module sees every ensemble.
    """
    for k, bench in enumerate(benches):
        yield bench, run_ensemble(model, bench, n_trials, derive_seed(master_seed, k), workers)


def write_trials_csv(f, bench: OpticalBench, a_is_x, b_is_x) -> None:
    """Write per-trial outcomes in the interchange layout to the binary file ``f``.

    Header trial,outcome_a,outcome_b,b_before_plate; outcomes are X or Y
    and the ordering flag is true/false, constant for a fixed bench; the
    text is ASCII with ``\\n`` line ends. Raises ValueError, before
    writing anything, unless the two outcome arrays are one-dimensional
    and of one length.

    Rows are written one period of 10^4 indices at a time (fewer below
    10^4), so the text never exists whole. For each digit count the writer
    builds one block of rows: the low (up to) four digits of the index,
    which cycle with period 10^4, then ``,Y,Y,flag\\n``. For each period
    only the bytes that vary are written in place: each higher digit that
    differs from the last period's, by one strided fill, and each outcome
    letter as ``'Y' - is_x``, since X is Y - 1.

    Each ``f.write`` gets a C-contiguous view of the block, which the next
    period overwrites, so ``f`` must copy or consume the bytes before
    ``write`` returns (``io.BufferedWriter`` and ``io.BytesIO`` do).
    """
    a_is_x = np.asarray(a_is_x, dtype=bool)
    b_is_x = np.asarray(b_is_x, dtype=bool)
    if a_is_x.ndim != 1 or a_is_x.shape != b_is_x.shape:
        raise ValueError(
            f"outcome arrays must be 1-D and of equal length, got shapes "
            f"{a_is_x.shape} and {b_is_x.shape}"
        )
    # bool and uint8 share their bytes, so the letters need no converted copy
    a_bytes, b_bytes = a_is_x.view(np.uint8), b_is_x.view(np.uint8)
    tail = np.frombuffer(
        f",Y,Y,{'true' if detect_b_before_plate(bench) else 'false'}\n".encode("ascii"),
        dtype=np.uint8,
    )
    letter_y = np.uint8(ord("Y"))
    f.write(b"trial,outcome_a,outcome_b,b_before_plate\n")
    start = 0
    while start < len(a_is_x):
        # one block serves every index with this many digits
        width = len(str(start))
        low = min(width, 4)
        period = 10**low
        block = np.empty((period, width + len(tail)), dtype=np.uint8)
        idx = np.arange(period, dtype=np.uint16)
        for col in range(width - 1, width - 1 - low, -1):
            idx, digit = np.divmod(idx, 10)
            block[:, col] = digit + ord("0")
        block[:, width:] = tail
        end = min(len(a_is_x), 10**width)
        high = bytes(width - low)  # the block's high digits so far: zero bytes, no digit
        while start < end:
            # below 10^4 the indices start partway into their one period;
            # above, every period starts at row 0 of the block
            offset = start % period
            stop = min(end, start - offset + period)
            rows = block[offset : offset + stop - start]
            digits = str(start // period).encode("ascii") if width > low else b""
            for col, (digit, was) in enumerate(zip(digits, high)):
                if digit != was:  # mostly only the last one
                    block[:, col] = digit
            high = digits
            np.subtract(letter_y, a_bytes[start:stop], out=rows[:, width + 1])
            np.subtract(letter_y, b_bytes[start:stop], out=rows[:, width + 3])
            f.write(rows)
            start = stop


# ---------------------------------------------------------------------------
# analytic references

def analytic_joint_table(model: str, bench: OpticalBench) -> ProbTable:
    """Model-exact joint probabilities on a bench, no sampling.

    The quantum and naive tables multiply out the bench's branch plan,
    walked from the model's rules by ``_branch_plan``, the value that
    their kernels' thresholds are compiled from, P(first) * P(second |
    first), ordered channel A first; the hidden-angle table comes from
    the sawtooth correlator with uniform marginals, which reads no plan.
    """
    _check_model(model)
    if model == "lhv-sign":
        e = lhv_sign_correlator(bench.plate_present)(bench.alpha, bench.beta)
        same = (1.0 + e) / 4.0
        diff = (1.0 - e) / 4.0
        return ProbTable([same, diff, diff, same])
    first_ch, p1x, p2x_given_x, p2x_given_y = _branch_plan(model, bench)
    p1y = 1.0 - p1x
    # first outcome, then second: XX, XY, YX, YY
    xx, xy = p1x * p2x_given_x, p1x * (1.0 - p2x_given_x)
    yx, yy = p1y * p2x_given_y, p1y * (1.0 - p2x_given_y)
    return ProbTable([xx, xy, yx, yy] if first_ch is _A else [xx, yx, xy, yy])


def analytic_E(model: str, bench: OpticalBench) -> float:
    """Exact correlator of ``model`` on this bench."""
    p = analytic_joint_table(model, bench).p
    return float(p[XX] + p[YY] - p[XY] - p[YX])


def analytic_chsh(model: str, angles: ChshAngles, plate_present: bool = True) -> ChshReport:
    """CHSH report from the model's exact correlator (zero standard errors).

    Each term is ``analytic_E`` on the default bench at its setting pair.
    """
    return chsh_S(lambda a, b: analytic_E(model, OpticalBench(alpha=a, beta=b, plate_present=plate_present)), angles)


# ---------------------------------------------------------------------------
# higher-level experiments


@dataclass(frozen=True)
class OrderInvarianceReport:
    """Side-by-side ensembles of an early-detection and a late-detection bench.

    Each cell's frequency delta is judged against four combined standard
    errors; verdict SAME means every cell cleared that bar.
    """

    model: str
    early: EnsembleStats
    late: EnsembleStats
    analytic_early: tuple[float, ...]
    analytic_late: tuple[float, ...]

    @property
    def delta_f(self) -> tuple[float, ...]:
        return tuple(fl - fe for fe, fl in zip(self.early.frequencies, self.late.frequencies))

    @property
    def combined_stderr(self) -> tuple[float, ...]:
        pairs = zip(self.early.cell_stderr(), self.late.cell_stderr())
        return tuple(math.sqrt(se * se + sl * sl) for se, sl in pairs)

    @property
    def delta_e(self) -> float:
        return self.late.e_hat - self.early.e_hat

    @property
    def delta_e_stderr(self) -> float:
        return math.sqrt(self.early.stderr_e**2 + self.late.stderr_e**2)

    @property
    def same(self) -> bool:
        # <= rather than <, so a cell reproduced exactly (delta 0, stderr 0) passes
        return all(abs(d) <= 4.0 * c for d, c in zip(self.delta_f, self.combined_stderr))

    @property
    def verdict(self) -> str:
        return "SAME" if self.same else "DIFFERENT"


def order_invariance_report(
    model: str,
    bench_early: OpticalBench,
    bench_late: OpticalBench,
    n_trials: int,
    master_seed: int,
    workers: int = 1,
) -> OrderInvarianceReport:
    """Does moving channel B's prism across the plate time change the counts?

    The benches must be identical apart from d_prism_b, with the early
    bench detecting B before the plate acts and the late bench after.
    Each bench runs under its own derived child seed (streams 0 and 1).
    """
    _check_model(model)
    if replace(bench_early, d_prism_b=bench_late.d_prism_b) != bench_late:
        raise ValueError("benches must differ only in d_prism_b")
    if not detect_b_before_plate(bench_early):
        raise ValueError("early bench must detect B before the plate acts")
    if detect_b_before_plate(bench_late):
        raise ValueError("late bench must detect B after the plate acts")
    runs = _ensembles(model, (bench_early, bench_late), n_trials, master_seed, workers)
    return OrderInvarianceReport(
        model,
        *(stats for _, stats in runs),
        tuple(float(p) for p in analytic_joint_table(model, bench_early).p),
        tuple(float(p) for p in analytic_joint_table(model, bench_late).p),
    )


def chsh_experiment(
    model: str,
    angles: ChshAngles,
    n_per_setting: int,
    master_seed: int,
    plate_present: bool = True,
    workers: int = 1,
) -> ChshReport:
    """Monte Carlo CHSH run: four ensembles, one per setting pair.

    Setting pairs follow the report order (a,b), (a,b'), (a',b), (a',b'),
    pair k running under derived child seed k so every term is independent
    and individually reproducible.
    """
    _check_model(model)
    benches = (OpticalBench(alpha=a, beta=b, plate_present=plate_present) for a, b in angles.pairs())
    stats = [st for _, st in _ensembles(model, benches, n_per_setting, master_seed, workers)]
    return ChshReport(*(st.e_hat for st in stats), *(st.stderr_e for st in stats))
