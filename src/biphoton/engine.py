"""Timed optical bench: event ordering, single trials, Monte Carlo ensembles.

A bench places a pair source at the origin, a removable half-wave plate
and a polarizing prism on channel A, and a prism on channel B, all at
configurable distances.  Photons travel at c, so the order in which the
plate acts and the detections fire is set purely by geometry; exact ties
are broken by a fixed event precedence (plate, then B, then A).

Every trial is driven by counter-based uniform draws keyed on
(master_seed, trial_index, draw_counter), so a run is reproducible from
its seed alone and any single trial can be replayed in isolation.  Each
model compiles a bench once into a chunk kernel built from the per-event
rules in ``quantum`` and ``local``; the ensembles apply it to chunks of
trial indices and ``run_trial`` to a single index, so a replayed trial is
its ensemble's trial by construction.  The quantum and naive models
compile to a branch plan of outcome probabilities, made by one walk of
the timeline through each model's four rules (the pair at emission, the
plate, P(X) at one analyzer, the pair after a detection); the
hidden-angle model compiles to draw thresholds: a draw is k / 2^53, each
outcome is piecewise constant in k, and the breakpoints are pinned with
the scalar rules of ``local``.  Either way a kernel compares the integer
draws k from ``rng.uniform_array`` with integer thresholds (u < p is
k < ceil(p * 2^53)), in place, in buffers that each thread of an
ensemble reuses from chunk to chunk.  Draw discipline per trial,
unchanged by the compilation: the hidden-angle model reads one draw (the
shared angle at emission); the quantum and naive models read draw 0 for
the first detection in time order and draw 1 for the second only if the
first leaves it uncertain, which for the naive model it never does.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
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
    lhv_pair,
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
    AnalyzerSetting,
    Channel,
    PolAxis,
    ProbTable,
    apply_element,
    as_setting,
    hwp_jones,
    make_anticorrelated_pair,
    marginal,
    measure_channel,  # unused here, but perfbench/tracer.py times it through this name
    project_channel,
)
from .rng import derive_seed, uniform_array

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by definition

#: trials per vectorized chunk; fixed so the chunking (and therefore the
#: output) is identical for any worker count
CHUNK = 65_536

MODEL_NAMES = ("qm", "lhv-sign", "naive")

_HALF_PI = math.pi / 2.0
_QUARTER_PI = math.pi / 4.0


class BenchEvent(IntEnum):
    """Bench events; the enum value breaks ties between simultaneous events."""

    PLATE_A = 0
    DETECT_B = 1
    DETECT_A = 2


class TimedEvent(NamedTuple):
    time: float
    event: BenchEvent


@dataclass(frozen=True)
class OpticalBench:
    """Geometry and settings of one run; distances in meters from the source.

    When the plate is present it must sit no farther out than channel A's
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
        for name in ("d_plate_a", "d_prism_a", "d_prism_b"):
            d = getattr(self, name)
            if isinstance(d, bool) or not (isinstance(d, (int, float)) and math.isfinite(d) and d >= 0.0):
                raise ValueError(f"{name} must be a nonnegative distance in meters, got {d!r}")
            object.__setattr__(self, name, float(d))
        for name in ("alpha", "beta"):
            object.__setattr__(self, name, as_setting(getattr(self, name)))
        if not isinstance(self.plate_present, (bool, np.bool_)):
            raise ValueError(f"plate_present must be true or false, got {self.plate_present!r}")
        object.__setattr__(self, "plate_present", bool(self.plate_present))
        pa = self.plate_angle
        if isinstance(pa, bool) or not (isinstance(pa, (int, float)) and math.isfinite(pa)):
            raise ValueError(f"plate_angle must be finite radians, got {pa!r}")
        object.__setattr__(self, "plate_angle", float(pa))
        if self.plate_present and self.d_plate_a > self.d_prism_a:
            raise ValueError("plate must sit between source and prism: d_plate_a <= d_prism_a")

    #: config key -> (field, conversion from the config units, conversion
    #: back to them), in layout order
    CONFIG_KEYS = {
        "d_plate_a_m": ("d_plate_a", float, float),
        "d_prism_a_m": ("d_prism_a", float, float),
        "d_prism_b_m": ("d_prism_b", float, float),
        "alpha_deg": ("alpha", AnalyzerSetting.from_degrees, lambda s: math.degrees(s.angle)),
        "beta_deg": ("beta", AnalyzerSetting.from_degrees, lambda s: math.degrees(s.angle)),
        "plate_present": ("plate_present", bool, bool),
        "plate_angle_deg": ("plate_angle", math.radians, math.degrees),
    }

    @classmethod
    def from_config(cls, config: dict) -> "OpticalBench":
        """Build a bench from the JSON config layout (lengths _m, angles _deg).

        Missing keys fall back to the defaults; unknown keys are rejected
        rather than silently ignored.
        """
        unknown = set(config) - set(cls.CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown bench config keys: {sorted(unknown)}")
        kwargs = {}
        for key, (field_name, to_si, _) in cls.CONFIG_KEYS.items():
            if key in config:
                # the flag goes in as given: __post_init__ rejects anything but a bool
                kwargs[field_name] = config[key] if to_si is bool else to_si(_config_number(key, config[key]))
        return cls(**kwargs)

    def to_config_dict(self) -> dict:
        """The bench as a JSON-ready config dict (lengths _m, angles _deg)."""
        return {key: from_si(getattr(self, name)) for key, (name, _, from_si) in self.CONFIG_KEYS.items()}


def _config_number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"bench config key {key} must be a number, got {value!r}")
    return float(value)


def build_timeline(bench: OpticalBench) -> tuple[TimedEvent, ...]:
    """Events of one trial at time distance / c, sorted by time, ties by event precedence."""
    events = [
        TimedEvent(bench.d_prism_b / SPEED_OF_LIGHT, BenchEvent.DETECT_B),
        TimedEvent(bench.d_prism_a / SPEED_OF_LIGHT, BenchEvent.DETECT_A),
    ]
    if bench.plate_present:
        events.append(TimedEvent(bench.d_plate_a / SPEED_OF_LIGHT, BenchEvent.PLATE_A))
    return tuple(sorted(events))


def detect_b_before_plate(bench: OpticalBench) -> bool:
    """Whether channel B's detection fires before the plate acts.

    False when the plate is absent: there is nothing to beat.  The plate
    never acts after A's detection and wins ties, so B beats it exactly
    when B's detection is the first event.
    """
    return bench.plate_present and build_timeline(bench)[0].event is BenchEvent.DETECT_B


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
        for name in ("n_xx", "n_xy", "n_yx", "n_yy"):
            c = getattr(self, name)
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"{name} must be a nonnegative integer count, got {c!r}")
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

    def to_json_dict(self) -> dict:
        return {
            "n_xx": self.n_xx,
            "n_xy": self.n_xy,
            "n_yx": self.n_yx,
            "n_yy": self.n_yy,
            "e_hat": self.e_hat,
            "stderr_e": self.stderr_e,
        }


def _check_model(model: str) -> str:
    if model not in MODEL_NAMES:
        raise ValueError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")
    return model


# ---------------------------------------------------------------------------
# per-bench plans: each model compiles a bench into one chunk kernel


def _qm_rules(bench):
    """quantum's per-event rules; the walk's state is the pair's joint state."""
    plate = hwp_jones(bench.plate_angle)
    return (
        make_anticorrelated_pair(),
        lambda state: apply_element(state, Channel.A, plate),
        lambda state, channel, setting: marginal(state, channel, setting)[0],
        project_channel,
    )


def _naive_rules(bench):
    """local's naive rules; the walk's state is the photon angles (A, B), None while unpolarized."""

    def registered(photons, channel, setting, outcome):
        partner = naive_partner(setting, outcome)
        return (photons[0], partner) if channel is Channel.A else (partner, photons[1])

    return (
        (None, None),
        lambda photons: (naive_plate_action(photons[0]), photons[1]),
        lambda photons, channel, setting: naive_p_x(photons[0 if channel is Channel.A else 1], setting),
        registered,
    )


#: per two-detection model, the rules that ``_branch_plan`` walks into (first-detected
#: channel, P(first = X), P(second = X | first = X), P(second = X | first = Y))
_RULES = {"qm": _qm_rules, "naive": _naive_rules}


def _branch_plan(model, bench):
    """Branch plan of a two-detection model, walking the bench's timeline through its rules.

    The model's rules give the pair at emission, the plate's action on it,
    P(X) at one analyzer, and the pair after an analyzer registers an
    outcome.  P(first = X) is 1/2 up to rounding on every bench (the first
    detection always meets an unpolarized photon or half of a maximally
    entangled pair), so both branches are live.
    """
    state, plate, p_x, registered = _RULES[model](bench)
    timeline = build_timeline(bench)
    i = 0
    while timeline[i].event is BenchEvent.PLATE_A:
        state = plate(state)
        i += 1
    first_ch = Channel.A if timeline[i].event is BenchEvent.DETECT_A else Channel.B
    second_ch = Channel.B if first_ch is Channel.A else Channel.A
    first_setting = bench.alpha if first_ch is Channel.A else bench.beta
    second_setting = bench.alpha if second_ch is Channel.A else bench.beta
    p1x = p_x(state, first_ch, first_setting)
    tail = timeline[i + 1 :]

    def second_p_x(first_outcome: PolAxis) -> float:
        branch = registered(state, first_ch, first_setting, first_outcome)
        for ev in tail:
            if ev.event is BenchEvent.PLATE_A:
                branch = plate(branch)
        return p_x(branch, second_ch, second_setting)

    return first_ch, p1x, second_p_x(PolAxis.X), second_p_x(PolAxis.Y)


#: draws per unit: a draw is u = k / DRAWS for an integer k in [0, DRAWS)
_DRAWS = 2**53


def _draw_threshold(p: float) -> int:
    """The K for which a draw k has k < K exactly when u = k / 2^53 < p.

    k / 2^53 and p * 2^53 are exact, so u < p is k < p * 2^53, which for an
    integer k is k < ceil(p * 2^53).
    """
    return math.ceil(p * _DRAWS)


def _buffers(size: int):
    """One thread's scratch for chunks of up to ``size`` trials.

    Four uint64 rows: the trial indices and three rows of words.  Three
    bool rows: the outcomes of channels A and B, and scratch.
    """
    return np.empty((4, size), dtype=np.uint64), np.empty((3, size), dtype=bool)


def _kernel(model, bench, master_seed):
    """Plan the bench once and return its chunk kernel.

    The kernel maps trial indices, three uint64 word rows and three bool
    rows of their length to (a_is_x, b_is_x), classified in place into the
    first two bool rows.  A two-detection model samples its branch plan:
    draw 0 decides the first detection, draw 1 the second, read only if
    the plan leaves it uncertain; ``u < p`` is compared as the integer
    ``k < _draw_threshold(p)``.
    """
    if model == "lhv-sign":
        return _lhv_kernel(bench, master_seed)
    first_ch, p1x, p2x_given_x, p2x_given_y = _branch_plan(model, bench)
    first_k = _draw_threshold(p1x)
    given_x, given_y = _draw_threshold(p2x_given_x), _draw_threshold(p2x_given_y)
    # a second threshold of 0 or 2^53 needs no draw: the second is Y or X at any k,
    # so k = 0 stands in for draw 1
    certain = {given_x, given_y} <= {0, _DRAWS}
    counters = (0,) if certain else (0, 1)
    # where the first is X, the second's threshold is given_y plus this, mod 2^64
    step = np.uint64((given_x - given_y) % 2**64)

    def outcomes(indices, words, flags):
        first_is_x, second_is_x, _ = flags
        draws = uniform_array(master_seed, indices, counters, words[: len(counters) + 1])
        np.less(draws[0], first_k, out=first_is_x)
        # the row after the draws is free scratch once they are made
        threshold = np.multiply(first_is_x, step, out=words[len(counters)])
        threshold += given_y
        np.less(0 if certain else draws[1], threshold, out=second_is_x)
        return (first_is_x, second_is_x) if first_ch is Channel.A else (second_is_x, first_is_x)

    return outcomes


#: draws either side of a closed-form breakpoint searched for the exact one;
#: the rounding of the scalar rules moves a breakpoint by a few draws at most
_BREAKPOINT_REACH = 64


#: where a hidden angle turned by pi/2 (channel B's, and A's behind the
#: plate) wraps from ~pi to ~0: lambda + pi/2 first reaches pi at u = 1/2,
#: where it is exactly pi; on either side the angle is nondecreasing in k
_WRAP = _DRAWS // 2


def _lhv_breakpoints(bench, channel):
    """One channel of lhv-sign as (outcome X at draw k = 0, the sorted k where it flips).

    Between wraps the hidden angle is nondecreasing in k, so the outcome
    flips only where the angle crosses the setting - pi/4 (to X) or the
    setting + pi/4 (to Y), mod pi.  Each crossing is located in closed
    form, then pinned to the draw where the scalar rules (``lhv_pair``,
    ``naive_plate_action``, ``lhv_outcome``) flip, so ties keep their bits.
    """
    setting = bench.alpha if channel is Channel.A else bench.beta
    known = {}

    def is_x(k):
        if k not in known:
            photon_a, photon_b = lhv_pair(lhv_sample(k / _DRAWS))
            if channel is Channel.B:
                photon = photon_b
            else:
                photon = naive_plate_action(photon_a) if bench.plate_present else photon_a
            known[k] = lhv_outcome(photon, setting) is PolAxis.X
        return known[k]

    def pin(k, before, lo, hi):
        # the k in (lo, hi] where the outcome leaves ``before``, searched
        # within reach of the estimate k; None if it leaves the piece first
        lo_reach, hi_reach = max(lo, k - _BREAKPOINT_REACH), min(hi, k + _BREAKPOINT_REACH)
        k = min(max(k, lo_reach + 1), hi_reach)
        step = 1 if is_x(k) == before else -1
        while lo_reach < k <= hi_reach:
            if is_x(k - 1) == before != is_x(k):
                return k
            k += step
        if (hi_reach < hi) if step > 0 else (lo_reach > lo):
            raise AssertionError(f"no lhv-sign breakpoint within reach of draw {k}")
        return None

    if channel is Channel.B or bench.plate_present:
        pieces = ((0, _WRAP - 1, _HALF_PI), (_WRAP, _DRAWS - 1, -_HALF_PI))
    else:
        pieces = ((0, _DRAWS - 1, 0.0),)
    flips = {}  # breakpoint -> whether the outcome is X before it
    near_wrap = False
    for lo, hi, turn in pieces:
        for edge, before in ((setting.angle - _QUARTER_PI, False), (setting.angle + _QUARTER_PI, True)):
            for lap in (-math.pi, 0.0, math.pi):
                k = round((edge + lap - turn) / math.pi * _DRAWS)
                if lo - _BREAKPOINT_REACH <= k <= hi + _BREAKPOINT_REACH:
                    near_wrap |= abs(k - _WRAP) <= _BREAKPOINT_REACH
                    k = pin(k, before, lo, hi)
                    if k is not None:
                        flips[k] = before
    if near_wrap and is_x(_WRAP - 1) != is_x(_WRAP):
        flips[_WRAP] = is_x(_WRAP - 1)
    ks = sorted(flips)
    # X and Y each take half the angles mod pi, so the outcome flips somewhere
    if not ks or any(flips[a] == flips[b] for a, b in zip(ks, ks[1:])):
        raise AssertionError(f"lhv-sign breakpoints {ks} do not alternate")
    return flips[ks[0]], ks


def _lhv_kernel(bench, master_seed):
    """Chunk kernel of lhv-sign: each outcome compares the draw with its channel's breakpoints."""
    plans = [_lhv_breakpoints(bench, channel) for channel in (Channel.A, Channel.B)]

    def outcomes(indices, words, flags):
        (draws,) = uniform_array(master_seed, indices, (0,), words[:2])
        for is_x, (x_at_0, flips) in zip(flags, plans):
            # X at k = 0, flipped at each breakpoint k has reached
            (np.less if x_at_0 else np.greater_equal)(draws, flips[0], out=is_x)
            for k in flips[1:]:
                is_x ^= np.greater_equal(draws, k, out=flags[2])
        return flags[0], flags[1]

    return outcomes


def run_trial(model: str, bench: OpticalBench, master_seed: int, trial_index: int) -> TrialRecord:
    """Simulate one pair emission under ``model``: its ensemble's kernel on one index.

    Draw k of trial i is the counter-based uniform at (master_seed, i, k),
    so any single trial can be replayed without rerunning its ensemble.
    """
    _check_model(model)
    if isinstance(trial_index, bool) or not isinstance(trial_index, (int, np.integer)):
        raise ValueError(f"trial_index must be an integer, got {trial_index!r}")
    trial_index = int(trial_index)
    words, flags = _buffers(1)
    words[0] = trial_index % 2**64
    a_is_x, b_is_x = _kernel(model, bench, master_seed)(words[0], words[1:], flags)
    return TrialRecord(
        trial_index,
        model,
        PolAxis.X if a_is_x[0] else PolAxis.Y,
        PolAxis.X if b_is_x[0] else PolAxis.Y,
        detect_b_before_plate(bench),
    )


def _check_run_args(model, n_trials, workers):
    _check_model(model)
    if isinstance(n_trials, bool) or not isinstance(n_trials, int) or n_trials < 1:
        raise ValueError(f"n_trials must be a positive integer, got {n_trials!r}")
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")


#: chunks submitted to the pool ahead of the one handed over, per thread: deep
#: enough that while one thread is stalled on a chunk (descheduled, say) the
#: others keep taking queued chunks instead of waiting on the in-order handover
_IN_FLIGHT_PER_THREAD = 8


def _map_chunks(model, bench, n_trials, master_seed, workers, consume):
    """Yield ``consume(start, a_is_x, b_is_x)`` of each CHUNK-sized run of trials, in chunk order.

    The bench is planned once per call.  Counter-based draws make each
    chunk independent of execution order, so the results are the same for
    any thread count.  Threads are bounded by the chunk count and the
    cores; with one, the chunks run serially.  Each thread of the call
    classifies its chunks in one set of buffers, which ``consume`` must be
    done with when it returns.  At most ``_IN_FLIGHT_PER_THREAD`` chunks
    per thread are in flight, so memory stays bounded at any trial count.
    """
    kernel = _kernel(model, bench, master_seed)
    size = min(n_trials, CHUNK)
    offsets = np.arange(size, dtype=np.uint64)
    local = threading.local()

    def task(start: int):
        if not hasattr(local, "buffers"):
            local.buffers = _buffers(size)
        words, flags = local.buffers
        m = min(size, n_trials - start)
        # chunk 0's trial indices are the offsets themselves
        indices = np.add(offsets[:m], np.uint64(start), out=words[0, :m]) if start else offsets[:m]
        return consume(start, *kernel(indices, words[1:, :m], flags[:, :m]))

    starts = range(0, n_trials, CHUNK)
    threads = min(workers, len(starts))
    if threads > 1:
        threads = min(threads, os.cpu_count() or 1)
    if threads == 1:
        yield from map(task, starts)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        in_flight = deque()
        for start in starts:
            if len(in_flight) == threads * _IN_FLIGHT_PER_THREAD:
                yield in_flight.popleft().result()
            in_flight.append(pool.submit(task, start))
        while in_flight:
            yield in_flight.popleft().result()


def simulate_outcomes(
    model: str,
    bench: OpticalBench,
    n_trials: int,
    master_seed: int,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean outcome arrays (a_is_x, b_is_x) for trials 0 .. n_trials - 1.

    Work is split into fixed-size chunks writing disjoint slices, so the
    arrays are byte-identical for any worker count.
    """
    _check_run_args(model, n_trials, workers)
    a_is_x = np.empty(n_trials, dtype=bool)
    b_is_x = np.empty(n_trials, dtype=bool)

    def fill(start: int, a: np.ndarray, b: np.ndarray) -> None:
        a_is_x[start : start + len(a)] = a
        b_is_x[start : start + len(b)] = b

    for _ in _map_chunks(model, bench, n_trials, master_seed, workers, fill):
        pass
    return a_is_x, b_is_x


def run_ensemble(
    model: str,
    bench: OpticalBench,
    n_trials: int,
    master_seed: int,
    workers: int = 1,
) -> EnsembleStats:
    """Monte Carlo ensemble: joint outcome counts over ``n_trials`` emissions.

    Counter-based draws make each chunk independent of execution order, so
    multi-worker runs return exactly the serial counts.
    """
    _check_run_args(model, n_trials, workers)

    def count(start: int, a: np.ndarray, b: np.ndarray) -> tuple[int, int, int, int]:
        xx = int(np.count_nonzero(a & b))
        a_x, b_x = int(np.count_nonzero(a)), int(np.count_nonzero(b))
        return xx, a_x - xx, b_x - xx, len(a) - a_x - b_x + xx

    totals = (0, 0, 0, 0)
    for cells in _map_chunks(model, bench, n_trials, master_seed, workers, count):
        totals = tuple(map(add, totals, cells))
    return EnsembleStats(*totals)


def write_trials_csv(f, bench: OpticalBench, a_is_x, b_is_x) -> None:
    """Write per-trial outcomes in the interchange layout to the binary file ``f``.

    Header trial,outcome_a,outcome_b,b_before_plate; outcomes are X or Y
    and the ordering flag is true/false, constant for a fixed bench; the
    text is ASCII with ``\\n`` line ends. Raises ValueError, before
    writing anything, unless the two outcome arrays are one-dimensional
    and of one length.

    Rows are written CHUNK at a time, so the text never exists whole.
    Each run of indices with one digit count is rendered as contiguous
    slices of a byte template built once for that digit count: the low
    (up to) four digits of the index cycle with period 10^4 and the tail
    is ``,Y,Y,flag\\n``, so the template is one period of rows tiled
    often enough that a chunk starting at offset ``start % 10^4`` fits in
    one slice. In that slice only the bytes that vary are written in
    place: each outcome letter as ``'Y' - is_x``, since X is Y - 1, and
    the higher digits, which are constant over each run of 10^4 rows, by
    one strided fill per digit and run.

    Each ``f.write`` gets a C-contiguous view of the template, which the
    next chunk overwrites, so ``f`` must copy or consume the bytes before
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
        # one template serves every index with this many digits
        width = len(str(start))
        low = min(width, 4)
        period = 10**low
        block = np.empty((period, width + len(tail)), dtype=np.uint8)
        idx = np.arange(period)
        for col in range(width - 1, width - 1 - low, -1):
            idx, digit = np.divmod(idx, 10)
            block[:, col] = digit + ord("0")
        block[:, width:] = tail
        # below 10^4 an index is all low digits and one period holds them;
        # above, a chunk starts anywhere in a period and the slice from
        # there must still hold CHUNK rows
        repeats = 1 if width == low else math.ceil((CHUNK + period - 1) / period)
        template = np.tile(block, (repeats, 1))
        end = min(len(a_is_x), 10**width)
        while start < end:
            stop = min(end, (start // CHUNK + 1) * CHUNK)
            offset = start % period
            rows = template[offset : offset + stop - start]
            np.subtract(letter_y, a_bytes[start:stop], out=rows[:, width + 1])
            np.subtract(letter_y, b_bytes[start:stop], out=rows[:, width + 3])
            if width > low:
                for run in range(start - offset, stop, period):
                    first, last = max(run - start, 0), run + period - start
                    for col, digit in enumerate(str(run // period).encode("ascii")):
                        rows[first:last, col] = digit
            f.write(rows)
            start = stop


# ---------------------------------------------------------------------------
# analytic references

def analytic_joint_table(model: str, bench: OpticalBench) -> ProbTable:
    """Model-exact joint probabilities on a bench, no sampling.

    The quantum and naive tables multiply out their branch plans,
    P(first) * P(second | first), ordered channel A first; the hidden-angle
    table comes from the sawtooth correlator with uniform marginals.
    """
    _check_model(model)
    if model == "lhv-sign":
        e = lhv_sign_correlator(bench.plate_present)(bench.alpha, bench.beta)
        same = (1.0 + e) / 4.0
        diff = (1.0 - e) / 4.0
        return ProbTable([same, diff, diff, same])
    first_ch, p1x, p2x_given_x, p2x_given_y = _branch_plan(model, bench)
    # joint[f, s]: first outcome f, second outcome s, X before Y
    joint = np.array([[p1x], [1.0 - p1x]]) * np.array(
        [[p2x_given_x, 1.0 - p2x_given_x], [p2x_given_y, 1.0 - p2x_given_y]]
    )
    return ProbTable(joint if first_ch is Channel.A else joint.T)


def analytic_E(model: str, bench: OpticalBench) -> float:
    """Exact correlator of ``model`` on this bench."""
    p = analytic_joint_table(model, bench).p
    return float(p[XX] + p[YY] - p[XY] - p[YX])


def analytic_chsh(model: str, angles: ChshAngles, plate_present: bool = True) -> ChshReport:
    """CHSH report from the model's exact correlator (zero standard errors)."""
    benches = {(bench.alpha, bench.beta): bench for bench in _chsh_benches(angles, plate_present)}
    return chsh_S(lambda alpha, beta: analytic_E(model, benches[alpha, beta]), angles)


def _chsh_benches(angles: ChshAngles, plate_present: bool) -> list[OpticalBench]:
    """The default bench at each CHSH setting pair, in report order."""
    return [OpticalBench(alpha=a, beta=b, plate_present=plate_present) for a, b in angles.pairs()]


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
    def n_per_bench(self) -> int:
        return self.early.n

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

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "n_per_bench": self.n_per_bench,
            "early": self.early.to_json_dict(),
            "late": self.late.to_json_dict(),
            "analytic_early": list(self.analytic_early),
            "analytic_late": list(self.analytic_late),
            "delta_f": list(self.delta_f),
            "combined_stderr": list(self.combined_stderr),
            "delta_e": self.delta_e,
            "delta_e_stderr": self.delta_e_stderr,
            "verdict": self.verdict,
        }


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
    return OrderInvarianceReport(
        model,
        run_ensemble(model, bench_early, n_trials, derive_seed(master_seed, 0), workers),
        run_ensemble(model, bench_late, n_trials, derive_seed(master_seed, 1), workers),
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
    stats = [
        run_ensemble(model, bench, n_per_setting, derive_seed(master_seed, k), workers)
        for k, bench in enumerate(_chsh_benches(angles, plate_present))
    ]
    return ChshReport(*(st.e_hat for st in stats), *(st.stderr_e for st in stats))
