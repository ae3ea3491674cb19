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
its ensemble's trial by construction.  Draw discipline per trial: the
hidden-angle model reads one draw (the shared angle at emission); the
quantum and naive models read draw 0 for the first detection in time
order and draw 1 for the second only if the first leaves it uncertain,
which for the naive model it never does.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import IntEnum
from functools import partial
from typing import NamedTuple

import numpy as np

from .local import (
    ChshAngles,
    ChshReport,
    HiddenState,
    chsh_S,
    lhv_sample,
    lhv_sign_correlator,
    naive_measure,
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
    measure_channel,
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
    prism, so it always acts before A's detection.
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
            if not (isinstance(d, (int, float)) and math.isfinite(d) and d >= 0.0):
                raise ValueError(f"{name} must be a nonnegative distance in meters, got {d!r}")
            object.__setattr__(self, name, float(d))
        object.__setattr__(self, "alpha", as_setting(self.alpha))
        object.__setattr__(self, "beta", as_setting(self.beta))
        object.__setattr__(self, "plate_present", bool(self.plate_present))
        pa = self.plate_angle
        if not (isinstance(pa, (int, float)) and math.isfinite(pa)):
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
                kwargs[field_name] = to_si(_config_value(key, config[key], to_si is bool))
        return cls(**kwargs)

    def to_config_dict(self) -> dict:
        """The bench as a JSON-ready config dict (lengths _m, angles _deg)."""
        return {key: from_si(getattr(self, name)) for key, (name, _, from_si) in self.CONFIG_KEYS.items()}


def _config_value(key: str, value, is_flag: bool):
    if is_flag:
        if not isinstance(value, bool):
            raise ValueError(f"{key} must be true or false, got {value!r}")
        return value
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


def _naive_walk(bench, timeline, u: float):
    """Outcomes of one naive trial whose single draw is ``u``, in detection order.

    The first detection always meets an unpolarized photon (the plate
    passes those unchanged), so it is the only one that reads ``u``; the
    second meets the definite partner and answers by the sign rule.
    """
    photon_a = photon_b = HiddenState.unpolarized()
    outcomes = {}
    for _, event in timeline:
        if event is BenchEvent.PLATE_A:
            photon_a = naive_plate_action(photon_a)
            continue
        channel = Channel.A if event is BenchEvent.DETECT_A else Channel.B
        setting = bench.alpha if channel is Channel.A else bench.beta
        photon = photon_a if channel is Channel.A else photon_b
        outcome, partner = naive_measure(photon, setting, u)
        outcomes[channel] = outcome
        if partner is not None:
            if channel is Channel.A:
                photon_b = partner
            else:
                photon_a = partner
    return outcomes


def _naive_plan(bench, timeline):
    """Branch plan of the naive model: a fair first detection, a certain second.

    The first detection answers X iff its draw is below 1/2, so the walks
    at u = 0 and u = 0.5 are the two branches.
    """
    branches = [_naive_walk(bench, timeline, u) for u in (0.0, 0.5)]
    first_ch, second_ch = branches[0]  # the walk records detections in time order
    return (first_ch, 0.5, *(float(branch[second_ch] is PolAxis.X) for branch in branches))


def _qm_plan(bench, timeline):
    """Branch plan of the quantum model from quantum's per-event rules.

    P(first = X) is 1/2 up to rounding on every bench (a maximally entangled
    pair, a plate on channel A alone), so both branches are live.
    """
    plate = hwp_jones(bench.plate_angle)
    state = make_anticorrelated_pair()
    i = 0
    while timeline[i].event is BenchEvent.PLATE_A:
        state = apply_element(state, Channel.A, plate)
        i += 1
    first_ch = Channel.A if timeline[i].event is BenchEvent.DETECT_A else Channel.B
    second_ch = Channel.B if first_ch is Channel.A else Channel.A
    first_setting = bench.alpha if first_ch is Channel.A else bench.beta
    second_setting = bench.alpha if second_ch is Channel.A else bench.beta
    p1x = marginal(state, first_ch, first_setting)[0]
    tail = timeline[i + 1 :]

    def second_threshold(forcing_u: float) -> float:
        branch = measure_channel(state, first_ch, first_setting, forcing_u).collapsed
        for ev in tail:
            if ev.event is BenchEvent.PLATE_A:
                branch = apply_element(branch, Channel.A, plate)
        return marginal(branch, second_ch, second_setting)[0]

    # u = 0 forces the X branch, u = p1x the Y branch
    return first_ch, p1x, second_threshold(0.0), second_threshold(p1x)


#: per two-detection model, the compiler of a bench into its branch plan (first-detected
#: channel, P(first = X), P(second = X | first = X), P(second = X | first = Y))
_BRANCH_PLANS = {"qm": _qm_plan, "naive": _naive_plan}


def _branch_kernel(compile_plan, bench, timeline, master_seed):
    """Chunk kernel sampling the branch plan that ``compile_plan`` makes of the bench.

    Draw 0 decides the first detection, draw 1 the second, read only if the
    plan leaves it uncertain: for u in [0, 1), u < p2x is p2x == 1.0 when
    p2x is 0 or 1.
    """
    first_ch, p1x, p2x_given_x, p2x_given_y = compile_plan(bench, timeline)
    certain = {p2x_given_x, p2x_given_y} <= {0.0, 1.0}

    def outcomes(indices):
        first_is_x = uniform_array(master_seed, indices, 0) < p1x
        p2x = np.where(first_is_x, p2x_given_x, p2x_given_y)
        second_is_x = p2x == 1.0 if certain else uniform_array(master_seed, indices, 1) < p2x
        return (first_is_x, second_is_x) if first_ch is Channel.A else (second_is_x, first_is_x)

    return outcomes


def _reduce_mod_pi_arr(x: np.ndarray) -> np.ndarray:
    # elementwise twin of quantum.reduce_mod_pi for x in (-pi, 3pi/2], where
    # fmod(x, pi) is x itself or the exact x - pi (Sterbenz), so skipping it
    # gives the same bits, -0.0 included
    r = np.where(x < 0.0, x + math.pi, x)
    return np.where(r >= math.pi, r - math.pi, r)


def _fold_is_x(delta: np.ndarray) -> np.ndarray:
    # elementwise twin of the folded-distance sign rule in local.lhv_outcome
    r = _reduce_mod_pi_arr(delta)
    d = np.minimum(r, math.pi - r)
    return d <= _QUARTER_PI


def _lhv_kernel(bench, timeline, master_seed):
    def outcomes(indices):
        lam = lhv_sample(uniform_array(master_seed, indices, 0))
        b_ang = _reduce_mod_pi_arr(lam + _HALF_PI)
        # the plate turns A's hidden angle by pi/2, landing on B's expression
        a_ang = b_ang if bench.plate_present else lam
        return _fold_is_x(bench.alpha.angle - a_ang), _fold_is_x(bench.beta.angle - b_ang)

    return outcomes


#: per model, a function that plans the bench once and returns the chunk
#: kernel mapping trial indices to the outcome arrays (a_is_x, b_is_x); the
#: ensembles apply it to CHUNK-sized runs of indices, run_trial to one index
_KERNELS = {model: partial(_branch_kernel, plan) for model, plan in _BRANCH_PLANS.items()}
_KERNELS["lhv-sign"] = _lhv_kernel


def run_trial(model: str, bench: OpticalBench, master_seed: int, trial_index: int) -> TrialRecord:
    """Simulate one pair emission under ``model``: its ensemble's kernel on one index.

    Draw k of trial i is the counter-based uniform at (master_seed, i, k),
    so any single trial can be replayed without rerunning its ensemble.
    """
    _check_model(model)
    kernel = _KERNELS[model](bench, build_timeline(bench), master_seed)
    a_is_x, b_is_x = kernel(np.array([trial_index % 2**64], dtype=np.uint64))
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


def _map_chunks(model, bench, n_trials, master_seed, workers, consume) -> list:
    """``consume(start, a_is_x, b_is_x)`` on each CHUNK-sized run of trials.

    The bench is planned once per call.  Results come back in chunk order.
    Counter-based draws make each chunk independent of execution order, so
    the results are the same for any thread count.  Threads are bounded by
    the chunk count and the cores; with one, the chunks run serially.
    """
    kernel = _KERNELS[model](bench, build_timeline(bench), master_seed)

    def task(start: int):
        indices = np.arange(start, min(start + CHUNK, n_trials), dtype=np.uint64)
        return consume(start, *kernel(indices))

    starts = range(0, n_trials, CHUNK)
    threads = min(workers, len(starts), os.cpu_count() or 1)
    if threads == 1:
        return [task(start) for start in starts]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(task, starts))


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

    _map_chunks(model, bench, n_trials, master_seed, workers, fill)
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
        xy = int(np.count_nonzero(a & ~b))
        yx = int(np.count_nonzero(~a & b))
        return xx, xy, yx, len(a) - xx - xy - yx

    parts = _map_chunks(model, bench, n_trials, master_seed, workers, count)
    return EnsembleStats(*(sum(cells) for cells in zip(*parts)))


def write_trials_csv(f, bench: OpticalBench, a_is_x, b_is_x) -> None:
    """Write per-trial outcomes in the interchange layout to the text file ``f``.

    Header trial,outcome_a,outcome_b,b_before_plate; outcomes are X or Y
    and the ordering flag is true/false, constant for a fixed bench.
    Rows are built as byte matrices and written CHUNK rows at a time, so
    the text never exists whole: each run of indices with one digit count
    gets its digit columns by repeated division and its tail columns from
    the four possible ``,A,B,flag`` endings.
    """
    flag = "true" if detect_b_before_plate(bench) else "false"
    # row 2 * (A is Y) + (B is Y): the endings in the order XX, XY, YX, YY
    tails = np.array(
        [list(f",{a},{b},{flag}\n".encode("ascii")) for a in "XY" for b in "XY"], dtype=np.uint8
    )
    a_is_y = ~np.asarray(a_is_x, dtype=bool)
    b_is_y = ~np.asarray(b_is_x, dtype=bool)
    f.write("trial,outcome_a,outcome_b,b_before_plate\n")
    start = 0
    while start < len(a_is_y):
        width = len(str(start))
        # a run ends with its chunk or where the index gains a digit
        stop = min(len(a_is_y), (start // CHUNK + 1) * CHUNK, 10**width)
        rows = np.empty((stop - start, width + tails.shape[1]), dtype=np.uint8)
        idx = np.arange(start, stop, dtype=np.int64)
        for col in range(width - 1, -1, -1):
            idx, digit = np.divmod(idx, 10)
            rows[:, col] = digit + ord("0")
        rows[:, width:] = tails[2 * a_is_y[start:stop] + b_is_y[start:stop]]
        f.write(rows.tobytes().decode("ascii"))
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
    first_ch, p1x, p2x_given_x, p2x_given_y = _BRANCH_PLANS[model](bench, build_timeline(bench))
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
    base = OpticalBench(plate_present=plate_present)

    def correlator(alpha, beta) -> float:
        return analytic_E(model, replace(base, alpha=alpha, beta=beta))

    return chsh_S(correlator, angles)


# ---------------------------------------------------------------------------
# higher-level experiments


@dataclass(frozen=True)
class OrderInvarianceReport:
    """Side-by-side ensembles of an early-detection and a late-detection bench.

    Each cell's frequency delta is judged against four combined standard
    errors; verdict SAME means every cell cleared that bar.
    """

    model: str
    n_per_bench: int
    early: EnsembleStats
    late: EnsembleStats
    analytic_early: tuple[float, ...]
    analytic_late: tuple[float, ...]
    delta_f: tuple[float, ...]
    combined_stderr: tuple[float, ...]
    delta_e: float
    delta_e_stderr: float
    same: bool

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
    early = run_ensemble(model, bench_early, n_trials, derive_seed(master_seed, 0), workers)
    late = run_ensemble(model, bench_late, n_trials, derive_seed(master_seed, 1), workers)
    f_early = early.frequencies
    f_late = late.frequencies
    delta_f = tuple(fl - fe for fe, fl in zip(f_early, f_late))
    combined = tuple(
        math.sqrt(se * se + sl * sl) for se, sl in zip(early.cell_stderr(), late.cell_stderr())
    )
    # <= rather than <, so a cell reproduced exactly (delta 0, stderr 0) passes
    same = all(abs(d) <= 4.0 * c for d, c in zip(delta_f, combined))
    delta_e = late.e_hat - early.e_hat
    delta_e_stderr = math.sqrt(early.stderr_e**2 + late.stderr_e**2)
    return OrderInvarianceReport(
        model=model,
        n_per_bench=n_trials,
        early=early,
        late=late,
        analytic_early=tuple(float(p) for p in analytic_joint_table(model, bench_early).p),
        analytic_late=tuple(float(p) for p in analytic_joint_table(model, bench_late).p),
        delta_f=delta_f,
        combined_stderr=combined,
        delta_e=delta_e,
        delta_e_stderr=delta_e_stderr,
        same=same,
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
    base = OpticalBench(plate_present=plate_present)
    terms = []
    errors = []
    for k, (alpha, beta) in enumerate(angles.pairs()):
        bench = replace(base, alpha=alpha, beta=beta)
        stats = run_ensemble(model, bench, n_per_setting, derive_seed(master_seed, k), workers)
        terms.append(stats.e_hat)
        errors.append(stats.stderr_e)
    return ChshReport.from_terms(*terms, se=tuple(errors))
