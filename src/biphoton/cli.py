"""Command-line front end: pair ensembles, order tests, CHSH runs, sweeps.

Every outside layout lives here: the flags, the JSON bench config file
(one table, ``_BENCH_KEYS``, drives its keys, the bench flags and the
printed bench), and the text, json and csv reports.  Angles are taken in
degrees and distances in meters; the library takes and returns radians
and SI units only.  Text output rounds to six decimals for reading,
while json and csv carry 17 significant digits so every value
round-trips exactly.  All randomness hangs off --seed (or
ENTANGLE_BENCH_SEED when the flag is absent), making each invocation
reproducible byte for byte, for any worker count.

A subcommand's flags are added to its parser when that subcommand parses.

Exit codes: 0 success (a reader closing stdout early included), 2
unusable arguments or configuration (an unwritable --out file or stdout
and a run too large to allocate included), 3 unknown model name.  An
--out naming the file open on stdout is written through stdout.  An
interrupt raises ``KeyboardInterrupt`` out of ``main``; run as a process
(``python -m biphoton``, the ``biphoton`` script), it prints one line,
``error: interrupted``, and the process ends by SIGINT.  A bad bench
value is reported under the flag or config key it came from.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import shutil
import stat
import sys
from dataclasses import replace

from .engine import (
    OpticalBench,
    _check_model,
    _distance,
    _ensembles,
    _positive_int,
    analytic_E,
    analytic_chsh,
    analytic_joint_table,
    build_timeline,
    chsh_experiment,
    order_invariance_report,
    run_ensemble,
    simulate_outcomes,
    write_trials_csv,
)
from .local import ChshAngles
from .quantum import AnalyzerSetting, _real

_DEFAULT_TRIALS = 100_000
#: most rows one sweep may plan; each row runs an ensemble
_MAX_SWEEP_ROWS = 100_000
_SEED_ENV = "ENTANGLE_BENCH_SEED"


def _setting_degrees(setting: AnalyzerSetting) -> float:
    return math.degrees(setting.angle)


#: config key -> (bench field, conversion to SI units and radians, conversion
#: back, flag, flag help), in layout order.  Each flag stores its value under
#: its key, so the flags layer over --config; the plate's switch (no
#: conversion) goes in as given, and OpticalBench rejects anything but a bool
_BENCH_KEYS = {
    "d_plate_a_m": (
        "d_plate_a", float, float, "--d-plate-a", "source-to-plate distance on channel A in meters"
    ),
    "d_prism_a_m": (
        "d_prism_a", float, float, "--d-prism-a", "source-to-prism distance on channel A in meters"
    ),
    "d_prism_b_m": (
        "d_prism_b", float, float, "--d-prism-b", "source-to-prism distance on channel B in meters"
    ),
    "alpha_deg": ("alpha", math.radians, _setting_degrees, "--alpha", "channel A analyzer angle in degrees"),
    "beta_deg": ("beta", math.radians, _setting_degrees, "--beta", "channel B analyzer angle in degrees"),
    "plate_present": (
        "plate_present", None, bool, "--plate", "half-wave plate present on channel A (default: present)"
    ),
    "plate_angle_deg": (
        "plate_angle", math.radians, math.degrees, "--plate-angle", "plate fast-axis angle in degrees"
    ),
}


def _fmt17(x: float) -> str:
    """17 significant digits: enough to reconstruct the exact double."""
    return format(float(x), ".17g")


def _csv_text(header: str, rows) -> str:
    """CSV lines under ``header``: floats at 17 significant digits, anything else by ``str``."""
    lines = [header]
    lines += [",".join(_fmt17(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json_render(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt17(value)
    if isinstance(value, str):
        return json.dumps(value)
    # every document and list rendered holds at least one entry
    if isinstance(value, dict):
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_json_render(v, indent + 1)}" for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        inner = ",\n".join(f"{pad}  {_json_render(v, indent + 1)}" for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(_SEED_ENV)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{_SEED_ENV} must be an integer, got {env!r}") from None


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return data


def _checked(key: str, value, what: str) -> float:
    """A bench flag's or config key's value as a finite float, a distance (``_m``) also nonnegative."""
    return _distance(value, what) if key.endswith("_m") else _real(value, what)


def _bench(config: dict) -> OpticalBench:
    """The bench of a config in the file layout; missing keys keep the bench's defaults.

    Unknown keys are rejected rather than silently ignored.
    """
    unknown = set(config) - set(_BENCH_KEYS)
    if unknown:
        raise ValueError(f"unknown bench config keys: {sorted(unknown)}")
    kwargs = {}
    for key, (field, to_si, *_) in _BENCH_KEYS.items():
        if key in config:
            value = config[key]
            kwargs[field] = value if to_si is None else to_si(_checked(key, value, f"bench config key {key}"))
    return OpticalBench(**kwargs)


def _bench_doc(bench: OpticalBench) -> dict:
    """The bench in the config layout (lengths _m, angles _deg)."""
    return {key: from_si(getattr(bench, field)) for key, (field, _, from_si, *_) in _BENCH_KEYS.items()}


def _bench_config(args) -> dict:
    """Config of --config (if any) with the bench flags given layered on top.

    The file must hold a valid bench by itself, before any flag applies,
    and a flag's non-finite value or negative distance is reported under
    the flag.
    """
    cfg = _load_config(args.config) if args.config else {}
    _bench(cfg)
    for key, (_, to_si, _, flag, _) in _BENCH_KEYS.items():
        if (value := getattr(args, key, None)) is not None:
            cfg[key] = value if to_si is None else _checked(key, value, flag)
    return cfg


def _fields(obj, names: str) -> dict:
    """``{name: obj.name}`` for each space-separated name, in order."""
    return {name: getattr(obj, name) for name in names.split()}


def _stats_doc(stats) -> dict:
    return _fields(stats, "n_xx n_xy n_yx n_yy e_hat stderr_e")


def _bench_lines(bench: OpticalBench) -> list:
    lines = ["bench:"]
    for key, value in _bench_doc(bench).items():
        text = ("true" if value else "false") if isinstance(value, bool) else f"{value:.6f}"
        lines.append(f"  {key:<15} {text}")
    order = "  ->  ".join(f"{ev.event.name} @ {ev.time:.6e} s" for ev in build_timeline(bench))
    lines.append(f"timeline: {order}")
    return lines


# ---------------------------------------------------------------------------
# subcommands


def _cmd_pair(args):
    """The report text, or for the csv dump a function writing it to a binary file.

    The dump is simulated here, so its errors surface before any output
    file is opened, and streamed by ``main`` at the write site.
    """
    bench = _bench(_bench_config(args))
    if args.format == "csv":
        a_is_x, b_is_x = simulate_outcomes(args.model, bench, args.trials, args.seed, args.workers)
        return lambda f: write_trials_csv(f, bench, a_is_x, b_is_x)
    stats = run_ensemble(args.model, bench, args.trials, args.seed, args.workers)
    table = [float(p) for p in analytic_joint_table(args.model, bench).p]
    e_exact = analytic_E(args.model, bench)
    if args.format == "json":
        doc = {
            "command": "pair",
            "model": args.model,
            "trials": args.trials,
            "seed": args.seed,
            "bench": _bench_doc(bench),
            "stats": _stats_doc(stats),
            "analytic_table": table,
            "analytic_e": e_exact,
        }
        return _json_render(doc) + "\n"
    freq = stats.frequencies
    ma, mb = stats.marginal_a(), stats.marginal_b()
    lines = [f"model {args.model}", f"trials {args.trials}", f"seed {args.seed}"]
    lines += _bench_lines(bench)
    lines.append("joint outcomes, count  frequency (exact):")
    for label, count, f, t in zip(("XX", "XY", "YX", "YY"), stats.counts, freq, table):
        lines.append(f"  {label} {count:>12d}  {f:.6f} ({t:.6f})")
    lines.append(f"E_hat   {stats.e_hat:+.6f} +- {stats.stderr_e:.6f}")
    lines.append(f"E_exact {e_exact:+.6f}")
    lines.append(f"marginal A (x, y): {ma[0]:.6f} {ma[1]:.6f}")
    lines.append(f"marginal B (x, y): {mb[0]:.6f} {mb[1]:.6f}")
    return "\n".join(lines) + "\n"


def _cmd_order_test(args) -> str:
    cfg = _bench_config(args)
    bench_early = _bench({**cfg, "d_prism_b_m": _distance(args.d_prism_b_early, "--d-prism-b-early")})
    bench_late = _bench({**cfg, "d_prism_b_m": _distance(args.d_prism_b_late, "--d-prism-b-late")})
    report = order_invariance_report(
        args.model, bench_early, bench_late, args.trials, args.seed, args.workers
    )
    if args.format == "json":
        doc = {
            "command": "order-test",
            "seed": args.seed,
            "bench_early": _bench_doc(bench_early),
            "bench_late": _bench_doc(bench_late),
            "report": {
                "model": report.model,
                "n_per_bench": report.early.n,
                "early": _stats_doc(report.early),
                "late": _stats_doc(report.late),
                **_fields(
                    report,
                    "analytic_early analytic_late delta_f combined_stderr delta_e delta_e_stderr verdict",
                ),
            },
        }
        return _json_render(doc) + "\n"
    if args.format == "csv":
        rows = [
            (name, *stats.counts, stats.e_hat, stats.stderr_e)
            for name, stats in (("early", report.early), ("late", report.late))
        ]
        return _csv_text("bench,n_xx,n_xy,n_yx,n_yy,e_hat,stderr_e", rows)
    lines = [f"model {args.model}", f"trials {args.trials} per bench", f"seed {args.seed}"]
    lines.append(
        f"early bench: d_prism_b_m {bench_early.d_prism_b:.6f}  (B detected before the plate acts)"
    )
    lines.append(
        f"late bench:  d_prism_b_m {bench_late.d_prism_b:.6f}  (B detected after the plate acts)"
    )
    lines += _bench_lines(bench_early)
    lines.append("cell  f_early   f_late    exact_e   exact_l   delta_f     4*stderr")
    cells = zip(
        ("XX", "XY", "YX", "YY"),
        report.early.frequencies,
        report.late.frequencies,
        report.analytic_early,
        report.analytic_late,
        report.delta_f,
        report.combined_stderr,
    )
    for label, fe, fl, te, tl, df, se in cells:
        lines.append(
            f"  {label}  {fe:.6f}  {fl:.6f}  {te:.6f}  {tl:.6f}  {df:+.6f}   {4.0 * se:.6f}"
        )
    lines.append(f"E early {report.early.e_hat:+.6f} +- {report.early.stderr_e:.6f}")
    lines.append(f"E late  {report.late.e_hat:+.6f} +- {report.late.stderr_e:.6f}")
    lines.append(f"delta E {report.delta_e:+.6f} +- {report.delta_e_stderr:.6f}")
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines) + "\n"


def _parse_chsh_angles(text: str) -> ChshAngles:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("--angles needs four comma-separated degrees: a,a',b,b'")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"--angles has a non-numeric entry: {text!r}") from None
    return ChshAngles(*(AnalyzerSetting.from_degrees(v) for v in values))


def _cmd_chsh(args) -> str:
    angles = _parse_chsh_angles(args.angles)
    report = chsh_experiment(args.model, angles, args.trials, args.seed, args.plate_present, args.workers)
    if args.format == "json":
        return _json_render(_fields(report, "e_ab e_abp e_apb e_apbp s stderr_total")) + "\n"
    term_rows = (
        ("e_ab", report.e_ab, report.se_ab),
        ("e_abp", report.e_abp, report.se_abp),
        ("e_apb", report.e_apb, report.se_apb),
        ("e_apbp", report.e_apbp, report.se_apbp),
    )
    if args.format == "csv":
        return _csv_text("term,value,stderr", [*term_rows, ("s", report.s, report.stderr_total)])
    # only the text format prints the exact terms
    exact = analytic_chsh(args.model, angles, args.plate_present)
    lines = [
        f"model {args.model}",
        f"trials {args.trials} per setting pair",
        f"seed {args.seed}",
        f"plate {'present' if args.plate_present else 'absent'}",
        "angles_deg: a {:.6f}  a' {:.6f}  b {:.6f}  b' {:.6f}".format(
            *map(_setting_degrees, (angles.a, angles.a_prime, angles.b, angles.b_prime))
        ),
        "term    E_hat      stderr    E_exact",
    ]
    exact_terms = (exact.e_ab, exact.e_abp, exact.e_apb, exact.e_apbp)
    for (name, e, se), ex in zip(term_rows, exact_terms):
        lines.append(f"{name:<7} {e:+.6f}  {se:.6f}  {ex:+.6f}")
    lines.append(f"S {report.s:.6f} +- {report.stderr_total:.6f}   exact {exact.s:.6f}")
    flag = "VIOLATED" if report.violates_classical_bound() else "NOT VIOLATED"
    lines.append(f"classical bound 2: {flag} (violated iff S - 3*stderr > 2)")
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> str:
    for flag, value in (("--start", args.start), ("--stop", args.stop), ("--step", args.step)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite degrees, got {value}")
    if args.step <= 0.0:
        raise ValueError(f"--step must be positive degrees, got {args.step}")
    span = (args.stop - args.start) / args.step + 1e-9  # floor(span) + 1 rows
    if span < 0.0:
        raise ValueError("sweep range is empty: --stop lies before --start")
    if not span < _MAX_SWEEP_ROWS:  # an overflowing span included
        raise ValueError(f"sweep range has too many rows: more than {_MAX_SWEEP_ROWS}")
    n_rows = math.floor(span) + 1
    # the rows' angles rise to the last one's
    if not math.isfinite(args.start + (n_rows - 1) * args.step):
        raise ValueError(f"sweep range overflows: --start + {n_rows - 1} * --step is not finite degrees")
    bench = _bench(_bench_config(args))
    field, to_si, *_ = _BENCH_KEYS[f"{args.axis}_deg"]
    angles = [args.start + i * args.step for i in range(n_rows)]
    # each row's bench is made as its row runs
    benches = (replace(bench, **{field: to_si(angle)}) for angle in angles)
    runs = _ensembles(args.model, benches, args.trials, args.seed, args.workers)
    rows = [(a, analytic_E(args.model, row), st.e_hat, st.stderr_e) for a, (row, st) in zip(angles, runs)]
    if args.format == "json":
        doc = {
            "command": "sweep",
            "model": args.model,
            "axis": args.axis,
            "trials": args.trials,
            "seed": args.seed,
            "bench": _bench_doc(bench),
            "rows": [
                {"angle_deg": a, "E_analytic": ex, "E_hat": eh, "stderr": se}
                for a, ex, eh, se in rows
            ],
        }
        return _json_render(doc) + "\n"
    if args.format == "csv":
        return _csv_text("angle_deg,E_analytic,E_hat,stderr", rows)
    lines = [
        f"model {args.model}",
        f"axis {args.axis} swept, {args.trials} trials per row",
        f"seed {args.seed}",
    ]
    lines += _bench_lines(bench)
    lines.append("angle_deg    E_analytic   E_hat        stderr")
    for a, ex, eh, se in rows:
        lines.append(f"{a:>9.6f}    {ex:+.6f}    {eh:+.6f}    {se:.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parser


def _add_run_flags(p: argparse.ArgumentParser, trials_help: str) -> None:
    p.add_argument("--model", default="qm", help="simulation model: qm, lhv-sign, or naive")
    p.add_argument("--trials", type=int, default=_DEFAULT_TRIALS, help=f"{trials_help} (count)")
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"master seed (integer); defaults to ${_SEED_ENV} or 0",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker threads (count); the output is identical for any count",
    )
    p.add_argument("--format", choices=("text", "json", "csv"), default="text", help="output format")
    p.add_argument("--out", default=None, help="write the output to this file instead of stdout")


def _add_plate_flag(p: argparse.ArgumentParser) -> None:
    """--plate/--no-plate, stored under the plate's config key; None when not given."""
    key = "plate_present"
    *_, flag, help_text = _BENCH_KEYS[key]
    p.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction, default=None, help=help_text)


def _add_bench_flags(p: argparse.ArgumentParser, skip: str = "") -> None:
    """--config, then one flag per bench config key but ``skip``, in layout order."""
    p.add_argument(
        "--config",
        default=None,
        help="JSON bench config file (keys *_m in meters, *_deg in degrees); explicit flags override it",
    )
    for key, (_, to_si, _, flag, help_text) in _BENCH_KEYS.items():
        if to_si is None:
            _add_plate_flag(p)
        elif key != skip:
            p.add_argument(flag, dest=key, type=float, help=help_text)


def _pair_flags(p: argparse.ArgumentParser) -> None:
    _add_run_flags(p, "number of emitted pairs")
    _add_bench_flags(p)
    p.set_defaults(func=_cmd_pair)


def _order_test_flags(p: argparse.ArgumentParser) -> None:
    _add_run_flags(p, "number of emitted pairs per bench")
    _add_bench_flags(p, skip="d_prism_b_m")  # the two --d-prism-b-* flags set it
    p.add_argument(
        "--d-prism-b-early",
        type=float,
        default=0.25,
        help="channel B prism distance in meters for the early bench",
    )
    p.add_argument(
        "--d-prism-b-late",
        type=float,
        default=1.0,
        help="channel B prism distance in meters for the late bench",
    )
    p.set_defaults(func=_cmd_order_test)


def _chsh_flags(p: argparse.ArgumentParser) -> None:
    _add_run_flags(p, "number of emitted pairs per setting pair")
    p.add_argument(
        "--angles",
        default="0,45,22.5,67.5",
        help="four analyzer angles in degrees: a,a',b,b'",
    )
    _add_plate_flag(p)
    p.set_defaults(func=_cmd_chsh, plate_present=True)


def _sweep_flags(p: argparse.ArgumentParser) -> None:
    _add_run_flags(p, "number of emitted pairs per sweep row")
    _add_bench_flags(p)
    p.add_argument("--axis", choices=("alpha", "beta"), default="alpha", help="which analyzer to sweep")
    p.add_argument("--start", type=float, default=0.0, help="first angle in degrees")
    p.add_argument("--stop", type=float, default=180.0, help="last angle in degrees (inclusive)")
    p.add_argument("--step", type=float, default=7.5, help="angle increment in degrees")
    p.set_defaults(func=_cmd_sweep)


#: subcommand -> (its line in the top-level help, the function adding its flags and defaults)
_SUBCOMMANDS = {
    "pair": ("run one bench and report joint outcome statistics", _pair_flags),
    "order-test": ("compare early and late channel-B detection benches", _order_test_flags),
    "chsh": ("estimate the CHSH sum S at four setting pairs", _chsh_flags),
    "sweep": ("sweep one analyzer and tabulate the correlator", _sweep_flags),
}


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which adds its flags when it first parses.

    A call parses one subcommand, so the others never build their flags
    (each ``add_argument`` also builds a help formatter).
    """

    def __init__(self, *args, add_flags, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_flags = add_flags

    def parse_known_args(self, args=None, namespace=None):
        if self._add_flags is not None:
            self._add_flags(self)
            self._add_flags = None
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    # every formatter would read the terminal size; this reads it once, as they would
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Simulate timed polarization measurements on photon pairs "
        "under the quantum model and two local contrast models.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for name, (help_text, add_flags) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=help_text, add_flags=add_flags, formatter_class=formatter)
    return parser


# ---------------------------------------------------------------------------
# output


def _on_stdout(path) -> bool:
    """Whether the output goes to stdout: no --out, or one naming the file open on stdout."""
    try:
        return not path or os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:  # no such file, or stdout is closed
        return False


@contextlib.contextmanager
def _out_file(path: str):
    """A binary file for --out: a regular or new file ends up whole, or as it was.

    Such a target (for a symlink, the file it points to) is written as a
    new file beside it, with the target's permission bits or those a new
    file gets, which replaces the target only after the block has run;
    any exception, an interrupt included, removes it instead.  An existing
    target must open for writing, as ``open(path, "wb")`` would.  A target
    that exists and is not a regular file (a device, a FIFO) is written in
    place.  ``main`` writes a target that is the file open on stdout
    (``/dev/stdout``) through stdout.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "wb") as f:
            yield f
        return
    if st is not None:  # a target open() could not write stays refused
        os.close(os.open(path, os.O_WRONLY))
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # open(path, "wb")'s bits
    except OSError as exc:  # name the target, not the file beside it
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "wb") as f:
            if st is not None:
                os.chmod(tmp, stat.S_IMODE(st.st_mode))
            yield f
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_model(args.model)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        args.seed = _resolve_seed(args)
        _positive_int("--trials", args.trials)
        _positive_int("--workers", args.workers)
        output = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    write = output if callable(output) else lambda f: f.write(output.encode("utf-8"))
    # stdout's own file is written at stdout's offset, never reopened and truncated
    on_stdout = _on_stdout(args.out)
    try:
        if on_stdout:
            sys.stdout.flush()  # text already written to stdout goes first
        with contextlib.nullcontext(sys.stdout.buffer) if on_stdout else _out_file(args.out) as f:
            write(f)
            f.flush()
    except OSError as exc:
        if on_stdout:
            # drop what is left unwritten, so the interpreter's final flush
            # of stdout cannot fail a second time
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            finally:
                os.close(devnull)
            if isinstance(exc, BrokenPipeError):
                return 0  # the reader stopped early (`| head`): end quietly
        print(f"error: cannot write {args.out or 'stdout'}: {exc}", file=sys.stderr)
        return 2
    return 0
