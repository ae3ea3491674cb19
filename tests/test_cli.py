"""Command-line behavior: formats, exit codes, seeds, reproducibility."""

import contextlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import cli, engine
from biphoton.cli import main
from biphoton.engine import CHUNK, MODEL_NAMES
from test_golden import CASES, GOLDEN

pytestmark = pytest.mark.usefixtures("clean_seed_env")


@pytest.fixture
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("ENTANGLE_BENCH_SEED", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- exit codes

def test_unknown_model_exits_3(capsys):
    code, out, err = run_cli(capsys, "pair", "--model", "bohm", "--trials", "10")
    assert (code, out) == (3, "")
    assert err == "error: unknown model 'bohm'; expected one of qm, lhv-sign, naive\n"
    # the engine's own message, which the library raises too
    with pytest.raises(ValueError) as exc:
        engine.run_ensemble("bohm", engine.OpticalBench(), 10, 0)
    assert err == f"error: {exc.value}\n"


def test_zero_trials_exits_2(capsys):
    for value in ("0", "-3"):
        code, out, err = run_cli(capsys, "pair", f"--trials={value}")
        assert (code, out, err) == (2, "", f"error: --trials must be a positive integer, got {value}\n")


def test_bad_workers_exits_2(capsys):
    for value in ("0", "-3"):
        code, out, err = run_cli(capsys, "pair", "--trials", "10", f"--workers={value}")
        assert (code, out, err) == (2, "", f"error: --workers must be a positive integer, got {value}\n")


def test_bad_sweep_step_exits_2(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--trials", "10", "--step", "0")
    assert code == 2
    code, _, _ = run_cli(capsys, "sweep", "--trials", "10", "--step", "-5")
    assert code == 2
    for flag in ("--start", "--stop", "--step"):
        for value in ("inf", "nan"):
            code, out, err = run_cli(capsys, "sweep", "--trials", "10", flag, value)
            assert code == 2 and out == ""
            assert err == f"error: {flag} must be finite degrees, got {value}\n"
    for argv in (
        ("--trials", "10", "--step", "1e-310"),  # 180 / 1e-310 rows overflows
        ("--trials", "1", "--step", "1e-9"),
        ("--trials", "1", "--stop", "1e300", "--step", "1"),
    ):
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: sweep range has too many rows")


def test_overflowing_sweep_angle_names_the_sweep_flags(capsys):
    # every flag is finite and the range has two rows, but the second row's
    # angle overflows; the error blamed "bench config key alpha_deg"
    code, out, err = run_cli(
        capsys, "sweep", "--start=7.976931348623167e307", "--stop=1.7976931348623157e308", "--step=1e308"
    )
    assert code == 2 and out == ""
    assert err == "error: sweep range overflows: --start + 1 * --step is not finite degrees\n"


def test_empty_sweep_range_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, "sweep", "--trials", "10", "--start", "20", "--stop", "10"
    )
    assert code == 2


def test_bad_chsh_angles_exit_2(capsys):
    code, _, _ = run_cli(capsys, "chsh", "--trials", "10", "--angles", "1,2,3")
    assert code == 2
    code, _, _ = run_cli(capsys, "chsh", "--trials", "10", "--angles", "a,b,c,d")
    assert code == 2


def test_invalid_bench_geometry_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, "pair", "--trials", "10", "--d-plate-a", "5", "--d-prism-a", "1"
    )
    assert code == 2


#: command, config file (or None), the error it prints
_BAD_BENCH_VALUES = {
    # a flag's bad value is reported under the flag the user gave
    "order-test --d-prism-b-early=inf": (None, "--d-prism-b-early must be a finite real number, got inf"),
    "order-test --d-prism-b-late=nan": (None, "--d-prism-b-late must be a finite real number, got nan"),
    "order-test --d-prism-b-late=-1": (None, "--d-prism-b-late must be a nonnegative distance in meters, got -1.0"),
    "order-test --d-prism-b-early=-0.5": (None, "--d-prism-b-early must be a nonnegative distance in meters, got -0.5"),
    "pair --alpha=inf": (None, "--alpha must be a finite real number, got inf"),
    "pair --d-plate-a=-inf": (None, "--d-plate-a must be a finite real number, got -inf"),
    "sweep --plate-angle=nan": (None, "--plate-angle must be a finite real number, got nan"),
    "order-test --beta=1e999": (None, "--beta must be a finite real number, got inf"),
    "pair --d-plate-a=-1": (None, "--d-plate-a must be a nonnegative distance in meters, got -1.0"),
    "sweep --d-prism-a=-1e308": (None, "--d-prism-a must be a nonnegative distance in meters, got -1e+308"),
    # a config file's value keeps its key, even under a bad flag, and a relation keeps its wording
    "pair --alpha=inf --config": (
        '{"alpha_deg": NaN}',
        "bench config key alpha_deg must be a finite real number, got nan",
    ),
    "order-test --config": (
        '{"d_prism_a_m": -1e999}',
        "bench config key d_prism_a_m must be a finite real number, got -inf",
    ),
    "sweep --config": (
        '{"d_prism_a_m": -1}',
        "bench config key d_prism_a_m must be a nonnegative distance in meters, got -1.0",
    ),
    "pair --d-plate-a=5 --d-prism-a=1": (None, "plate must sit between source and prism: d_plate_a <= d_prism_a"),
}


@pytest.mark.parametrize("command", _BAD_BENCH_VALUES)
def test_bad_bench_value_names_the_flag_or_key_it_came_from(capsys, tmp_path, command):
    config, message = _BAD_BENCH_VALUES[command]
    argv = command.split()
    if config is not None:
        path = tmp_path / "bench.json"
        path.write_text(config, encoding="utf-8")
        argv.append(str(path))
    code, out, err = run_cli(capsys, *argv, "--trials", "10")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "command, printed",
    [
        ("pair --d-prism-b=-0 --format json", '    "d_prism_b_m": 0,'),
        ("pair --plate-angle=-0 --format json", '    "plate_angle_deg": 0'),
        ("pair --d-prism-b=-0", "  d_prism_b_m     0.000000"),
        ("pair --d-prism-b=-0", "DETECT_B @ 0.000000e+00 s"),
        ("pair --plate-angle=-0", "  plate_angle_deg 0.000000"),
        ("order-test --d-prism-b-early=-0", "early bench: d_prism_b_m 0.000000  (B detected before the plate acts)"),
    ],
)
def test_a_zero_distance_or_plate_angle_prints_without_a_sign(capsys, command, printed):
    code, out, err = run_cli(capsys, *command.split(), "--trials", "10")
    assert (code, err) == (0, "")
    assert printed in out, out


def test_missing_config_file_exits_2(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "pair", "--trials", "10", "--config", str(tmp_path / "nope.json")
    )
    assert code == 2


def test_malformed_config_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, _ = run_cli(capsys, "pair", "--trials", "10", "--config", str(bad))
    assert code == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"weird_key": 1}', encoding="utf-8")
    code, _, _ = run_cli(capsys, "pair", "--trials", "10", "--config", str(unknown))
    assert code == 2


def test_chsh_has_no_config_flag(capsys, tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text('{"plate_present": false}', encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["chsh", "--trials", "10", "--config", str(cfg)])
    assert exc.value.code == 2


def test_unwritable_out_exits_2(capsys, tmp_path):
    path = tmp_path / "no-such-dir" / "report.txt"
    code, out, err = run_cli(capsys, "chsh", "--trials", "10", "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert not path.parent.exists()


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 9.09 TiB for an array with shape (10000000000000,)")


def test_unallocatable_trial_dump_exits_2(capsys, monkeypatch):
    # patched: a real allocation this size may succeed under overcommit
    monkeypatch.setattr(cli, "simulate_outcomes", _out_of_memory)
    code, out, err = run_cli(capsys, "pair", "--format", "csv", "--trials", "10000000000000")
    assert code == 2 and out == ""
    assert err.startswith("error: out of memory: Unable to allocate")


def test_out_of_memory_on_a_helper_thread_exits_2(capsys, monkeypatch):
    # the helper's buffer set cannot be allocated: the MemoryError reaches the
    # calling thread, which ends the command with exit 2 and no output
    monkeypatch.setattr(engine, "_cores", lambda: 2)
    caller = threading.get_ident()
    buffers = engine._buffers

    def helper_out_of_memory(size, *outcomes):
        if threading.get_ident() != caller:
            raise MemoryError("Unable to allocate 1.69 MiB for the buffers of a helper")
        return buffers(size, *outcomes)

    monkeypatch.setattr(engine, "_buffers", helper_out_of_memory)
    before = threading.active_count()
    code, out, err = run_cli(capsys, "pair", "--format", "csv", "--trials", str(4 * CHUNK), "--workers", "2")
    assert code == 2 and out == ""
    assert err == "error: out of memory: Unable to allocate 1.69 MiB for the buffers of a helper\n"
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "argv, exit_code, out_of_memory, config",
    [
        (["--trials", "0"], 2, False, None),
        (["--model", "bogus"], 3, False, None),
        (["--trials", "10000000000000"], 2, True, None),
        # a float cannot hold it: float() raised OverflowError and a traceback
        ([], 2, False, {"d_prism_b_m": 10**400}),
        ([], 2, False, {"alpha_deg": 10**400}),
    ],
    ids=["zero-trials", "unknown-model", "out-of-memory", "huge-config-distance", "huge-config-angle"],
)
def test_failed_command_never_creates_out(capsys, monkeypatch, tmp_path, argv, exit_code, out_of_memory, config):
    if out_of_memory:
        monkeypatch.setattr(cli, "simulate_outcomes", _out_of_memory)
    if config is not None:
        (tmp_path / "bench.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "bench.json")]
    path = tmp_path / "dump.csv"
    code, out, err = run_cli(capsys, "pair", "--format", "csv", *argv, "--out", str(path))
    assert code == exit_code and out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
    assert not path.exists()


def test_reader_closing_early_ends_the_dump_quietly():
    # a real pipe: the dump outgrows the pipe buffer, so writes after the close fail
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "biphoton", "pair", "--format", "csv", "--trials", "200000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"trial,outcome_a,outcome_b,b_before_plate\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_reader_closing_early_leaves_no_descriptor_open(monkeypatch):
    # in-process, into a pipe whose read end is already closed and, where
    # there is one, into /dev/full: the quiet end and the exit 2 each point
    # stdout at /dev/null and keep nothing else open
    def run_into_closed_pipe():
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["pair", "--format", "csv", "--trials", "20000"]) == 0

    def run_into_full_device():
        with open("/dev/full", "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["pair", "--format", "csv", "--trials", "20000"]) == 2

    runs = [run_into_closed_pipe]
    if os.path.exists("/dev/full"):
        runs.append(run_into_full_device)
    for run in runs:
        run()  # anything opened once, on first use, opens here
        before = len(os.listdir("/dev/fd"))
        for _ in range(5):
            run()
        assert len(os.listdir("/dev/fd")) == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, target",
    [([], "stdout"), (["--format", "csv"], "stdout"), (["--out", "/dev/full"], "/dev/full")],
    ids=["text-stdout", "csv-stdout", "out-file"],
)
def test_full_device_exits_2_with_one_error_line(argv, target):
    # a real process, so the interpreter's final flush of stdout runs too
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    cmd = [sys.executable, "-m", "biphoton", "pair", "--trials", "1000", *argv]
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE, env=env, timeout=120)
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err and "Exception ignored" not in err


def _old_file(tmp_path, mode=0o640):
    path = tmp_path / "dump.csv"
    path.write_bytes(b"precious")
    path.chmod(mode)
    return path


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs preexec_fn")
def test_failed_out_write_leaves_the_old_file(tmp_path):
    # the file size limit is set in the child only: the dump outgrows it, so
    # a write fails midway, and the target keeps its old bytes and nothing
    # is left beside it
    import resource

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (100 * 1024, 100 * 1024))

    path = _old_file(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    cmd = [sys.executable, "-m", "biphoton", "pair", "--format", "csv", "--trials", "200000", "--out", str(path)]
    proc = subprocess.run(cmd, capture_output=True, env=env, preexec_fn=limit_file_size, timeout=120)
    err = proc.stderr.decode()
    assert proc.returncode == 2 and proc.stdout == b""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot write {path}: ")
    assert path.read_bytes() == b"precious" and os.listdir(tmp_path) == [path.name]


def test_interrupted_out_write_leaves_the_old_file(monkeypatch, tmp_path):
    path = _old_file(tmp_path)

    def interrupted(f, *args):
        f.write(b"trial,")
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "write_trials_csv", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["pair", "--format", "csv", "--trials", "10", "--out", str(path)])
    assert path.read_bytes() == b"precious" and os.listdir(tmp_path) == [path.name]


def _skip_if_permissions_are_overridden(tmp_path):
    # root (or CAP_DAC_OVERRIDE) writes read-only files and directories
    probe = tmp_path / "probe"
    probe.write_bytes(b"")
    probe.chmod(0o444)
    try:
        os.close(os.open(probe, os.O_WRONLY))
    except PermissionError:
        return
    finally:
        probe.unlink()
    pytest.skip("this process may write read-only files")


@pytest.mark.parametrize("file_mode, dir_mode", [(0o444, 0o755), (0o644, 0o555)])
def test_read_only_out_file_or_directory_exits_2_and_keeps_the_file(capsys, tmp_path, file_mode, dir_mode):
    # a read-only target is refused, and so is a writable one in a read-only
    # directory, since nothing can be made beside it
    _skip_if_permissions_are_overridden(tmp_path)
    path = _old_file(tmp_path, mode=file_mode)
    tmp_path.chmod(dir_mode)
    try:
        code, out, err = run_cli(capsys, "pair", "--trials", "10", "--out", str(path))
    finally:
        tmp_path.chmod(0o755)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot write {path}: ")
    assert path.read_bytes() == b"precious" and os.listdir(tmp_path) == [path.name]


def test_out_replaces_a_file_through_a_symlink_and_keeps_its_mode(capsys, tmp_path):
    path = _old_file(tmp_path, mode=0o604)
    link = tmp_path / "link.txt"
    link.symlink_to(path.name)
    code, out, err = run_cli(capsys, "pair", "--trials", "10", "--out", str(link))
    assert (code, out, err) == (0, "", "")
    assert link.is_symlink() and path.read_bytes().startswith(b"model qm\n")
    assert path.stat().st_mode & 0o7777 == 0o604
    # a new file gets the bits open(path, "wb") gives
    new, reference = tmp_path / "new.txt", tmp_path / "reference.txt"
    reference.open("wb").close()
    assert run_cli(capsys, "pair", "--trials", "10", "--out", str(new))[0] == 0
    assert new.stat().st_mode == reference.stat().st_mode
    assert sorted(os.listdir(tmp_path)) == ["dump.csv", "link.txt", "new.txt", "reference.txt"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("mode", ["wb", "ab"])
def test_out_open_on_stdout_is_written_in_place(tmp_path, mode):
    # --out /dev/stdout with stdout on a regular file writes through stdout, at
    # its offset: not a new file renamed over it, and not a reopen that
    # truncates what the shell opened for appending (`>> F`)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    cmd = [sys.executable, "-m", "biphoton", "pair", "--trials", "10", "--out", "/dev/stdout"]
    path = tmp_path / "stdout.txt"
    path.write_bytes(b"old\n")
    with open(path, mode) as stdout:
        before = os.fstat(stdout.fileno()).st_ino
        assert subprocess.run(cmd, stdout=stdout, env=env, timeout=120).returncode == 0
    kept = b"old\n" if mode == "ab" else b""
    assert path.stat().st_ino == before and path.read_bytes().startswith(kept + b"model qm\n")
    assert os.listdir(tmp_path) == [path.name]


#: ``python -c`` source: the biphoton command whose dump writer writes one
#: byte, then waits to be interrupted; the clean-up's removal of the file
#: beside --out prints ``c`` to stdout, then waits for the file $RESUME
_STALLED_DUMP = """
import os, runpy, sys, time
from biphoton import cli

def stalled(f, *args):
    f.write(b"t")
    f.flush()
    time.sleep(120)

def waiting_unlink(path, unlink=os.unlink):
    print("c", end="", flush=True)
    while not os.path.exists(os.environ["RESUME"]):
        time.sleep(0.005)
    unlink(path)

cli.write_trials_csv = stalled
os.unlink = waiting_unlink
runpy.run_module("biphoton", run_name="__main__")
"""


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out-file"])
def test_interrupt_prints_one_line_and_ends_by_sigint(tmp_path, out):
    # the signal goes only once main is running: the dump's first byte has
    # reached the stdout pipe, which then fills and blocks the writer, or the
    # file beside --out has appeared; with --out, a second signal lands while
    # the clean-up waits to remove that file, and must change nothing
    out_dir, resume = tmp_path / "out", tmp_path / "resume"
    out_dir.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "RESUME": str(resume)}
    argv = ["pair", "--format", "csv", "--workers", "2"]
    path = out_dir / "dump.csv"
    if out:
        cmd = [sys.executable, "-c", _STALLED_DUMP, *argv, "--trials", "10", "--out", str(path)]
    else:
        cmd = [sys.executable, "-m", "biphoton", *argv, "--trials", "200000"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        try:
            if out:
                deadline = time.monotonic() + 60
                while not os.listdir(out_dir) and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert os.listdir(out_dir), "the file beside --out never appeared"
            else:
                assert proc.stdout.read(1) == b"t"
            proc.send_signal(signal.SIGINT)
            if out:
                assert proc.stdout.read(1) == b"c"
                proc.send_signal(signal.SIGINT)
                resume.touch()
            _, err = proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            raise
    assert proc.returncode == -signal.SIGINT
    assert err == b"error: interrupted\n"
    assert os.listdir(out_dir) == []


def test_bad_env_seed_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("ENTANGLE_BENCH_SEED", "not-a-number")
    code, _, _ = run_cli(capsys, "pair", "--trials", "10")
    assert code == 2


def test_unknown_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pair", "--frobnicate"])
    assert exc.value.code == 2


def test_order_test_rejects_swapped_benches(capsys):
    code, _, _ = run_cli(
        capsys,
        "order-test",
        "--trials",
        "100",
        "--d-prism-b-early",
        "2.0",
        "--d-prism-b-late",
        "1.0",
    )
    assert code == 2


# ---------------------------------------------------------------- help text

@pytest.mark.parametrize("command", ["pair", "order-test", "chsh", "sweep"])
def test_help_states_units(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "degrees" in text
    assert "(count)" in text
    assert "integer" in text  # the seed flag
    if command != "chsh":
        assert "meters" in text


#: help and usage errors of the cli at 9077e1c, which built every
#: subcommand's flags up front, recorded under COLUMNS=80 on Python 3.10.13,
#: 3.11.7, 3.12.1, 3.13.0 and 3.13.13; each stderr wording seen is listed
#: (3.13.13 drops the quotes around an invalid choice's options)
USAGE = json.loads((GOLDEN / "usage.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", USAGE, ids=lambda case: " ".join(case["argv"]) or "no-command")
def test_help_and_usage_errors_match_their_recording(capsys, monkeypatch, case):
    # each subcommand adds its flags when it parses, so nothing may move
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(case["argv"])
    captured = capsys.readouterr()
    assert exc.value.code == case["exit"]
    assert captured.out == case["stdout"] and captured.err in case["stderr"]


# ---------------------------------------------------------------- headline outcomes

def test_pair_plate_bench_is_perfectly_concordant(capsys):
    code, out, _ = run_cli(capsys, "pair", "--trials", "5000", "--seed", "1")
    assert code == 0
    assert "E_hat   +1.000000 +- 0.000000" in out
    assert "  XY            0  0.000000 (0.000000)" in out
    assert "  YX            0  0.000000 (0.000000)" in out


def test_pair_no_plate_bench_is_perfectly_discordant(capsys):
    code, out, _ = run_cli(capsys, "pair", "--trials", "5000", "--seed", "1", "--no-plate")
    assert code == 0
    assert "E_hat   -1.000000 +- 0.000000" in out
    assert "E_exact -1.000000" in out


def test_order_test_verdicts(capsys):
    code, out, _ = run_cli(capsys, "order-test", "--trials", "20000", "--seed", "3")
    assert code == 0 and "verdict: SAME" in out
    code, out, _ = run_cli(
        capsys, "order-test", "--model", "naive", "--trials", "20000", "--seed", "3"
    )
    assert code == 0 and "verdict: DIFFERENT" in out
    assert "E early +1.000000" in out
    assert "E late  -1.000000" in out


def test_chsh_quantum_violates(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--trials", "20000", "--seed", "5")
    assert code == 0
    assert "exact 2.828427" in out
    assert "classical bound 2: VIOLATED (violated iff S - 3*stderr > 2)" in out


def test_chsh_lhv_does_not_violate(capsys):
    code, out, _ = run_cli(
        capsys, "chsh", "--model", "lhv-sign", "--trials", "20000", "--seed", "5"
    )
    assert code == 0
    assert "exact 2.000000" in out
    assert "classical bound 2: NOT VIOLATED" in out


def test_chsh_degenerate_angles(capsys):
    code, out, _ = run_cli(
        capsys, "chsh", "--trials", "5000", "--seed", "5", "--angles", "0,0,0,0"
    )
    assert code == 0
    assert "S 2.000000 +- 0.000000   exact 2.000000" in out
    assert "NOT VIOLATED" in out


def test_statistical_verdicts_do_not_change_exit_code(capsys):
    # both the violating and non-violating runs exit 0
    code_v, _, _ = run_cli(capsys, "chsh", "--trials", "5000", "--seed", "2")
    code_n, _, _ = run_cli(
        capsys, "chsh", "--model", "lhv-sign", "--trials", "5000", "--seed", "2"
    )
    assert code_v == 0 and code_n == 0


# ---------------------------------------------------------------- formats

def test_pair_csv_is_a_trial_dump(capsys):
    code, out, _ = run_cli(
        capsys, "pair", "--trials", "6", "--seed", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "trial,outcome_a,outcome_b,b_before_plate"
    assert len(lines) == 7
    for i, line in enumerate(lines[1:]):
        idx, oa, ob, flag = line.split(",")
        assert int(idx) == i
        assert oa in ("X", "Y") and ob in ("X", "Y") and flag in ("true", "false")


def test_negative_half_turn_prints_positive_zero(capsys):
    code, out, _ = run_cli(capsys, "pair", "--alpha=-180", "--trials", "10", "--format", "json")
    assert code == 0 and '    "alpha_deg": 0,\n' in out
    code, out, _ = run_cli(capsys, "pair", "--alpha=-180", "--trials", "10")
    assert code == 0 and "  alpha_deg       0.000000\n" in out


def test_pair_json_document(capsys):
    code, out, _ = run_cli(
        capsys, "pair", "--trials", "100", "--seed", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "pair"
    assert doc["model"] == "qm" and doc["trials"] == 100 and doc["seed"] == 4
    assert set(doc["stats"]) == {"n_xx", "n_xy", "n_yx", "n_yy", "e_hat", "stderr_e"}
    assert len(doc["analytic_table"]) == 4
    assert doc["bench"]["plate_present"] is True


_DISTANCE_FLAGS = st.sampled_from((0.0, 0.25, 0.5, 1.0, 1.5))
_DEGREE_FLAGS = st.one_of(st.floats(-720.0, 720.0), st.integers(-16, 32).map(lambda j: j * 22.5))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    distances=st.tuples(_DISTANCE_FLAGS, _DISTANCE_FLAGS, _DISTANCE_FLAGS),
    degrees=st.tuples(_DEGREE_FLAGS, _DEGREE_FLAGS, _DEGREE_FLAGS),
    plate=st.booleans(),
)
def test_pair_json_analytic_e_is_the_engines_correlator(distances, degrees, plate):
    d_plate, d_prism_a, d_prism_b = distances
    d_plate = min(d_plate, d_prism_a)
    alpha, beta, plate_angle = degrees
    bench = engine.OpticalBench(
        d_plate, d_prism_a, d_prism_b, *map(math.radians, (alpha, beta)), plate, math.radians(plate_angle)
    )
    flags = [
        f"--d-plate-a={d_plate!r}",
        f"--d-prism-a={d_prism_a!r}",
        f"--d-prism-b={d_prism_b!r}",
        f"--alpha={alpha!r}",
        f"--beta={beta!r}",
        f"--plate-angle={plate_angle!r}",
        "--plate" if plate else "--no-plate",
    ]
    for model in MODEL_NAMES:
        code, out, err = _run_in_process(["pair", f"--model={model}", "--trials=1", "--seed=0", "--format=json", *flags])
        assert (code, err) == (0, "")
        got = json.loads(out, parse_int=float)["analytic_e"]
        assert got.hex() == engine.analytic_E(model, bench).hex(), (model, bench)


def test_chsh_json_has_exactly_the_report_keys(capsys):
    code, out, _ = run_cli(
        capsys, "chsh", "--trials", "1000", "--seed", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["e_ab", "e_abp", "e_apb", "e_apbp", "s", "stderr_total"]


def test_chsh_csv_layout(capsys):
    code, out, _ = run_cli(
        capsys, "chsh", "--trials", "1000", "--seed", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "term,value,stderr"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "e_ab",
        "e_abp",
        "e_apb",
        "e_apbp",
        "s",
    ]


def test_order_test_csv_layout(capsys):
    code, out, _ = run_cli(
        capsys, "order-test", "--trials", "1000", "--seed", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bench,n_xx,n_xy,n_yx,n_yy,e_hat,stderr_e"
    assert lines[1].startswith("early,") and lines[2].startswith("late,")


def test_sweep_csv_layout_and_17_digits(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--trials",
        "1000",
        "--seed",
        "4",
        "--start",
        "0",
        "--stop",
        "45",
        "--step",
        "22.5",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "angle_deg,E_analytic,E_hat,stderr"
    assert len(lines) == 4  # 0, 22.5, 45
    angle, e_an, _, _ = lines[2].split(",")
    assert angle == "22.5"
    assert e_an == "0.70710678118654746"  # cos(45 deg) to 17 significant digits


def test_sweep_single_row_when_start_equals_stop(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--trials",
        "500",
        "--seed",
        "4",
        "--start",
        "10",
        "--stop",
        "10",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("10,")


def test_sweep_analytic_column_is_populated_for_local_models(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--model",
        "lhv-sign",
        "--trials",
        "500",
        "--seed",
        "4",
        "--start",
        "0",
        "--stop",
        "90",
        "--step",
        "45",
        "--format",
        "csv",
    )
    assert code == 0
    for line in out.splitlines()[1:]:
        e_an = float(line.split(",")[1])
        assert -1.0 <= e_an <= 1.0


# ---------------------------------------------------------------- seeds and config

def test_env_seed_matches_explicit_flag(capsys, monkeypatch):
    _, flagged, _ = run_cli(capsys, "pair", "--trials", "1000", "--seed", "31")
    monkeypatch.setenv("ENTANGLE_BENCH_SEED", "31")
    _, from_env, _ = run_cli(capsys, "pair", "--trials", "1000")
    assert from_env == flagged
    assert "seed 31" in from_env


def test_explicit_seed_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("ENTANGLE_BENCH_SEED", "31")
    _, out, _ = run_cli(capsys, "pair", "--trials", "1000", "--seed", "7")
    assert "seed 7" in out


def test_config_file_sets_bench_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(
        '{"beta_deg": 22.5, "d_prism_b_m": 0.25, "plate_present": true}', encoding="utf-8"
    )
    code, from_cfg, _ = run_cli(
        capsys, "pair", "--trials", "2000", "--seed", "9", "--config", str(cfg)
    )
    assert code == 0
    assert "beta_deg        22.500000" in from_cfg
    assert "d_prism_b_m     0.250000" in from_cfg
    _, overridden, _ = run_cli(
        capsys,
        "pair",
        "--trials",
        "2000",
        "--seed",
        "9",
        "--config",
        str(cfg),
        "--beta",
        "0",
    )
    assert "beta_deg        0.000000" in overridden
    _, plain, _ = run_cli(
        capsys, "pair", "--trials", "2000", "--seed", "9", "--beta", "22.5",
        "--d-prism-b", "0.25",
    )
    assert plain == from_cfg


#: one bench flag and the config key it sets, in the config layout's order
_FLAG_AND_KEY = [
    (["--d-plate-a", "0.25"], {"d_plate_a_m": 0.25}),
    (["--d-prism-a", "2"], {"d_prism_a_m": 2.0}),
    (["--d-prism-b", "0.25"], {"d_prism_b_m": 0.25}),
    (["--alpha", "10"], {"alpha_deg": 10.0}),
    (["--beta", "22.5"], {"beta_deg": 22.5}),
    (["--no-plate"], {"plate_present": False}),
    (["--plate-angle", "30"], {"plate_angle_deg": 30.0}),
]
_ALL_FLAGS = [flag for flags, _ in _FLAG_AND_KEY for flag in flags]
_ALL_KEYS = {key: value for _, config in _FLAG_AND_KEY for key, value in config.items()}


def test_flag_cases_cover_every_config_key():
    assert list(_ALL_KEYS) == list(cli._BENCH_KEYS)


@pytest.mark.parametrize(
    "flags, config", [*_FLAG_AND_KEY, (_ALL_FLAGS, _ALL_KEYS)], ids=[*_ALL_KEYS, "all"]
)
def test_bench_flag_prints_what_its_config_key_prints(capsys, tmp_path, flags, config):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = ["pair", "--trials", "2000", "--seed", "4", "--format", "json"]
    code, by_flag, _ = run_cli(capsys, *argv, *flags)
    assert code == 0
    assert run_cli(capsys, *argv, "--config", str(path)) == (0, by_flag, "")
    assert by_flag != run_cli(capsys, *argv)[1]  # the value took effect


#: the flags every bench command has besides the bench flags, and each one's own
_OTHER_FLAGS = {"-h", "--help", "--model", "--trials", "--seed", "--workers", "--format", "--out", "--config"}
_OWN_FLAGS = {
    "pair": set(),
    "order-test": {"--d-prism-b-early", "--d-prism-b-late"},
    "sweep": {"--axis", "--start", "--stop", "--step"},
}


@pytest.mark.parametrize("command", ["pair", "order-test", "sweep"])
def test_help_lists_exactly_the_bench_flags(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    flags = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out))
    want = {entry[3] for entry in cli._BENCH_KEYS.values()} | {"--no-plate"}
    if command == "order-test":
        want.remove("--d-prism-b")  # order-test sets channel B's prism itself
        assert "--d-prism-b" not in flags
    assert flags - _OTHER_FLAGS - _OWN_FLAGS[command] == want


# ---------------------------------------------------------------- reproducibility

def test_repeated_runs_are_byte_identical(capsys):
    for argv in (
        ["pair", "--trials", "3000", "--seed", "11"],
        ["pair", "--trials", "3000", "--seed", "11", "--format", "json"],
        ["pair", "--trials", "3000", "--seed", "11", "--format", "csv"],
        ["order-test", "--trials", "3000", "--seed", "11"],
        ["chsh", "--trials", "3000", "--seed", "11", "--format", "csv"],
        ["sweep", "--trials", "500", "--seed", "11", "--stop", "30", "--step", "15"],
    ):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second, argv
        assert first  # something was printed


def test_worker_count_does_not_change_output(capsys):
    base = ["pair", "--model", "lhv-sign", "--trials", "150000", "--seed", "13"]
    _, serial, _ = run_cli(capsys, *base, "--workers", "1")
    _, threaded, _ = run_cli(capsys, *base, "--workers", "4")
    assert serial == threaded


def test_out_file_matches_stdout(capsys, tmp_path):
    argv = ["chsh", "--trials", "2000", "--seed", "17"]
    _, streamed, _ = run_cli(capsys, *argv)
    path = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0
    assert out == ""  # everything went to the file
    assert path.read_text(encoding="utf-8") == streamed


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_trial_dump_to_stdout_matches_out_file(capsysbinary, tmp_path, model):
    # three chunks and the 10^4 and 10^5 digit boundaries, through both write sites
    n = 2 * CHUNK + 7
    argv = ["pair", "--format", "csv", "--model", model, "--trials", str(n), "--seed", "29"]
    assert main(argv) == 0
    streamed = capsysbinary.readouterr().out
    assert streamed.startswith(b"trial,outcome_a,outcome_b,b_before_plate\n")
    assert streamed.count(b"\n") == n + 1
    path = tmp_path / "dump.csv"
    assert main([*argv, "--out", str(path)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert path.read_bytes() == streamed


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("model", ["qm", "lhv-sign", "naive"])
def test_chsh_json_and_csv_do_not_compute_exact_terms(capsys, monkeypatch, model, fmt):
    # only the text format prints analytic_chsh's terms
    def refuse(*args, **kwargs):
        raise AssertionError("analytic_chsh called for a format that does not print it")

    monkeypatch.setattr(cli, "analytic_chsh", refuse)
    name = f"chsh-{model}-{fmt}"
    code, out, _ = run_cli(capsys, *CASES[name])
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


# ---------------------------------------------------------------- generated commands

#: bench and sweep flag values at the edges: signed zeros, subnormals, the
#: largest doubles, nan and the infinities, a 400-digit integer (inf as a
#: double), and two that are no float at all
_EDGE_VALUES = (
    "0", "-0", "5e-324", "-5e-324", "1e-310", "22.5", "-90", "180", "1e308", "-1e308",
    "nan", "inf", "-inf", "1" + "0" * 400, "", "0x10",
)  # fmt: skip
_BENCH_FLAGS = tuple(flag for _, to_si, _, flag, _ in cli._BENCH_KEYS.values() if to_si is not None)
_FLOAT_FLAGS = {
    "pair": _BENCH_FLAGS,
    "order-test": (*(f for f in _BENCH_FLAGS if f != "--d-prism-b"), "--d-prism-b-early", "--d-prism-b-late"),
    "chsh": (),
    "sweep": _BENCH_FLAGS,
}


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _json_value(text):
    """An edge value, or true or false, as a JSON token: nan and the infinities as Python's json writes them."""
    special = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "true": "true", "false": "false"}
    return special.get(text, text if _is_float(text) else json.dumps(text))


@st.composite
def _config_files(draw):
    """A --config file's kind (valid, json, object or keys) and text, its values from the edge pool."""
    kind = draw(st.sampled_from(("valid", "json", "object", "keys")))
    keys = draw(st.lists(st.sampled_from(sorted(cli._BENCH_KEYS)), unique=True, max_size=3))
    if kind == "keys":
        keys.append("d_prism_c_m")
    values = st.sampled_from((*_EDGE_VALUES, "true", "false"))
    text = "{" + ", ".join(f'"{key}": {_json_value(draw(values))}' for key in keys) + "}"
    if kind == "json":  # cut short, or empty
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif kind == "object":
        text = draw(st.sampled_from(("[]", "[" + text + "]", "null", '"{}"', _json_value(draw(values)))))
    return kind, text


@st.composite
def _commands(draw):
    """An argv of one subcommand without --workers, --config or --out, and what goes with it.

    That is the values its float flags get, its --config file (a kind and
    a text) or None, and whether it writes to --out.
    """
    command = draw(st.sampled_from(sorted(_FLOAT_FLAGS)))
    # some runs cross a chunk boundary
    trials = draw(st.one_of(st.integers(1, 100), st.sampled_from((CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7))))
    argv = [
        command,
        f"--model={draw(st.sampled_from((*MODEL_NAMES, 'bohm')))}",
        f"--format={draw(st.sampled_from(('text', 'json', 'csv')))}",
        f"--trials={trials}",
    ]
    seed = draw(st.one_of(st.none(), st.integers(-(2**70), 2**70), st.sampled_from((-1, 2**64, 2**64 + 1))))
    if seed is not None:
        argv.append(f"--seed={seed}")
    flags = _FLOAT_FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(flags), unique=True, max_size=2)) if flags else []
    values = {flag: draw(st.sampled_from(_EDGE_VALUES)) for flag in chosen}
    argv += draw(st.lists(st.sampled_from(("--plate", "--no-plate")), max_size=1))
    if command == "chsh" and draw(st.booleans()):
        argv.append("--angles=" + ",".join(draw(st.lists(st.sampled_from(_EDGE_VALUES), min_size=3, max_size=4))))
    if command == "sweep":
        argv.append(f"--axis={draw(st.sampled_from(('alpha', 'beta')))}")
        if draw(st.booleans()):  # a step that leaves at most two rows, or none
            start, stop = draw(st.sampled_from(_EDGE_VALUES)), draw(st.sampled_from(_EDGE_VALUES))
            step = draw(st.sampled_from(("0", "-0", "-90", "1e308", "5e-324", "nan", "inf", "", "0x10")))
        else:  # a range of one to three rows
            start = draw(st.sampled_from(("0", "-0", "5e-324", "22.5", "-90", "1e308")))
            step = draw(st.sampled_from(("7.5", "45", "5e-324", "1e-310", "1e308")))
            stop = repr(float(start) + draw(st.integers(0, 2)) * float(step))
        values.update({"--start": start, "--stop": stop, "--step": step})
    config = draw(st.one_of(st.none(), _config_files())) if flags else None
    argv += [f"{flag}={value}" for flag, value in values.items()]
    return argv, values, config, draw(st.booleans())


def _numbers(value):
    """Every number in a parsed JSON document."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _numbers(item)]
    return [value] if isinstance(value, float) else []


def _run_in_process(argv):
    stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        stdout.flush()
    return code, stdout.buffer.getvalue(), stderr.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(command=_commands())
def test_generated_commands_keep_the_exit_code_and_output_contract(command):
    # the run at one worker prints to stdout; with --out, those at two and
    # three write a file each, which holds exactly the first run's stdout
    argv, values, config, to_out = command
    unknown_model = "--model=bohm" in argv
    usage_error = not all(map(_is_float, values.values()))  # argparse rejects the flag's value
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "out")
        os.mkdir(out_dir)
        if config is not None:
            path = os.path.join(tmp, "bench.json")
            with open(path, "w", encoding="utf-8") as f:
                f.write(config[1])
            argv = [*argv, f"--config={path}"]
        outs = {workers: os.path.join(out_dir, f"w{workers}") for workers in (2, 3) if to_out}
        runs = []
        for workers in (1, 2, 3):
            out_flag = [f"--out={outs[workers]}"] if workers in outs else []
            runs.append(_run_in_process([*argv, f"--workers={workers}", *out_flag]))
        written = {name: Path(out_dir, name).read_bytes() for name in os.listdir(out_dir)}
    code, out, err = runs[0]
    assert code in ({2} if usage_error else {3} if unknown_model else {0, 2})
    if config is not None and config[0] != "valid" and code != 3:
        assert code == 2
    assert "Traceback" not in err
    if code:
        assert out == b""
        assert usage_error or len(err.splitlines()) == 1
        assert written == {}  # neither the file nor one beside it
    else:
        assert out and err == ""
        assert written == {os.path.basename(path): out for path in outs.values()}
        if "--format=json" in argv:  # every number read as a float, so "-0" is -0.0
            zeros = [x for x in _numbers(json.loads(out, parse_int=float)) if x == 0.0]
            assert all(math.copysign(1.0, x) > 0 for x in zeros), out
    assert all(run == (code, b"" if workers in outs else out, err) for workers, run in zip((2, 3), runs[1:]))
