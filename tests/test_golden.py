"""Golden stdout of the command line: every subcommand, model and format.

Each case runs ``cli.main`` in-process and compares its stdout with a
file recorded under ``tests/golden/``.  Rerunning the current code twice
(acceptance criterion 8) cannot catch a change that alters every run in
the same way; these files can.  Trial counts cross ``CHUNK`` so the
chunk split is exercised, and the ``--workers 2`` variants must match the
serial files.  Per-trial CSV dumps are stored as sha256 and byte length.
The ``*-config-*`` cases read their bench from ``golden/bench.json``, some
with bench flags layered on top, and ``--out`` must write to its file the
same bytes that the case prints.  Each seeded demo under ``demos/`` is run
in-process and its stdout compared with ``golden/demo-<name>.out``.

A change that alters an output on purpose re-records the files with
``python tests/test_golden.py`` and says so.
"""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

from biphoton.cli import main
from biphoton.engine import CHUNK, MODEL_NAMES

GOLDEN = Path(__file__).with_name("golden")
DEMOS = sorted(Path(__file__).parent.parent.joinpath("demos").glob("*.py"))
BENCH = str(GOLDEN / "bench.json")
TRIALS = str(CHUNK + 4_465)  # two chunks, the second one partial

_COMMANDS = {
    "pair": ["pair", "--seed", "5", "--alpha", "10", "--beta", "30", "--d-prism-b", "0.25"],
    "order-test": ["order-test", "--seed", "6", "--alpha", "15", "--beta", "40"],
    "chsh": ["chsh", "--seed", "7"],
    "sweep": ["sweep", "--seed", "8", "--start", "0", "--stop", "90", "--step", "22.5"],
}
_BENCHES = {
    "pair-noplate": ["pair", "--seed", "9", "--beta", "22.5", "--no-plate"],
    "pair-tied": ["pair", "--seed", "10", "--d-plate-a", "1", "--d-prism-a", "1", "--d-prism-b", "1"],
}

_CONFIGS = {
    "pair-config-qm-text": ["pair", "--seed", "11", "--model", "qm"],
    "pair-config-lhv-sign-json": ["pair", "--seed", "11", "--model", "lhv-sign", "--format", "json"],
    "pair-config-override-qm-text": [
        "pair", "--seed", "12", "--model", "qm", "--alpha", "5", "--d-prism-b", "2", "--plate-angle", "22.5",
    ],
    "pair-config-override-naive-json": [
        "pair", "--seed", "12", "--model", "naive", "--no-plate", "--d-plate-a", "0.1",
        "--d-prism-a", "0.2", "--format", "json",
    ],
    "order-test-config-qm-text": ["order-test", "--seed", "13", "--model", "qm"],
    "order-test-config-naive-json": ["order-test", "--seed", "13", "--model", "naive", "--format", "json"],
    "sweep-config-lhv-sign-csv": [
        "sweep", "--seed", "14", "--model", "lhv-sign", "--axis", "beta",
        "--start", "0", "--stop", "90", "--step", "30", "--format", "csv",
    ],
}

CASES = {
    f"{command}-{model}-{fmt}": argv + ["--model", model, "--trials", TRIALS, "--format", fmt]
    for command, argv in _COMMANDS.items()
    for model in MODEL_NAMES
    for fmt in ("text", "json", "csv")
}
CASES.update(
    {
        f"{name}-{model}-text": argv + ["--model", model, "--trials", TRIALS]
        for name, argv in _BENCHES.items()
        for model in MODEL_NAMES
    }
)

CASES.update({name: argv + ["--config", BENCH, "--trials", TRIALS] for name, argv in _CONFIGS.items()})

#: cases rerun with --workers 2, which must reproduce the serial golden file
PARALLEL = ["pair-qm-csv", "pair-lhv-sign-csv", "pair-naive-csv", "order-test-naive-json", "sweep-lhv-sign-csv"]

#: cases rerun with --out FILE, which must hold the golden stdout bytes
OUT = ["pair-qm-csv", "pair-config-qm-text", "chsh-naive-json", "sweep-config-lhv-sign-csv"]


def _is_dump(name: str) -> bool:
    return name.startswith("pair-") and name.endswith("-csv")


def _stdout(argv) -> bytes:
    # main writes its bytes to sys.stdout.buffer, so the capture needs one
    buf = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    buf.flush()
    return buf.buffer.getvalue()


def _golden_path(name: str) -> Path:
    return GOLDEN / (f"{name}.sha256" if _is_dump(name) else f"{name}.out")


def _fingerprint(name: str, out: bytes) -> bytes:
    if _is_dump(name):
        return f"{hashlib.sha256(out).hexdigest()} {len(out)}\n".encode()
    return out


def _demo_stdout(path: Path) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(path), run_name="__main__")
    return buf.getvalue().encode("utf-8")


def _demo_golden_path(path: Path) -> Path:
    return GOLDEN / f"demo-{path.stem}.out"


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    assert _fingerprint(name, _stdout(CASES[name])) == _golden_path(name).read_bytes()


@pytest.mark.parametrize("name", PARALLEL)
def test_two_workers_match_serial_golden(name):
    out = _stdout(CASES[name] + ["--workers", "2"])
    assert _fingerprint(name, out) == _golden_path(name).read_bytes()


@pytest.mark.parametrize("name", OUT)
def test_out_file_matches_golden(name, tmp_path):
    path = tmp_path / "out.txt"
    assert _stdout(CASES[name] + ["--out", str(path)]) == b""
    assert _fingerprint(name, path.read_bytes()) == _golden_path(name).read_bytes()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_matches_golden(demo):
    assert _demo_stdout(demo) == _demo_golden_path(demo).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        _golden_path(case).write_bytes(_fingerprint(case, _stdout(argv)))
    for demo in DEMOS:
        _demo_golden_path(demo).write_bytes(_demo_stdout(demo))
