"""The README against the package as it stands.

Its library example runs, its export list is ``__all__``, and its command
line section names every bench flag.
"""

import re
from pathlib import Path

import biphoton
from biphoton import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    e_hat, stderr_e = (float(word) for word in capsys.readouterr().out.split())
    # qm on a plate bench: the outcomes always agree
    assert (e_hat, stderr_e) == (1.0, 0.0)


def test_readme_export_sentence_lists_exactly_all():
    # the public surface cannot grow, or shrink, without the README saying so
    text = " ".join(README.read_text().split())
    listed = re.search(r"The top-level `biphoton` package exports only the names [^:]*:(.*?)\. Everything else", text)
    names = re.findall(r"`([^`]+)`", listed.group(1))
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(biphoton.__all__)


def test_readme_command_line_names_every_bench_flag():
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    named = {flag for code in re.findall(r"`([^`]+)`", prose) for flag in code.split("/")}
    for *_, flag, _ in cli._BENCH_KEYS.values():
        assert flag in named
