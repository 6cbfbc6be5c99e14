"""The README's examples, run as they stand.

Every ``charprod`` line of a ``sh`` block runs through ``cli.main`` in a
fresh directory and must exit 0, or N where the line says ``# exit N``.
A ``text`` block right after a ``sh`` or ``python`` block is what that
block prints.  The sample report row is a row that ``verify`` writes.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from charprod.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks():
    """(language, text, the text block right after it or None) per fenced block."""
    found = re.findall(r"^```(\w*)\n(.*?)^```\n", README.read_text(encoding="utf-8"),
                       re.MULTILINE | re.DOTALL)
    return [(lang, text, found[i + 1][1] if i + 1 < len(found) and found[i + 1][0] == "text"
             else None) for i, (lang, text) in enumerate(found)]


def _of(lang):
    return [(text, out) for kind, text, out in _blocks() if kind == lang]


def _commands(text):
    return [line.strip() for line in text.splitlines() if line.strip().startswith("charprod ")]


SH = [(text, out) for text, out in _of("sh") if _commands(text)]


def _exit_code(args):
    try:
        return main(args)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


def test_readme_shows_the_abstract_example_on_both_branches():
    lines = {line for text, _ in SH for line in _commands(text)}
    assert {'charprod eval "T 1 3 --" --p 13', 'charprod eval "T 1 3 --" --p 7'} <= lines


@pytest.mark.parametrize("text, printed", SH, ids=[f"sh-{i}" for i in range(len(SH))])
def test_shell_examples_exit_as_stated(text, printed, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = []
    for line in _commands(text):
        stated = re.search(r"#\s*exit\s+(\d+)\s*$", line)
        code = _exit_code(shlex.split(line, comments=True)[1:])
        out.append(capsys.readouterr().out)
        assert code == (int(stated.group(1)) if stated else 0), line
    if printed is not None:
        assert "".join(out) == printed


def test_python_example_prints_what_the_readme_says():
    (code, printed), = _of("python")
    assert printed is not None
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert buf.getvalue() == printed


def test_sample_row_is_a_row_of_verify(capsys):
    (text, _), = _of("json")
    line = text.strip()
    row = json.loads(line)
    q, suite = str(row["q"]), row["suite"]
    assert main(["verify", "--qmin", q, "--qmax", q, "--suites", suite]) == 0
    assert line in capsys.readouterr().out.splitlines()
