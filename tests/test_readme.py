"""The README's examples run as written: its python block, and every
``greenseq ...`` command line, each expected to exit 0."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from greenseq.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    """Bodies of the fenced blocks tagged ``lang`` ("" for untagged)."""
    fences = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
    return [body for tag, body in fences if tag == lang]


def test_python_block_runs(monkeypatch):
    (code,) = _blocks("python")
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})


def _command_lines(tmp_path: Path) -> list[list[str]]:
    """Every example command as argv; an optional ``[flag]`` gives two runs,
    and ``--dot`` writes under ``tmp_path``."""
    runs = []
    for block in _blocks(""):
        for line in block.splitlines():
            if not line.startswith("greenseq "):
                continue
            argv = shlex.split(line)[1:]
            if "--dot" in argv:
                argv[argv.index("--dot") + 1] = str(tmp_path / "out.dot")
            optional = [tok for tok in argv if tok.startswith("[")]
            plain = [tok for tok in argv if not tok.startswith("[")]
            runs.append(plain)
            if optional:
                runs.append(plain + [tok.strip("[]") for tok in optional])
    return runs


def test_command_lines_exit_zero(tmp_path, monkeypatch):
    runs = _command_lines(tmp_path)
    assert {argv[0] for argv in runs} >= {"mgs", "verify", "mutate", "graph", "model-check"}
    assert ["mutate", "tests/fixtures/a3cycle.quiver", "--seq", "1 2", "--framed"] in runs
    monkeypatch.chdir(ROOT)
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 0, (argv, err.getvalue())
    assert (tmp_path / "out.dot").read_text().startswith("digraph exchange {")
