"""The README's quick starts run as written."""

import re
import shlex
from importlib import resources
from pathlib import Path

from fastreadout import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading: str, language: str) -> str:
    section = README.read_text().split(f"## {heading}", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(capsys):
    source = code_block("Library quick start", "python")
    exec(compile(source, str(README), "exec"), {})
    fidelity = float(capsys.readouterr().out.strip())
    assert 0.95 < fidelity < 1.0


def test_command_line_quick_start_runs(tmp_path, monkeypatch):
    # device.conf is the shipped reference configuration; out lands in tmp_path
    conf = resources.files("fastreadout.data") / "reference.conf"
    (tmp_path / "device.conf").write_text(conf.read_text())
    monkeypatch.chdir(tmp_path)
    lines = code_block("Command-line quick start", "sh").strip().splitlines()
    assert lines
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "fastreadout"
        assert cli.main(argv) == 0, line
    assert (tmp_path / "out" / "ratio.csv").exists()
