"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(capsys):
    exec(compile(quick_start(), str(README), "exec"), {})
    fidelity = float(capsys.readouterr().out.strip())
    assert 0.95 < fidelity < 1.0
