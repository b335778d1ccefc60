"""The CI workflow runs every check of tools/ci_checks.py, one `run:` line
each, in the order of `ci_checks.py all`."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_workflow_calls_every_check_in_order():
    spec = importlib.util.spec_from_file_location(
        "ci_checks", ROOT / "tools" / "ci_checks.py")
    ci_checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ci_checks)  # defines the checks, runs none
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    called = re.findall(r"^ +- run: python tools/ci_checks\.py (\S+)$", workflow,
                        re.M)
    assert called == [step.__name__ for step in ci_checks.STEPS]
    assert len(called) == len(re.findall("ci_checks", workflow))
