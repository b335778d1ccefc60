"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload with and without tracing and checks that every metric
of BENCHMARK.json and every workload-specific end-to-end metric is printed
by name and unit, that a checkout without the program fails without a
result, and that compare mode gives the expected verdicts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402

SPEC = compare.load_spec()
#: end-to-end metrics that only some workloads have, printed before the JSON
SPECIFIC = {"readout_ref": ("shots_per_s", "analyze_s", "ops_failed_frac"),
            "mixing_sweep": ("shots_per_s", "ops_failed_frac"),
            "calib_design": ("calibrate_s", "ops_failed_frac")}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def _sections(lines: list[str]) -> dict[str, list[str]]:
    """Printed lines of each workload, keyed by workload name."""
    out, current = {}, None
    for line in lines:
        if line.startswith("workload "):
            current = line.split()[1]
            out[current] = []
        elif current is not None:
            out[current].append(line)
    return out


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed(trace):
    proc = _run(ROOT, "--workload", "all", "--tiny", "--seconds", "0",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    results = json.loads(lines[-1])
    listed = SPEC["per_layer" if trace else "end_to_end"]
    sections = _sections(lines[:-1])
    assert set(results) == set(SPECIFIC) == set(sections)
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, sections[name]
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in listed]
        for m in listed:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert any(line.startswith(f"  {m['name']} = ") and
                       line.endswith(f" {m['unit']}") for line in sections[name])
        if not trace:
            for metric in SPECIFIC[name]:
                assert any(line.startswith(f"  {metric} = ")
                           for line in sections[name]), metric
    if trace:
        assert results["calib_design"]["metrics"]["shots.shots"]["value"] == 0


def test_fails_without_program():
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "--workload", "calib_design", "--seed", "0",
                    "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _runs(values: dict[str, list[float]], failed=(0, 0)):
    return {side: {("w", seed): {"failed": failed[i],
                                 "metrics": {"wall_s": {"value": v}}}
                   for seed, v in enumerate(values[side])}
            for i, side in enumerate(compare.SIDES)}


@pytest.mark.parametrize("parent,change,failed,expected", [
    ([10.0 + 0.1 * i for i in range(10)], [8.0 + 0.1 * i for i in range(10)],
     (0, 0), "gain"),
    ([10.0 + 0.1 * i for i in range(10)], [8.0 + 0.1 * i for i in range(10)],
     (0, 1), "gain void: more failures"),
    ([10.0 + 0.1 * i for i in range(10)], [10.0 + 0.1 * i for i in range(10)],
     (0, 0), "within bound"),
    ([10.0 + 0.1 * i for i in range(10)], [13.0 + 0.1 * i for i in range(10)],
     (0, 0), "regression"),
    ([10.0 + i for i in range(10)], [12.0 + i for i in range(10)],
     (0, 0), "unresolved"),
    ([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], (0, 0), "too few pairs"),
])
def test_compare_verdicts(parent, change, failed, expected):
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                            "bound": 0.1}]}
    rows = compare.report_rows(_runs({"parent": parent, "change": change}, failed),
                               spec)
    assert [r["verdict"] for r in rows] == [expected]
