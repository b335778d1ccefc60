"""Compare benchmark results of a parent and a change.

    python3 perfbench/compare.py run --parent DIR --change DIR --out RESULTS
    python3 perfbench/compare.py report RESULTS

``run`` makes ``--pairs`` pairs of untraced runs of every workload, one seed
per pair, alternating which tree runs first. Each tree runs its own
``perfbench/run.py`` for ``run_seconds`` of ``BENCHMARK.json``; the two
benchmark copies must be identical. Results are appended to
``RESULTS/parent.jsonl`` and ``RESULTS/change.jsonl``.

``report`` prints one row per workload and end-to-end metric with each
side's median and quartiles, the pairs the change won and a verdict:

* ``gain``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's inter-quartile
  range; void when the change fails more operations than the parent;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound, and the spread does not exceed the bound;
* ``unresolved``: no gain, and the parent's inter-quartile range exceeds
  the bound, so a regression cannot be told apart from noise, unless every
  run of the change beats every run of the parent (``better``);
* ``within bound`` otherwise;
* ``too few pairs`` before any of these, with fewer than 10 pairs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIDES = ("parent", "change")
MIN_PAIRS = 10


def load_spec(root: Path = ROOT) -> dict:
    with open(root / "BENCHMARK.json") as fh:
        return json.load(fh)


def benchmark_digest(root: Path) -> str:
    """Hash of BENCHMARK.json and the benchmark's files in one tree."""
    spec = load_spec(root)
    h = hashlib.sha256((root / "BENCHMARK.json").read_bytes())
    for rel in spec["paths"]:
        for path in sorted((root / rel).rglob("*")):
            parts = path.relative_to(root).parts
            if path.is_file() and not {"_out", "_work", "__pycache__"} & set(parts):
                h.update("/".join(parts).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def run_pairs(trees: dict[str, Path], out: Path, pairs: int, first_seed: int):
    if benchmark_digest(trees["parent"]) != benchmark_digest(trees["change"]):
        raise SystemExit("compare: the two trees carry different benchmarks")
    spec = load_spec(trees["change"])
    out.mkdir(parents=True, exist_ok=True)
    for i in range(pairs):
        seed = first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in (w["name"] for w in spec["workloads"]):
            for side in order:
                cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=trees[side], capture_output=True,
                                      text=True, timeout=900)
                lines = proc.stdout.splitlines()
                if proc.returncode != 0 or not lines:
                    raise SystemExit(f"compare: {side} {workload} seed {seed} "
                                     f"exited {proc.returncode}:\n{proc.stderr}")
                record = {"workload": workload, "seed": seed, "pair": i,
                          "result": json.loads(lines[-1])}
                with open(out / f"{side}.jsonl", "a") as fh:
                    fh.write(json.dumps(record) + "\n")
                print(f"pair {i} {workload} {side} done", flush=True)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, more_failures: bool) -> tuple[str, int]:
    """Verdict for values paired by index; returns (verdict, pairs won)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    if len(parent) < MIN_PAIRS:
        return "too few pairs", wins
    p_q1, p_med, p_q3 = _quartiles(parent)
    _, c_med, _ = _quartiles(change)
    iqr = p_q3 - p_q1
    gain = sign * (p_med - c_med)
    if wins >= 0.9 * len(parent) and gain > iqr:
        return ("gain void: more failures" if more_failures else "gain"), wins
    if iqr > bound * abs(p_med):
        if all(sign * (p - c) > 0 for p in parent for c in change):
            return "better", wins
        return "unresolved", wins
    if -gain > bound * abs(p_med):
        return "regression", wins
    return "within bound", wins


def _read(path: Path) -> dict[tuple[str, int], dict]:
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return {(r["workload"], r["seed"]): r["result"] for r in records}


def report_rows(runs: dict[str, dict], spec: dict) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = sorted(s for (w, s) in runs["parent"]
                       if w == workload and (w, s) in runs["change"])
        if not seeds:
            continue
        paired = {side: [runs[side][(workload, s)] for s in seeds] for side in SIDES}
        failed = {side: sum(r["failed"] for r in paired[side]) for side in SIDES}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in paired[side]]
                      for side in SIDES}
            result, wins = verdict(values["parent"], values["change"],
                                   metric["better"], metric["bound"],
                                   failed["change"] > failed["parent"])
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "pairs": len(seeds), "wins": wins,
                         "parent": _quartiles(values["parent"]),
                         "change": _quartiles(values["change"]),
                         "failed": (failed["parent"], failed["change"]),
                         "verdict": result})
    return rows


def print_report(rows: list[dict]):
    print(f"{'workload':<14}{'metric':<14}{'parent q1/med/q3':<30}"
          f"{'change q1/med/q3':<30}{'wins':<8}{'failed':<8}verdict")
    for r in rows:
        p = "/".join(f"{v:.4g}" for v in r["parent"]) + f" {r['unit']}"
        c = "/".join(f"{v:.4g}" for v in r["change"]) + f" {r['unit']}"
        print(f"{r['workload']:<14}{r['metric']:<14}{p:<30}{c:<30}"
              f"{r['wins']}/{r['pairs']:<6}{r['failed'][0]}/{r['failed'][1]:<6}"
              f"{r['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--parent", type=Path, required=True)
    p_run.add_argument("--change", type=Path, required=True)
    p_run.add_argument("--out", type=Path, required=True)
    p_run.add_argument("--pairs", type=int, default=10)
    p_run.add_argument("--first-seed", type=int, default=1000)
    p_rep = sub.add_parser("report")
    p_rep.add_argument("results", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "run":
        run_pairs({"parent": args.parent.resolve(), "change": args.change.resolve()},
                  args.out, args.pairs, args.first_seed)
        return 0
    runs = {side: _read(args.results / f"{side}.jsonl") for side in SIDES}
    print_report(report_rows(runs, load_spec()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
