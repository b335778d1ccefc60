"""Benchmark of the fastreadout readout chain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload, one child each

Run from the root of a source checkout. The benchmark process is single
threaded; BLAS and OpenMP are pinned to one thread. Each workload calls
``fastreadout.cli.main`` in this process with the command lines of
``workloads.py``, repeating them until ``--seconds`` have passed, and checks
every output; a command fails on a non-zero exit code or a failed check.

``--trace 0`` reports the end-to-end metrics. ``setup_s`` is the median
over several fresh interpreters of the time until ``fastreadout.cli`` is
imported; ``wall_s`` the median time of one repetition of the workload's
commands; ``peak_rss_mb`` the peak resident set of this process.

``--trace 1`` alternates an untraced and a traced repetition (see
``tracer.py``), checks that both write byte-identical files, replays the
largest ``simulate_batch`` call under tracemalloc, times the imports with
``-X importtime`` and reports the per-layer metrics, each per repetition.
Spans and counts are written to ``perfbench/_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units come from ``BENCHMARK.json``. The lines before it repeat every
metric by name and unit, with the workload-specific ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in children
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORK = HERE / "_work"
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3

sys.path.insert(0, str(HERE))


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    with contextlib.suppress(OSError):
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        top_commit = git.stdout.split()
        # only the checkout's own repository, not one that encloses it
        if git.returncode == 0 and len(top_commit) == 2 \
                and Path(top_commit[0]).resolve() == ROOT:
            commit = top_commit[1]
    digest = hashlib.sha256()
    for path in sorted((SRC / "fastreadout").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _import_cmd(*flags: str) -> list[str]:
    return [sys.executable, *flags, "-c", "import fastreadout.cli"]


def measure_setup(samples: int) -> float:
    """Median wall time of a fresh interpreter importing fastreadout.cli."""
    env = _child_env()
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(_import_cmd(), env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_breakdown(samples: int) -> dict[str, float]:
    """Cumulative import seconds from ``-X importtime``, median over runs."""
    env = _child_env()
    keys = {"fastreadout": "setup.import.fastreadout_s",
            "scipy.stats": "setup.import.scipy_stats_s",
            "scipy.optimize": "setup.import.scipy_optimize_s"}
    runs = []
    for _ in range(samples):
        proc = subprocess.run(_import_cmd("-X", "importtime"), env=env,
                              check=True, capture_output=True, text=True,
                              timeout=120)
        found = dict.fromkeys(keys.values(), 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue  # column header
            module = name.strip()
            top_level = name[1:2] != " "
            seconds = int(cumulative) * 1e-6
            if module in ("scipy.stats", "scipy.optimize"):
                found[keys[module]] = found[keys[module]] or seconds
            elif top_level and module.split(".")[0] == "fastreadout":
                found[keys["fastreadout"]] += seconds
        runs.append(found)
    return {k: statistics.median(r[k] for r in runs) for k in keys.values()}


def import_program():
    cli_file = SRC / "fastreadout" / "cli.py"
    if not cli_file.is_file():
        raise SystemExit(f"benchmark: {cli_file} not found; run from the "
                         "root of a fastreadout source checkout")
    sys.path.insert(0, str(SRC))
    from fastreadout import cli
    if Path(cli.__file__).resolve() != cli_file.resolve():
        raise SystemExit(f"benchmark: imported {cli.__file__}, not {cli_file}")
    return cli


# ---------------------------------------------------------------------------
# running the commands
# ---------------------------------------------------------------------------

def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    """Repeats a workload's commands and keeps the count of failures."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.ops = workload.ops
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.op_times: list[list[float]] = [[] for _ in self.ops]
        self.first_digests: list[list[str] | None] = [None] * len(self.ops)

    def _call(self, argv) -> int:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash counts as a failed command
            traceback.print_exc(file=sys.stderr)
            code = 1
        return 1 if code is None else code

    def repetition(self) -> float:
        """Run every command once; returns their summed wall time."""
        gc.collect()
        codes, times = [], []
        for op in self.ops:
            t0 = time.perf_counter()
            codes.append(self._call(op.argv))
            times.append(time.perf_counter() - t0)
        for i, (op, code) in enumerate(zip(self.ops, codes)):
            self.attempted += 1
            self.op_times[i].append(times[i])
            error = f"exit code {code}" if code != 0 else None
            if error is None:
                try:
                    error = op.check()
                except (OSError, KeyError, ValueError) as exc:
                    error = f"unreadable output: {exc!r}"
            if error is None:
                digest = [_digest(p) for p in op.outputs]
                if self.first_digests[i] is None:
                    self.first_digests[i] = digest
                elif digest != self.first_digests[i]:
                    error = "output files differ from an earlier repetition"
            if error is not None:
                self.failed += 1
                self.errors.append(f"{op.command}: {error}")
        return sum(times)

    def times_of(self, command: str) -> list[float]:
        return [t for op, ts in zip(self.ops, self.op_times)
                if op.command == command for t in ts]


def _percentile_line(times: list[float]) -> str:
    """Median, the highest percentile with 10 calls beyond it, call count."""
    ordered = sorted(times)
    n = len(ordered)
    parts = [f"p50 {statistics.median(ordered):.4f} s"]
    if n > 20:  # below that the tail percentile is the median or lower
        parts.append(f"p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.4f} s")
    return ", ".join(parts + [f"n {n}"])


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool) -> dict:
    import workloads

    spec = load_spec()
    # the first import also compiles the bytecode and warms the file cache,
    # which users do not pay on every run, so it comes before set-up timing
    cli = import_program()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    if trace:
        metrics = import_breakdown(1 if tiny else IMPORT_SAMPLES)
    else:
        metrics = {"setup_s": measure_setup(1 if tiny else SETUP_SAMPLES)}

    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        sizes = workloads.TINY if tiny else workloads.FULL
        workload = workloads.BUILDERS[name](ROOT, work, seed, sizes)
        runner = Runner(cli, workload)
        for op in workload.ops:
            print("command fastreadout " + " ".join(op.argv))
        if trace:
            metrics.update(_traced(runner, name, seed, seconds,
                                   [m["name"] for m in spec["per_layer"]]))
        else:
            start = time.perf_counter()
            walls = [runner.repetition()]
            while time.perf_counter() - start < seconds:
                walls.append(runner.repetition())
            wall = statistics.median(walls)
            metrics["wall_s"] = wall
            metrics["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print(f"workload {name} seed {seed} repetitions "
                  + " ".join(f"{w:.3f}" for w in walls) + " s")
            if workload.shots:
                print(f"  shots_per_s = {workload.shots / wall:.6g} shots/s")
            if runner.times_of("analyze"):
                print(f"  analyze_s = "
                      f"{statistics.median(runner.times_of('analyze')):.6g} s")
            if runner.times_of("calibrate"):
                print("  calibrate_s = "
                      + _percentile_line(runner.times_of("calibrate")))
            print(f"  ops_failed_frac = {runner.failed / runner.attempted:.6g} ratio")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    listed = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"benchmark: metrics not computed: {missing}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    for m in listed:
        print(f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(f"  attempted = {runner.attempted}, failed = {runner.failed}")
    for error in runner.errors:
        print(f"  FAILED {error}")
    return result


def _traced(runner: Runner, name: str, seed: int, seconds: float,
            names: list[str]) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(runner.repetition())
        tracer.run_id = f"{name}:{seed}:{len(traced)}"
        tracer.install()
        try:
            traced.append(runner.repetition())
        finally:
            tracer.uninstall()
    reps = len(traced)

    peak_alloc = 0.0
    if tracer.largest_batch is not None:
        _, args, kwargs, simulate_batch = tracer.largest_batch
        gc.collect()
        tracemalloc.start()
        try:
            simulate_batch(*args, **kwargs)
            peak_alloc = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{name}-seed{seed}")

    fn = tracer.per_function()
    shots = tracer.counts["shots.shots"]
    batch_s = fn.get("shots.simulate_batch", (0, 0.0, 0.0))[1]
    metrics = {
        "shots.simulate_batch.us_per_shot": batch_s / shots * 1e6 if shots else 0.0,
        "shots.simulate_batch.peak_alloc_mb": peak_alloc,
        "cli.shot_file_mb": sum(p.stat().st_size for op in runner.ops
                                if op.command == "simulate"
                                for p in op.outputs) / 1e6,
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }
    # the rest by name: <function>.self_s, <function>.calls or a count
    for metric in names:
        if metric in metrics or metric.startswith("setup."):
            continue
        base, _, kind = metric.rpartition(".")
        calls, _, self_s = fn.get(base, (0, 0.0, 0.0))
        if kind == "self_s":
            metrics[metric] = self_s / reps
        elif kind == "calls":
            metrics[metric] = calls / reps
        else:
            metrics[metric] = tracer.counts[metric] / reps
    claim, holds = FOCUS[name](metrics)
    print(f"workload {name} seed {seed} untraced repetitions "
          + " ".join(f"{w:.3f}" for w in untraced) + " s, traced "
          + " ".join(f"{w:.3f}" for w in traced) + " s")
    print("  largest self times: " + ", ".join(
        f"{k} {v[2] / reps:.3f} s" for k, v in
        sorted(fn.items(), key=lambda kv: -kv[1][2])[:6]))
    print(f"  focus: {claim}: {'holds' if holds else 'does not hold'}")
    return metrics


def _largest_self(m: dict) -> str:
    return max((k for k in m if k.endswith(".self_s")), key=m.get)


#: what each workload stresses, as the traced run should show it
FOCUS = {
    "readout_ref": lambda m: (
        "cli.cmd_simulate.self_s + cli.cmd_analyze.self_s (CSV write and "
        "parse) > shots.simulate_batch.self_s",
        m["cli.cmd_simulate.self_s"] + m["cli.cmd_analyze.self_s"]
        > m["shots.simulate_batch.self_s"]),
    "mixing_sweep": lambda m: (
        "dynamics.trace.self_s is the largest self time",
        _largest_self(m) == "dynamics.trace.self_s"),
    "calib_design": lambda m: ("shots.shots == 0", m["shots.shots"] == 0),
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own child process, so peak RSS is its own."""
    import workloads

    results = {}
    for name in workloads.BUILDERS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
