"""CI checks beyond tier-1: byte-identical reruns, exit codes and memory
bounds of `fastreadout` on PATH (tools/fastreadout without an install).
`ci_checks.py <check>` runs one check; `all` runs each in workflow order in
its own interpreter, so that a bound on the child processes' largest max RSS
sees only its own commands. Work files go to $RUNNER_TEMP or a temporary dir."""

import csv
import filecmp
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from fastreadout import cli
from fastreadout.analysis import error_budget, fit_shot_histograms, overlap_vs_power
from fastreadout.calib import SpectrumParams, transmission
from fastreadout.dynamics import GRID_STEP, PulseEnvelope, full_model_signal
from fastreadout.shots import ReadoutChain

ROOT = Path(__file__).resolve().parents[1]
CONF = "src/fastreadout/data/reference.conf"


def temp(name: str) -> Path:
    return Path(os.environ["RUNNER_TEMP"]) / name


def check(ok, what: str):
    if not ok:
        raise SystemExit(f"check failed: {what}")


def sets(*items: str) -> list[str]:
    return [arg for item in items for arg in ("--set", item)]


def fastreadout(*argv, cwd=None):
    """Run the fastreadout command; it must exit 0."""
    subprocess.run(["fastreadout", *map(str, argv)], check=True, cwd=cwd)


def fails(code: int, pattern: str, *argv):
    """Run fastreadout: it must exit `code`, its stderr match `pattern`."""
    proc = subprocess.run(["fastreadout", *map(str, argv)],
                          stderr=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stderr)
    check(proc.returncode == code, f"exit {proc.returncode}, not {code}")
    check(re.search(pattern, proc.stderr), f"stderr does not match {pattern!r}")


def same(a: Path, b: Path):
    check(filecmp.cmp(a, b, shallow=False), f"{a} and {b} differ")


def twice(out: Path, names, run):
    """Call run() twice: the files `names` it writes into `out`, copied to
    out/run1 and out/run2, must be byte-identical."""
    for k in (1, 2):
        run()
        (out / f"run{k}").mkdir(parents=True, exist_ok=True)
        for name in names:
            shutil.copy(out / name, out / f"run{k}" / name)
    for name in names:
        same(out / "run1" / name, out / "run2" / name)


def bounded(bound_mb: float, what: str):
    """The largest max RSS of the commands run so far lies below bound_mb."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"max RSS of {what}: {peak:.1f} MB")
    check(peak < bound_mb, f"{peak:.1f} MB is not below {bound_mb} MB")


def write_spectra(out: Path):
    """g.csv and e.csv in `out`: one device's noise-free |S21| scans."""
    out.mkdir(parents=True, exist_ok=True)
    p = SpectrumParams(omega_p=4.756e9, omega_r=4.754e9, J=25e6,
                       chi=-7.7064e6, Q_p=74.0, gamma=1.6e5)
    omega = np.sort(np.concatenate(
        [np.linspace(p.omega_p - 4 * p.kappa_p, p.omega_p + 4 * p.kappa_p, 241)]
        + [np.linspace(p.omega_r + s * p.chi - 3e6, p.omega_r + s * p.chi + 3e6, 121)
           for s in (-1.0, 1.0)]))
    for state in "ge":
        np.savetxt(out / f"{state}.csv",
                   np.column_stack([omega, transmission(omega, p, state)]),
                   delimiter=",", header="frequency_Hz,s21", comments="")


def simulate_and_analyze(out: Path, n_shots: str):
    fastreadout("simulate", "--config", CONF, "--output-dir", out, "--wide",
                "--n-shots", n_shots)
    fastreadout("analyze", "--config", CONF, "--output-dir", out,
                "--input", out / "shots.csv")


def power_sweep(out: Path, *items: str):
    fastreadout("optimize", "--mode", "power", "--config", CONF,
                "--output-dir", out, *sets(*items))


def spectra(out: Path, g: str, e: str) -> list[str]:
    """The command line that calibrates out/g and out/e."""
    return ["calibrate", "--mode", "spectrum", "--config", CONF, "--output-dir",
            str(out), "--input-g", str(out / g), "--input-e", str(out / e)]


def installed_entry_point():
    fastreadout("derive", "--config", CONF, "--output-dir", temp("derive"))


def byte_identical_reruns():
    out = temp("rerun")
    twice(out, ("shots.csv", "report.txt", "histogram.csv"),
          lambda: simulate_and_analyze(out, "2000"))


def one_shot_file_layout():
    """--wide changes nothing, and analyze reads the file written without it.
    Both write to --output-dir ., so the echoed output_dir lines agree."""
    conf, wide, plain = ROOT / CONF, temp("layout-wide"), temp("layout-plain")
    for where, extra in ((wide, ["--wide"]), (plain, [])):
        where.mkdir(parents=True, exist_ok=True)
        fastreadout("simulate", "--config", conf, "--output-dir", ".", *extra,
                    "--n-shots", "2000", cwd=where)
    same(wide / "shots.csv", plain / "shots.csv")
    fastreadout("analyze", "--config", conf, "--output-dir", ".",
                "--input", "shots.csv", cwd=plain)


def streamed_shot_file():
    """Streamed in chunks, with scipy.optimize unloaded, both commands sit
    near 42 MB; holding the whole batch took 136 and 183 MB."""
    out = temp("stream")
    twice(out, ("shots.csv", "report.txt"),
          lambda: simulate_and_analyze(out, "300000"))
    bounded(70, "the commands")


def preselected_shot_file():
    """The premeasurement column, 8 bytes a shot, and the threshold fit's
    one copy of it and mask take 56.5-57.6 MB at 1e6 shots."""
    fastreadout("simulate", "--config", CONF, "--output-dir", temp("preselect"),
                "--n-shots", "1000000", *sets("preselect=true"))
    bounded(61, "the preselected simulate")


def overflow_reruns():
    """At 2e7 1/s both ways most shots need a second round of jump waits.
    After the shot file, the premeasurement fit's 99% point lies above all
    2000 values (2e-9 likely for a fitting Gaussian): exit 3 naming it."""
    out = temp("overflow")

    def run():
        fails(3, "preselection Gaussian fit: its 99% point .* lies above all 2000",
              "simulate", "--config", CONF, "--output-dir", out, "--wide",
              "--n-shots", "2000", *sets("preselect=true", "gamma_mix_up=2e7",
                                         "gamma_mix_down=2e7"))
        check(not (out / "preselect_summary.txt").exists(),
              "preselect_summary.txt was written")
    twice(out, ["shots.csv"], run)


def jump_heavy_reruns():
    """At mix_coeff = 3e7 most shots jump: their q comes from sample_q's
    conditioned means, which no shot file holds."""
    out = temp("power")
    twice(out, ["power.csv"],
          lambda: power_sweep(out, "n_shots=2000", "mix_coeff=3e7"))


def power_sweep_equals_one_fit_per_power():
    """At 2e5 shots the powers' bin counts differ, so the mixture fits take
    one lockstep solve per bin count. Each row of power.csv must equal the
    row of one sample_q and fit_shot_histograms of its power alone."""
    out, settings = temp("power-2e5"), ["n_shots=200000", "mix_coeff=3e7"]
    power_sweep(out, *settings)
    with open(out / "power.csv") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))[1:]
    cfg = cli.resolve_config(CONF, settings)
    device, run_cfg, tau = cli.build_device(cfg), cli.build_shot_config(cfg), cfg["tau"]
    pulse = PulseEnvelope(kind="gated", total_duration=max(160e-9, tau + 24e-9))
    trace = full_model_signal(device, pulse,
                              np.arange(0.0, pulse.total_duration, GRID_STEP))
    eps = overlap_vs_power(trace, device.eta, tau, device.n_drive, cfg["power_grid"])
    check(len(rows) == len(eps), f"rows {rows}")
    bins = []
    for row, n, eps_o in zip(rows, cfg["power_grid"], eps):
        dev_n = replace(device, n_drive=float(n))
        g_mix = cfg["mix_coeff"] * dev_n.lambda_mix * float(n)
        shot_cfg = replace(run_cfg, gamma_mix_up=g_mix, gamma_mix_down=g_mix)
        q, excited = ReadoutChain(dev_n, pulse, shot_cfg).sample_q(
            range(shot_cfg.n_shots), tau)
        fit, centers, _, _ = fit_shot_histograms(q, excited)
        bins.append(len(centers))
        want = [float(n), eps_o, 1.0 - error_budget(q, excited, fit).fidelity]
        check(row == ["%.9g" % v for v in want], f"row {row}, one fit {want}")
    print(f"{len(rows)} rows equal one fit per power; histogram bins {bins}")
    check(len(set(bins)) > 1, f"histogram bins {bins}")


def power_sweep_bounded_memory():
    """sample_q draws q, not records: one power of 1e6 shots takes 75 MB."""
    power_sweep(temp("power-big"), "n_shots=1000000", "power_grid=2.5", "mix_coeff=3e7")
    bounded(120, "optimize --mode power")


def power_grid_bounded_memory():
    """The q of all six powers are held until the fits, 8 bytes a shot and
    power: 112.7-114.8 MB at 1e6 shots; one power takes about 71 MB."""
    power_sweep(temp("power-grid"), "n_shots=1000000", "mix_coeff=3e7")
    bounded(130, "optimize --mode power over the default grid")


def ratio_search_reruns():
    """Both |chi/kappa_eff| searches: a scan and a Brent search per tau."""
    out = temp("ratio")
    twice(out, ["ratio.csv"], lambda: fastreadout(
        "optimize", "--mode", "ratio", "--config", CONF, "--output-dir", out))


def in_process_reruns():
    """derive, the spectrum calibration and the ratio search, twice through
    cli.main in one interpreter, then through the entry point, into one
    directory: every output must match byte for byte."""
    out = temp("inproc")
    write_spectra(out)
    commands = (["derive"],
                ["calibrate", "--mode", "spectrum", "--input-g", str(out / "g.csv"),
                 "--input-e", str(out / "e.csv")],
                ["optimize", "--mode", "ratio"])
    names = ("derived.txt", "spectrum_fit.txt", "ratio.csv")

    def run():
        for argv in commands:
            check(cli.main([*argv, "--config", CONF, "--output-dir", str(out)]) == 0,
                  f"cli.main {argv}")
    twice(out, names, run)
    for argv in commands:
        fastreadout(*argv, "--config", CONF, "--output-dir", out)
    for name in names:
        same(out / "run1" / name, out / name)


def no_signal_and_descending_sweep():
    """n_drive = 0 gives no signal at any ratio: exit 3 naming n_drive.
    in_process_reruns' spectra with their rows reversed calibrate, in its
    directory, to its spectrum_fit.txt byte for byte."""
    fails(3, "n_drive", "optimize", "--mode", "ratio", "--config", CONF,
          "--output-dir", temp("nosignal"), *sets("n_drive=0"))
    out = temp("inproc")
    if not (out / "run1" / "spectrum_fit.txt").exists():
        in_process_reruns()
    for state in "ge":
        head, *rows = (out / f"{state}.csv").read_text().splitlines(keepends=True)
        (out / f"{state}_desc.csv").write_text(head + "".join(reversed(rows)))
    fastreadout(*spectra(out, "g_desc.csv", "e_desc.csv"))
    same(out / "run1" / "spectrum_fit.txt", out / "spectrum_fit.txt")


def invalid_value():
    """An invalid value exits 2, and the message names its key."""
    cases = """ratio_tau_grid -1 optimize --mode ratio
               mix_coeff -1 optimize --mode power
               premeasure_amplitude -1 simulate
               grid_step 200ns rate
               omega_q 4754MHz derive
               dispersive_guard -1 derive
               measure_duration 400ns simulate
               tau 4ns optimize --mode power
               ratio_tau_grid 1e-300 optimize --mode ratio
               n_shots 1999 optimize --mode power"""
    for key, value, *command in map(str.split, cases.splitlines()):
        fails(2, key, *command, "--config", CONF, "--output-dir", temp("invalid"),
              *sets("preselect=true", "n_shots=10", f"{key}={value}"))


def corrupted_shot_samples():
    """q0 of shot 100 edited: a sample that is not finite is a malformed
    file (exit 2), a finite one far from all others too many bins (exit 3)."""
    out = temp("corrupt")
    fastreadout("simulate", "--config", CONF, "--output-dir", out,
                "--n-shots", "2000")
    head, start, rest = (out / "shots.csv").read_bytes().partition(b"\r\n100,")
    row, end, tail = rest.partition(b"\r\n")
    fields = row.split(b",", 3)  # prep, preselect_value, q0, the rest
    for value, code, message in [("inf", 2, "not finite"),
                                 ("1e300", 3, "histogram bins")]:
        fields[2] = value.encode()
        path = out / f"{value}.csv"
        path.write_bytes(head + start + b",".join(fields) + end + tail)
        fails(code, message, "analyze", "--config", CONF, "--output-dir", out,
              "--input", path)


def spectrum_calibration():
    """The fit recovers chi, without scipy in bounded memory, and fits quoted,
    commented and 3-column spectra alike; a malformed row exits 2, named."""
    out = temp("spectrum")
    write_spectra(out)
    argv = spectra(out, "g.csv", "e.csv")
    # first, so that the bound sees no other command: where importing scipy
    # fails, the fit runs on numpy alone in about 32 MB (81 MB with scipy)
    script = ("import sys; sys.modules['scipy'] = None\n"
              "from fastreadout.cli import main\n"
              f"sys.exit(main({argv!r}))")
    code = subprocess.run([sys.executable, "-c", script]).returncode
    bounded(50, "calibrate without scipy")
    check(code == 0, f"calibrate without scipy exit {code}")
    (out / "spectrum_fit.txt").rename(out / "plain_fit.txt")
    fastreadout(*argv)
    fit = dict(line.split(" = ") for line in (out / "spectrum_fit.txt")
               .read_text().splitlines() if not line.startswith("#"))
    check(abs(float(fit["chi_Hz"]) / -7.7064e6 - 1.0) < 1e-3, fit["chi_Hz"])
    # the same spectra with comment and blank lines, a third column and
    # quoted numbers, which the reader parses row by row: the same fit
    for state in "ge":
        lines = (out / f"{state}.csv").read_text().splitlines()
        rows = ["# exported spectrum", lines[0] + ",note", ""]
        for i, line in enumerate(lines[1:]):
            f, s = line.split(",")
            rows.append(f'"{f}","{s}",x' if i % 3 == 0 else f"{f},{s},{i}")
            if i % 50 == 0:
                rows += ["", "# marker"]
        (out / f"{state}_variant.csv").write_text("\n".join(rows) + "\n")
    fastreadout(*spectra(out, "g_variant.csv", "e_variant.csv"))
    same(out / "plain_fit.txt", out / "spectrum_fit.txt")
    # a malformed row exits 2, and stderr names it
    lines = (out / "g.csv").read_text().splitlines(keepends=True)
    lines[4] = "4.7e9,n/a\n"
    (out / "g_bad.csv").write_text("".join(lines))
    fails(2, re.escape("4.7e9,n/a"), *spectra(out, "g_bad.csv", "e.csv"))


#: the checks in workflow order
STEPS = [installed_entry_point, byte_identical_reruns, one_shot_file_layout,
         streamed_shot_file, preselected_shot_file, overflow_reruns,
         jump_heavy_reruns, power_sweep_equals_one_fit_per_power,
         power_sweep_bounded_memory, power_grid_bounded_memory,
         ratio_search_reruns, in_process_reruns, no_signal_and_descending_sweep,
         invalid_value, corrupted_shot_samples, spectrum_calibration]


def main(argv: list[str]):
    checks = {step.__name__: step for step in STEPS}
    if argv != ["all"] and (len(argv) != 1 or argv[0] not in checks):
        raise SystemExit("usage: ci_checks.py all | " + " | ".join(checks))
    # the layout check runs commands in other directories
    paths = filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))
    os.environ["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath, paths))
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory(prefix="ci-checks-") as tmp:
        os.environ["RUNNER_TEMP"] = os.environ.get("RUNNER_TEMP") or tmp
        if argv != ["all"]:
            return checks[argv[0]]()
        for name in checks:
            print(f"== {name}", flush=True)
            start = time.perf_counter()
            if subprocess.run([sys.executable, __file__, name]).returncode:
                raise SystemExit(f"{name} failed")
            print(f"== {name}: {time.perf_counter() - start:.1f} s", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
