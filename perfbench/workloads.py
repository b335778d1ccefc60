"""The benchmark's workloads: inputs made from the seed, the CLI command
lines each one runs, and the checks on their outputs.

Every workload runs the shipped reference device configuration. The
program only ever sees CLI arguments and the files written here; shot
counts, seeds and the spectrum generator belong to the benchmark.

The checks are statistical or compare against closed forms, never against
stored bytes of an earlier run, so a change of the program's random stream
still passes them. Determinism is checked separately by the runner: every
repetition of a command must rewrite its output files byte for byte.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CONF = Path("src") / "fastreadout" / "data" / "reference.conf"

#: drive-power grid of ``optimize --mode power`` (the CLI default)
POWER_GRID = (1.0, 1.5, 2.0, 2.5, 3.5, 5.0)
#: mixing coefficient of mixing_sweep: gamma ~ 4e6 1/s at n_drive = 2.5
MIX_COEFF = 3e7
#: search bounds of ``optimize.optimal_ratio_vs_tau``
RATIO_BOUNDS = (0.02, 3.0)


@dataclass
class Op:
    """One CLI command: its argv, the files it writes and their check."""

    argv: list[str]
    outputs: list[Path]
    check: Callable[[], str | None]

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    ops: list[Op]
    shots: int  # Monte Carlo shots simulated and analysed per repetition


@dataclass(frozen=True)
class Sizes:
    readout_shots: int = 100_000
    mixing_shots: int = 10_000
    spectra: int = 20


FULL = Sizes()
TINY = Sizes(readout_shots=4_000, mixing_shots=2_000, spectra=2)


def _report(path: Path) -> dict[str, str]:
    """key = value lines of a CLI report, header lines skipped."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or "=" not in line:
                continue
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _csv_rows(path: Path) -> list[list[str]]:
    """Data rows of a CLI CSV, header comment lines and column row skipped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[1:]


def _base(root: Path, out: Path, command: str, *extra: str) -> list[str]:
    return [command, "--config", str(root / CONF), "--output-dir", str(out),
            *extra]


def _program_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# readout_ref
# ---------------------------------------------------------------------------

#: fidelity and fitted overlap error of the reference run at 1e5 shots
#: (measured over seeds 0-4: F 0.9861-0.9871, eps_o 0.00328-0.00351);
#: tolerances cover > 6 binomial sigma and grow as 1/sqrt(shots)
READOUT_FIDELITY = (0.9866, 0.004)
READOUT_EPS_O = (0.0034, 0.0008)


def _within(value: float, centre_tol, shots: int) -> bool:
    centre, tol = centre_tol
    return abs(value - centre) <= tol * math.sqrt(100_000 / shots)


def readout_ref(root: Path, work: Path, seed: int, sizes: Sizes) -> Workload:
    rng = np.random.default_rng(seed)
    n = sizes.readout_shots
    out = work / "readout"
    shot_file = out / "shots.csv"

    def check_simulate():
        rows = 0
        with open(shot_file, "rb") as fh:
            for line in fh:
                if not line.startswith(b"#"):
                    rows += 1
        if rows - 1 != n:
            return f"shot file holds {rows - 1} shots, expected {n}"
        return None

    def check_analyze():
        rep = _report(out / "report.txt")
        fid, eps_o = float(rep["fidelity"]), float(rep["eps_o"])
        if not _within(fid, READOUT_FIDELITY, n):
            return f"fidelity {fid} outside {READOUT_FIDELITY} at {n} shots"
        if not _within(eps_o, READOUT_EPS_O, n):
            return f"eps_o {eps_o} outside {READOUT_EPS_O} at {n} shots"
        hist = np.array(_csv_rows(out / "histogram.csv"), dtype=float)
        if hist.size == 0 or not np.all(np.isfinite(hist)):
            return "histogram.csv empty or not finite"
        return None

    ops = [
        Op(_base(root, out, "simulate", "--wide", "--n-shots", str(n),
                 "--seed", str(_program_seed(rng))),
           [shot_file], check_simulate),
        Op(_base(root, out, "analyze", "--input", str(shot_file)),
           [out / "report.txt", out / "histogram.csv"], check_analyze),
    ]
    return Workload(ops, shots=n)


# ---------------------------------------------------------------------------
# mixing_sweep
# ---------------------------------------------------------------------------

def _reference_eps_o(root: Path) -> list[float]:
    """eps_o column of optimize --mode power, from analysis.overlap_vs_power."""
    from fastreadout import analysis, cli
    from fastreadout.dynamics import PulseEnvelope, full_model_signal

    cfg = cli.resolve_config(str(root / CONF), [])
    device = cli.build_device(cfg)
    tau = cfg["tau"]
    pulse = PulseEnvelope(kind="gated", total_duration=max(160e-9, tau + 24e-9))
    times = np.arange(0.0, pulse.total_duration, 0.5e-9)
    trace = full_model_signal(device, pulse, times, method="exact")
    return list(analysis.overlap_vs_power(trace, device.eta, tau,
                                          device.n_drive, POWER_GRID))


def mixing_sweep(root: Path, work: Path, seed: int, sizes: Sizes) -> Workload:
    rng = np.random.default_rng(seed)
    out = work / "mixing"
    eps_ref = _reference_eps_o(root)

    def check_optimize():
        rows = np.array(_csv_rows(out / "power.csv"), dtype=float)
        if rows.shape != (len(POWER_GRID), 3) or not np.all(np.isfinite(rows)):
            return f"power.csv has shape {rows.shape} or non-finite values"
        if tuple(rows[:, 0]) != POWER_GRID:
            return f"n_drive column {rows[:, 0]} is not the power grid"
        # the CSV carries 9 significant digits
        expected = [float("%.9g" % e) for e in eps_ref]
        if list(rows[:, 1]) != expected:
            return f"eps_o column {rows[:, 1]} != overlap_vs_power {expected}"
        infid = rows[rows[:, 0] >= 2.0, 2]
        if not np.all(np.diff(infid) > 0.0):
            return f"infidelity_mc {infid} does not rise with n_drive from 2"
        return None

    ops = [Op(_base(root, out, "optimize", "--mode", "power",
                    "--seed", str(_program_seed(rng)),
                    "--set", f"n_shots={sizes.mixing_shots}",
                    "--set", f"mix_coeff={MIX_COEFF:g}"),
              [out / "power.csv"], check_optimize)]
    return Workload(ops,
                    shots=sizes.mixing_shots * len(POWER_GRID))


# ---------------------------------------------------------------------------
# calib_design
# ---------------------------------------------------------------------------

def _random_device(rng: np.random.Generator) -> dict[str, float]:
    """A random resonator/filter pair, drawn as acceptance criterion 7 does."""
    omega_p = rng.uniform(4.5e9, 5.5e9)
    return dict(omega_p=omega_p, omega_r=omega_p - rng.uniform(-5e6, 5e6),
                J=rng.uniform(18e6, 35e6), chi=-rng.uniform(4e6, 12e6),
                Q_p=rng.uniform(50.0, 120.0), gamma=rng.uniform(1e5, 5e5),
                scale=rng.uniform(0.5, 2.0))


def _spectrum_pair(rng: np.random.Generator, truth: dict[str, float]):
    """241 coarse points plus 2 x 601 around the dressed resonances, 1 %
    multiplicative noise; |S21| from the two-mode model of calib."""
    from fastreadout.calib import SpectrumParams, transmission

    p = SpectrumParams(**truth)
    kappa_p = p.kappa_p
    coarse = np.linspace(p.omega_p - 4 * kappa_p, p.omega_p + 4 * kappa_p, 241)
    fine = [np.linspace(p.omega_r + s * p.chi - 3e6, p.omega_r + s * p.chi + 3e6,
                        601) for s in (-1.0, 1.0)]
    omega = np.sort(np.concatenate([coarse] + fine))
    s_g = transmission(omega, p, "g") * (1.0 + 0.01 * rng.standard_normal(len(omega)))
    s_e = transmission(omega, p, "e") * (1.0 + 0.01 * rng.standard_normal(len(omega)))
    return omega, s_g, s_e


def _write_spectrum(path: Path, omega, s21):
    with open(path, "w") as fh:
        fh.write("frequency_Hz,s21\n")
        for f, s in zip(omega, s21):
            fh.write("%.17g,%.17g\n" % (f, s))


#: criterion 1: chi, n_crit and kappa_eff of the reference device
DERIVED_REF = {"chi_Hz": (-7.71e6, 0.05), "n_crit": (14.1, 0.10),
               "kappa_eff_Hz": (38.8e6, 0.05)}


#: generator seed of the spectrum pairs: acceptance criterion 7's, so the 20
#: full-size pairs are exactly that criterion's. The pairs do not follow
#: --seed because one fit takes 0.03 s to 5.6 s depending on the device and
#: the noise draw (median 0.06 s, 5 of 120 random pairs above 0.5 s): over
#: 200 random draws of 30 pairs the summed fit time had quartiles of 3.1 s
#: and 8.2 s, a spread between seeds that no repetition can average out.
SPECTRUM_SEED = 23


def calib_design(root: Path, work: Path, seed: int, sizes: Sizes) -> Workload:
    rng = np.random.default_rng(SPECTRUM_SEED)
    inputs = work / "spectra"
    inputs.mkdir(parents=True, exist_ok=True)
    ops = []
    for k in range(sizes.spectra):
        truth = _random_device(rng)
        omega, s_g, s_e = _spectrum_pair(rng, truth)
        g_file, e_file = inputs / f"g{k}.csv", inputs / f"e{k}.csv"
        _write_spectrum(g_file, omega, s_g)
        _write_spectrum(e_file, omega, s_e)
        out = work / f"calib{k}"
        ops.append(Op(_base(root, out, "calibrate", "--mode", "spectrum",
                            "--input-g", str(g_file), "--input-e", str(e_file)),
                      [out / "spectrum_fit.txt"],
                      _fit_check(out / "spectrum_fit.txt", truth)))

    out = work / "design"

    def check_derive():
        rep = _report(out / "derived.txt")
        for key, (ref, rel) in DERIVED_REF.items():
            if abs(float(rep[key]) / ref - 1.0) > rel:
                return f"{key} = {rep[key]} not within {rel:.0%} of {ref:g}"
        return None

    def check_ratio():
        rows = np.array(_csv_rows(out / "ratio.csv"), dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 3 or not np.all(np.isfinite(rows)):
            return f"ratio.csv has shape {rows.shape} or non-finite values"
        lo, hi = RATIO_BOUNDS
        if np.any(rows[:, 1:] < lo) or np.any(rows[:, 1:] > hi):
            return f"ratio columns {rows[:, 1:].tolist()} outside {RATIO_BOUNDS}"
        return None

    ops.append(Op(_base(root, out, "derive"), [out / "derived.txt"], check_derive))
    ops.append(Op(_base(root, out, "optimize", "--mode", "ratio"),
                  [out / "ratio.csv"], check_ratio))
    return Workload(ops, shots=0)


def _fit_check(path: Path, truth: dict[str, float]):
    """Criterion 7's bar: every fitted parameter within 1 % of the truth;
    the two resonance frequencies relative to the 8 kappa_p scan span."""
    def check():
        rep = _report(path)
        span = 8 * truth["omega_p"] / truth["Q_p"]
        errs = {
            "omega_p": abs(float(rep["omega_p_Hz"]) - truth["omega_p"]) / span,
            "omega_r": abs(float(rep["omega_r_Hz"]) - truth["omega_r"]) / span,
            "J": abs(float(rep["J_Hz"]) / truth["J"] - 1.0),
            "chi": abs(float(rep["chi_Hz"]) / truth["chi"] - 1.0),
            "Q_p": abs(float(rep["Q_p"]) / truth["Q_p"] - 1.0),
            "gamma": abs(float(rep["gamma_Hz"]) / truth["gamma"] - 1.0),
        }
        bad = {k: v for k, v in errs.items() if not v < 0.01}
        return f"fit errors above 1 %: {bad}" if bad else None
    return check


BUILDERS = {
    "readout_ref": readout_ref,
    "mixing_sweep": mixing_sweep,
    "calib_design": calib_design,
}
