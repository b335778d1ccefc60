"""Command-line front end.

Subcommands: derive, signal, rate, simulate, analyze, optimize, calibrate.
Configuration comes from a flat ``key = value`` file; any key can be
overridden on the command line with ``--set key=value`` (overrides win).
Every output file starts with '#'-prefixed header lines echoing the full
resolved configuration and seed, so a run is reproducible from its outputs
alone. Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, calib, optimize, shots
from .config import load_config, parse_bool, parse_int, parse_quantity
from .dynamics import (PulseEnvelope, full_model_signal, integrated_rate,
                       mean_quadrature_traces, qss_signal, to_sqrt_mhz)
from .errors import ConfigError, FastReadoutError
from .params import DeviceParams

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# key -> (type tag, default); quantities and list entries accept unit suffixes
SCHEMA = {
    # device
    "g": ("quantity", None),
    "omega_q": ("quantity", None),
    "omega_r": ("quantity", None),
    "omega_p": ("quantity", None),
    "alpha": ("quantity", None),
    "J": ("quantity", None),
    "Q_p": ("quantity", None),
    "T1": ("quantity", None),
    "eta": ("quantity", None),
    "n_drive": ("quantity", None),
    "delta_p": ("quantity", "none"),
    "gamma_int": ("quantity", 0.0),
    "omega_d": ("quantity", "none"),
    "dispersive_guard": ("quantity", 10.0),
    # pulse
    "pulse_kind": ("str", "gated"),
    "pulse_amplitude": ("quantity", 1.0),
    "boost_factor": ("quantity", 2.5),
    "boost_duration": ("quantity", 4e-9),
    "pulse_duration": ("quantity", 300e-9),
    # shots
    "n_shots": ("int", 20000),
    "p_thermal": ("quantity", 0.003),
    "gamma_mix_up": ("quantity", 0.0),
    "gamma_mix_down": ("quantity", 0.0),
    "preselect": ("bool", False),
    "prep_error": ("quantity", 0.0),
    "dt_bin": ("quantity", 8e-9),
    "measure_duration": ("quantity", "none"),
    "premeasure_duration": ("quantity", 152e-9),
    "premeasure_window": ("quantity", 48e-9),
    "premeasure_amplitude": ("quantity", 1.0),
    "reset_gap": ("quantity", 100e-9),
    # analysis
    "tau": ("quantity", 56e-9),
    "grid_step": ("quantity", 0.5e-9),
    # optimize
    "ratio_tau_grid": ("floats", (2.0, 4.5, 8.0, 12.0, 20.0)),
    "power_grid": ("floats", (1.0, 1.5, 2.0, 2.5, 3.5, 5.0)),
    "mix_coeff": ("quantity", optimize.DEFAULT_MIX_COEFF),
    # run control
    "seed": ("int", 0),
    "output_dir": ("str", "."),
}

_DEVICE_KEYS = ("g", "omega_q", "omega_r", "omega_p", "alpha", "J", "Q_p",
                "T1", "eta", "n_drive", "delta_p", "gamma_int", "omega_d",
                "dispersive_guard")


def _parse_value(key: str, raw):
    kind, default = SCHEMA[key]
    if isinstance(raw, (int, float, bool, tuple)) or raw is None:
        return raw
    text = str(raw).strip()
    if kind != "str" and text.lower() == "none":
        # none means something where it is the default, on a required device
        # key (then reported missing) and for mix_coeff (no mixing)
        if default in (None, "none") or key == "mix_coeff":
            return None
        raise ConfigError(f"{key} cannot be none")
    try:
        if kind == "quantity":
            return parse_quantity(text)
        if kind == "int":
            return parse_int(text)
        if kind == "bool":
            return parse_bool(text)
        if kind == "floats":
            return tuple(parse_quantity(v) for v in text.split(","))
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return text


def resolve_config(path: str | None, overrides) -> dict:
    """Merge file values, defaults, and --set overrides into a typed dict."""
    raw: dict = {}
    if path is not None:
        raw.update(load_config(path))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        k, v = item.split("=", 1)
        raw[k.strip()] = v.strip()
    unknown = sorted(set(raw) - set(SCHEMA))
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    out = {key: _parse_value(key, raw.get(key, default))
           for key, (_, default) in SCHEMA.items()}
    missing = [k for k in _DEVICE_KEYS
               if out[k] is None and SCHEMA[k][1] is None]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    return out


def build_device(cfg: dict) -> DeviceParams:
    return DeviceParams(
        g=cfg["g"], omega_q=cfg["omega_q"], omega_r=cfg["omega_r"],
        omega_p=cfg["omega_p"], alpha=cfg["alpha"], J=cfg["J"],
        Q_p=cfg["Q_p"], T1=cfg["T1"], eta=cfg["eta"], n_drive=cfg["n_drive"],
        delta_p=cfg["delta_p"], gamma_int=cfg["gamma_int"],
        omega_d=cfg["omega_d"], dispersive_guard=cfg["dispersive_guard"],
    )


def build_pulse(cfg: dict) -> PulseEnvelope:
    return PulseEnvelope(kind=cfg["pulse_kind"], amplitude=cfg["pulse_amplitude"],
                         boost_factor=cfg["boost_factor"],
                         boost_duration=cfg["boost_duration"],
                         total_duration=cfg["pulse_duration"])


def build_shot_config(cfg: dict) -> shots.ShotConfig:
    return shots.ShotConfig(
        n_shots=cfg["n_shots"], master_seed=cfg["seed"], dt_bin=cfg["dt_bin"],
        p_thermal=cfg["p_thermal"], gamma_mix_up=cfg["gamma_mix_up"],
        gamma_mix_down=cfg["gamma_mix_down"], preselect=cfg["preselect"],
        prep_error=cfg["prep_error"], measure_duration=cfg["measure_duration"],
        premeasure_duration=cfg["premeasure_duration"],
        premeasure_window=cfg["premeasure_window"],
        premeasure_amplitude=cfg["premeasure_amplitude"],
        reset_gap=cfg["reset_gap"],
    )


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.9g" % v
    if isinstance(v, tuple):
        return ",".join("%.9g" % x for x in v)
    if v is None:
        return "none"
    return str(v)


def _header_lines(cfg: dict, command: str) -> list[str]:
    lines = [f"# command = {command}"]
    for key in sorted(cfg):
        lines.append(f"# {key} = {_fmt(cfg[key])}")
    return lines


def _write_report(path: Path, cfg: dict, command: str, items):
    with open(path, "w") as fh:
        for line in _header_lines(cfg, command):
            fh.write(line + "\n")
        for key, value in items:
            fh.write(f"{key} = {_fmt(value)}\n")


def _write_csv(path: Path, cfg: dict, command: str, columns, rows):
    with open(path, "w", newline="") as fh:
        for line in _header_lines(cfg, command):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_derive(cfg: dict, args) -> int:
    device = build_device(cfg)
    items = [
        ("chi_Hz", device.chi), ("n_crit", device.n_crit),
        ("kappa_eff_Hz", device.kappa_eff), ("kappa_p_Hz", device.kappa_p),
        ("lambda_mix", device.lambda_mix), ("delta_Hz", device.delta),
    ]
    out = Path(cfg["output_dir"]) / "derived.txt"
    _write_report(out, cfg, "derive", items)
    for key, value in items:
        print(f"{key} = {_fmt(value)}")
    return 0


def _fine_times(cfg: dict):
    return np.arange(0.0, cfg["pulse_duration"], cfg["grid_step"])


def cmd_signal(cfg: dict, args) -> int:
    device = build_device(cfg)
    pulse = build_pulse(cfg)
    times = _fine_times(cfg)
    qt = mean_quadrature_traces(device, pulse, times)
    qss = qss_signal(device.n_drive, device.chi, device.kappa_eff, times)
    rows = [
        (t * 1e9, s, qg, qe, "full")
        for t, s, qg, qe in zip(times, to_sqrt_mhz(qt.signal.values),
                                qt.q_g, qt.q_e)
    ]
    rows += [
        (t * 1e9, s, float("nan"), float("nan"), "QSS")
        for t, s in zip(times, to_sqrt_mhz(qss))
    ]
    _write_csv(Path(cfg["output_dir"]) / "signal.csv", cfg, "signal",
               ("t_ns", "S_sqrtMHz", "Qg", "Qe", "model"), rows)
    return 0


def cmd_rate(cfg: dict, args) -> int:
    device = build_device(cfg)
    pulse = build_pulse(cfg)
    times = _fine_times(cfg)
    trace = full_model_signal(device, pulse, times)
    taus = np.arange(cfg["dt_bin"], times[-1], cfg["dt_bin"])
    rows = [(tau * 1e9, integrated_rate(trace, tau)) for tau in taus]
    _write_csv(Path(cfg["output_dir"]) / "rate.csv", cfg, "rate",
               ("tau_ns", "s_tau"), rows)
    return 0


#: shot rows formatted per write by the shot-file writer
_SHOT_CHUNK = 2048


def _write_shot_csv(path: Path, cfg: dict, batch: shots.ShotBatch, wide: bool):
    """Write the shot CSV with the bytes _write_csv would give.

    Wide: one row per shot (shot_id, prep, preselect_value, q0, q1, ...);
    long: one row per bin (shot_id, prep, t_ns, Q). Each chunk of
    _SHOT_CHUNK shots is formatted with one %-template that repeats the
    csv.writer row, so no per-value list of the whole file is built.
    """
    n_bins = batch.n_bins
    if wide:
        columns = ["shot_id", "prep", "preselect_value"] + \
                  [f"q{k}" for k in range(n_bins)]
        row = "%d,%s,%.9g" + ",%.9g" * n_bins + "\r\n"
        fields = 3 + n_bins
    else:
        columns = ["shot_id", "prep", "t_ns", "Q"]
        t_ns = (np.arange(n_bins) + 0.5) * cfg["dt_bin"] * 1e9
        row = "".join(f"%d,%s,{_fmt(t)},%.9g\r\n" for t in t_ns.tolist())
        fields = 3 * n_bins
    with open(path, "w", newline="") as fh:
        for line in _header_lines(cfg, "simulate"):
            fh.write(line + "\n")
        csv.writer(fh).writerow(columns)
        for a in range(0, len(batch), _SHOT_CHUNK):
            b = min(a + _SHOT_CHUNK, len(batch))
            values = np.empty((b - a, fields), dtype=object)
            if wide:
                values[:, 0] = np.arange(a, b)
                values[:, 1] = batch.prep[a:b]
                values[:, 2] = batch.preselect[a:b]
                values[:, 3:] = batch.samples[a:b]
            else:
                values[:, 0::3] = np.arange(a, b)[:, None]
                values[:, 1::3] = batch.prep[a:b, None]
                values[:, 2::3] = batch.samples[a:b]
            fh.write((row * (b - a)) % tuple(values.ravel().tolist()))


def cmd_simulate(cfg: dict, args) -> int:
    device = build_device(cfg)
    pulse = build_pulse(cfg)
    shot_cfg = build_shot_config(cfg)
    batch = shots.simulate_batch(device, pulse, shot_cfg)
    out_dir = Path(cfg["output_dir"])
    _write_shot_csv(out_dir / "shots.csv", cfg, batch, args.wide)
    if shot_cfg.preselect:
        kept, rejected = shots.run_preselection(batch)
        _write_report(out_dir / "preselect_summary.txt", cfg, "simulate",
                      [("n_shots", len(batch)), ("n_kept", len(kept)),
                       ("rejected_fraction", rejected)])
    return 0


#: configuration keys that fix the mean quadratures of a shot file
_SHOT_FILE_KEYS = _DEVICE_KEYS + ("pulse_kind", "pulse_amplitude", "boost_factor",
                                  "boost_duration", "pulse_duration", "dt_bin",
                                  "measure_duration")


def _read_shot_csv(path: str, cfg: dict) -> shots.ShotBatch:
    """Read a wide-format shot CSV that matches the configuration.

    The '#' header must echo the same device, pulse, dt_bin and
    measure_duration as `cfg`; otherwise ConfigError names the difference.
    """
    header = {}
    with open(path) as fh:
        line = fh.readline()
        while line.startswith("#"):
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
            line = fh.readline()
        if line.split(",")[:3] != ["shot_id", "prep", "preselect_value"]:
            raise ConfigError("analyze expects the wide shot CSV format")
        for key in _SHOT_FILE_KEYS:
            if header.get(key) != _fmt(cfg[key]):
                raise ConfigError(
                    f"shot file has {key} = {header.get(key, '(missing)')}, "
                    f"the configuration {_fmt(cfg[key])}")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2,
                              converters={1: {"g": 0.0, "e": 1.0}.__getitem__})
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"malformed shot file {path}: {exc}") from exc
    if len(data) == 0:
        raise ConfigError(f"shot file {path} holds no shots")
    return shots.ShotBatch(prep=np.where(data[:, 1] == 1.0, "e", "g"),
                           samples=data[:, 3:], preselect=data[:, 2])


def cmd_analyze(cfg: dict, args) -> int:
    if args.input is None:
        raise ConfigError("analyze requires --input shots.csv")
    chain = shots.ReadoutChain(build_device(cfg), build_pulse(cfg),
                               build_shot_config(cfg))
    batch = _read_shot_csv(args.input, cfg)
    if batch.n_bins != chain.n_bins:
        raise ConfigError(f"shot file holds {batch.n_bins} bins, the "
                          f"configuration's window {chain.n_bins}")
    q, prep = analysis.integrate_batch(batch, chain.weights(cfg["tau"]),
                                       chain.device.kappa_p)
    fit, bin_centers, hist_g, hist_e = analysis.fit_shot_histograms(q, prep)
    budget = analysis.error_budget(q, prep, fit)
    out_dir = Path(cfg["output_dir"])
    _write_report(out_dir / "report.txt", cfg, "analyze", [
        ("fidelity", budget.fidelity),
        ("avg_assignment_fidelity", budget.avg_assignment_fidelity),
        ("eps_g", budget.eps_g), ("eps_e", budget.eps_e),
        ("eps_o", budget.eps_o), ("eps_o_g", budget.eps_o_g),
        ("eps_o_e", budget.eps_o_e),
        ("eps_t_g", budget.eps_t_g), ("eps_t_e", budget.eps_t_e),
        ("mu_g", fit.mu_g), ("mu_e", fit.mu_e),
        ("sigma_g", fit.sigma_g), ("sigma_e", fit.sigma_e),
        ("A_gg", fit.A_gg), ("A_eg", fit.A_eg),
        ("A_ge", fit.A_ge), ("A_ee", fit.A_ee),
        ("threshold", fit.threshold),
    ])
    rows = zip(bin_centers, hist_g, hist_e,
               fit.counts_g(bin_centers), fit.counts_e(bin_centers))
    _write_csv(out_dir / "histogram.csv", cfg, "analyze",
               ("bin_center", "count_g", "count_e", "fit_g", "fit_e"), rows)
    print(f"fidelity = {_fmt(budget.fidelity)}")
    return 0


def cmd_optimize(cfg: dict, args) -> int:
    device = build_device(cfg)
    out_dir = Path(cfg["output_dir"])
    if args.mode == "ratio":
        x_grid = np.asarray(cfg["ratio_tau_grid"], dtype=float)
        taus = x_grid / (2.0 * math.pi * abs(device.chi))
        r_qss = optimize.optimal_ratio_vs_tau(device, taus, "qss")
        r_full = optimize.optimal_ratio_vs_tau(device, taus, "full")
        rows = zip(taus * 1e9, r_qss, r_full)
        _write_csv(out_dir / "ratio.csv", cfg, "optimize",
                   ("tau_ns", "ratio_qss", "ratio_full"), rows)
    else:
        points = optimize.power_tradeoff(
            device, cfg["power_grid"], cfg["tau"],
            mix_coeff=cfg["mix_coeff"], n_shots=cfg["n_shots"],
            master_seed=cfg["seed"])
        rows = [(p.n_drive, p.eps_o, 1.0 - p.fidelity_mc) for p in points]
        _write_csv(out_dir / "power.csv", cfg, "optimize",
                   ("n_drive", "eps_o", "infidelity_mc"), rows)
    return 0


def _read_two_column_csv(path: str):
    """The first two columns of a CSV as float arrays. '#' lines and blank
    rows are skipped, and so is a non-numeric first row (the column header);
    any other row without two numbers raises ConfigError."""
    xs, ys = [], []
    with open(path) as fh:
        lines = (line for line in fh if not line.startswith("#"))
        rows = [row for row in csv.reader(lines) if row]
    for i, row in enumerate(rows):
        try:
            x, y = float(row[0]), float(row[1])
        except (ValueError, IndexError) as exc:
            if i == 0 and len(row) >= 2:
                continue
            raise ConfigError(f"{path}: row {','.join(row)!r} is not two numbers") \
                from exc
        xs.append(x)
        ys.append(y)
    return np.asarray(xs), np.asarray(ys)


def cmd_calibrate(cfg: dict, args) -> int:
    out_dir = Path(cfg["output_dir"])
    if args.mode == "spectrum":
        if args.input_g is None or args.input_e is None:
            raise ConfigError("calibrate spectrum requires --input-g and --input-e")
        om_g, s_g = _read_two_column_csv(args.input_g)
        om_e, s_e = _read_two_column_csv(args.input_e)
        if len(om_g) != len(om_e) or np.any(om_g != om_e):
            raise ConfigError("spectrum files must share the frequency grid")
        fit = calib.fit_transmission(om_g, s_g, s_e)
        _write_report(out_dir / "spectrum_fit.txt", cfg, "calibrate", [
            ("omega_p_Hz", fit.omega_p), ("omega_r_Hz", fit.omega_r),
            ("J_Hz", fit.J), ("chi_Hz", fit.chi), ("Q_p", fit.Q_p),
            ("gamma_Hz", fit.gamma), ("scale", fit.scale),
            ("kappa_p_Hz", fit.kappa_p),
        ])
    else:
        if args.input is None:
            raise ConfigError("calibrate stark requires --input")
        chi = build_device(cfg).chi
        powers, freqs = _read_two_column_csv(args.input)
        fit = calib.stark_calibration(powers, freqs, chi)
        _write_report(out_dir / "stark_fit.txt", cfg, "calibrate", [
            ("photons_per_watt", fit.photons_per_watt),
            ("nu_q0_Hz", fit.nu_q0),
            ("degenerate", fit.degenerate),
        ])
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastreadout",
        description="Dispersive-readout simulation and analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       dest="overrides", help="override a configuration key")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--output-dir", help="directory for output files")

    for name in ("derive", "signal", "rate"):
        common(sub.add_parser(name))
    p_sim = sub.add_parser("simulate")
    common(p_sim)
    p_sim.add_argument("--n-shots", type=int, help="override n_shots")
    p_sim.add_argument("--wide", action="store_true",
                       help="one row per shot instead of one row per bin")
    p_an = sub.add_parser("analyze")
    common(p_an)
    p_an.add_argument("--input", help="wide-format shot CSV to analyze")
    p_opt = sub.add_parser("optimize")
    common(p_opt)
    p_opt.add_argument("--mode", choices=("ratio", "power"), default="ratio")
    p_cal = sub.add_parser("calibrate")
    common(p_cal)
    p_cal.add_argument("--mode", choices=("spectrum", "stark"),
                       default="spectrum")
    p_cal.add_argument("--input", help="two-column CSV (power, qubit frequency)")
    p_cal.add_argument("--input-g", help="two-column CSV (frequency, |S21|), qubit in g")
    p_cal.add_argument("--input-e", help="two-column CSV (frequency, |S21|), qubit in e")
    return parser


_COMMANDS = {
    "derive": cmd_derive,
    "signal": cmd_signal,
    "rate": cmd_rate,
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "optimize": cmd_optimize,
    "calibrate": cmd_calibrate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args.config, args.overrides)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.output_dir is not None:
            cfg["output_dir"] = args.output_dir
        if getattr(args, "n_shots", None) is not None:
            cfg["n_shots"] = args.n_shots
        Path(cfg["output_dir"]).mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FastReadoutError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
