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
import itertools
import math
import re
import sys
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import _g9, analysis, calib, optimize, shots
from .config import load_config, parse_bool, parse_int, parse_quantity
from .dynamics import (GRID_STEP, PulseEnvelope, full_model_signal,
                       integrated_rate, mean_quadrature_traces, qss_signal,
                       to_sqrt_mhz)
from .errors import ConfigError, FastReadoutError
from .params import DeviceParams

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

#: dataclass field -> CLI key, where the two differ
_RENAMED = {"kind": "pulse_kind", "amplitude": "pulse_amplitude",
            "total_duration": "pulse_duration", "master_seed": "seed"}
#: field annotation -> type tag of its key; the owners postpone annotations,
#: so a field's type is the annotation's text
_TAGS = {"float": "quantity", "float | None": "quantity", "int": "int",
         "bool": "bool", "str": "str"}


def _key(f) -> str:
    """The configuration key of a dataclass field."""
    return _RENAMED.get(f.name, f.name)


def _schema_entry(f):
    if f.type not in _TAGS:
        raise TypeError(f"no type tag for field {f.name}: {f.type}")
    return _TAGS[f.type], f.default


# key -> (type tag, default); quantities and list entries accept unit
# suffixes. The device, pulse and shot keys and their defaults are the fields
# of DeviceParams, PulseEnvelope and ShotConfig; MISSING marks a required key.
SCHEMA = {_key(f): _schema_entry(f)
          for cls in (DeviceParams, PulseEnvelope, shots.ShotConfig)
          for f in fields(cls)}
SCHEMA.update({
    # required by ShotConfig, defaulted here
    "n_shots": ("int", 20000),
    # analysis
    "tau": ("quantity", 56e-9),
    "grid_step": ("quantity", GRID_STEP),
    # optimize
    "ratio_tau_grid": ("floats", (2.0, 4.5, 8.0, 12.0, 20.0)),
    "power_grid": ("floats", (1.0, 1.5, 2.0, 2.5, 3.5, 5.0)),
    "mix_coeff": ("quantity", optimize.DEFAULT_MIX_COEFF),
    # run control
    "output_dir": ("str", "."),
})


def _parse_value(key: str, text: str):
    kind, default = SCHEMA[key]
    text = text.strip()
    if kind != "str" and text.lower() == "none":
        # none means something where it is the default, on a required device
        # key (then reported missing) and for mix_coeff (no mixing)
        if default is None or default is MISSING or key == "mix_coeff":
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
    out = {key: _parse_value(key, raw[key]) if key in raw else default
           for key, (_, default) in SCHEMA.items()}
    missing = [k for k, (_, default) in SCHEMA.items()
               if default is MISSING and out[k] in (None, MISSING)]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    for key in ("grid_step", "tau"):
        if not out[key] > 0.0:
            raise ConfigError(f"{key} must be positive")
    for key in ("ratio_tau_grid", "power_grid"):
        if not all(x > 0.0 for x in out[key]):
            raise ConfigError(f"{key} entries must be positive")
    return out


def _build(cls, cfg: dict):
    return cls(**{f.name: cfg[_key(f)] for f in fields(cls)})


def build_device(cfg: dict) -> DeviceParams:
    return _build(DeviceParams, cfg)


def build_pulse(cfg: dict) -> PulseEnvelope:
    return _build(PulseEnvelope, cfg)


def build_shot_config(cfg: dict) -> shots.ShotConfig:
    return _build(shots.ShotConfig, cfg)


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
    """The signal's grid: 0 to pulse_duration in steps of grid_step."""
    step, duration = cfg["grid_step"], cfg["pulse_duration"]
    shots.sample_count(np.ceil(duration / step), f"pulse_duration = "
                       f"{duration:g} s at grid_step = {step:g} s",
                       "grid points", least=2)
    return np.arange(0.0, duration, step)


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
    dt, end = cfg["dt_bin"], float(times[-1])
    # max leaves no -0.0, which np.ceil gives of a count just below 0
    shots.sample_count(max(0.0, np.ceil((end - dt) / dt)) if dt > 0.0 else 0.0,
                       f"dt_bin = {dt:g} s",
                       f"rate points inside the {end:g} s grid")
    trace = full_model_signal(device, pulse, times)
    taus = np.arange(dt, end, dt)
    rows = zip(taus * 1e9, integrated_rate(trace, taus))
    _write_csv(Path(cfg["output_dir"]) / "rate.csv", cfg, "rate",
               ("tau_ns", "s_tau"), rows)
    return 0


#: shots per simulate_batch call of simulate: each call builds a chain and
#: sets up its draw, so larger blocks cost less per shot (8192 raised the
#: peak resident set)
_DRAW_CHUNK = 4096
#: rows per encoder step of simulate: the step's buffers, ≈ 1.8 MB at the
#: reference window, stay below glibc's trim threshold, so the heap is not
#: given back to the kernel and faulted in again at every step
_ENCODE_CHUNK = 256
#: lines per parse step of analyze; bounds the rows parsed at once
_STREAM_CHUNK = 1024


def _shot_rows(excited, preselect, samples, start: int) -> bytes:
    """The CSV rows of the shots whose ShotBatch columns are `excited`,
    `preselect` and `samples`, one per shot (shot_id, prep,
    preselect_value, q0, q1, ...), shot ids counting from `start` and prep
    'e' or 'g', with the bytes csv.writer gives the _fmt values.

    Each field is a NUL-padded record of _g9.WIDTH bytes, the value ones
    from _g9.encode; deleting the NULs gives the rows.
    """
    n, n_bins = samples.shape
    ids = np.arange(start, start + n).astype(f"S{len(str(start + n - 1))}")
    w = ids.itemsize
    rows = np.empty((n, 2 + n_bins, _g9.WIDTH), dtype=np.uint8)
    head = rows[:, 0]  # "<id>,<prep>,"
    head[:] = 0
    head[:, :w] = ids.view(np.uint8).reshape(n, w)
    head[:, w:w + 3] = np.where(excited, b",e,", b",g,")[:, None].view(np.uint8)
    _g9.encode(np.column_stack((preselect, samples)), rows[:, 1:])
    rows[:, 1:-1, _g9.SEP] = ord(",")
    rows[:, -1, _g9.SEP:_g9.SEP + 2] = np.frombuffer(b"\r\n", dtype=np.uint8)
    return rows.tobytes().translate(None, b"\0")


def _write_shot_csv(path: Path, cfg: dict, batches):
    """Write the shot CSV of the ShotBatch chunks `batches`, one after the
    other, shot ids counting on across them, each encoded _ENCODE_CHUNK rows
    at a time (see _shot_rows). The first chunk is drawn before the file is
    opened, and each chunk is let go before the next is drawn."""
    batches = iter(batches)
    batch = next(batches)
    columns = ["shot_id", "prep", "preselect_value"] + \
              [f"q{k}" for k in range(batch.n_bins)]
    with open(path, "w", newline="") as fh:
        for line in _header_lines(cfg, "simulate"):
            fh.write(line + "\n")
        csv.writer(fh).writerow(columns)
        fh.flush()
        start = 0
        while batch is not None:
            for a in range(0, len(batch), _ENCODE_CHUNK):
                b = a + _ENCODE_CHUNK
                fh.buffer.write(_shot_rows(batch.excited[a:b], batch.preselect[a:b],
                                           batch.samples[a:b], start + a))
            start += len(batch)
            del batch
            batch = next(batches, None)


def cmd_simulate(cfg: dict, args) -> int:
    device = build_device(cfg)
    pulse = build_pulse(cfg)
    shot_cfg = build_shot_config(cfg)
    n = shot_cfg.n_shots
    q_p = np.empty(n) if shot_cfg.preselect else None

    def draw(a: int) -> shots.ShotBatch:
        batch = shots.simulate_batch(device, pulse, shot_cfg,
                                     shots=range(a, min(a + _DRAW_CHUNK, n)))
        if q_p is not None:
            q_p[a:a + len(batch)] = batch.preselect
        return batch

    if q_p is not None and n < shots.MIN_PRESELECT:
        # a chain names any other key that is wrong first
        shots.ReadoutChain(device, pulse, shot_cfg)
        raise ConfigError(f"n_shots = {n} with preselect = true: the preselection "
                          f"fit needs at least {shots.MIN_PRESELECT} shots")
    out_dir = Path(cfg["output_dir"])
    _write_shot_csv(out_dir / "shots.csv", cfg, map(draw, range(0, n, _DRAW_CHUNK)))
    if q_p is not None:
        n_kept = int(np.count_nonzero(q_p <= shots.preselection_threshold(q_p)))
        _write_report(out_dir / "preselect_summary.txt", cfg, "simulate",
                      [("n_shots", n), ("n_kept", n_kept),
                       ("rejected_fraction", 1.0 - n_kept / n)])
    return 0


#: configuration keys that fix the mean quadratures of a shot file
_SHOT_FILE_KEYS = tuple(_key(f) for cls in (DeviceParams, PulseEnvelope)
                        for f in fields(cls)) + ("dt_bin", "measure_duration")


_BARE_CR = re.compile(rb"\r(?!\n)")


def _check_line_ends(lines: list[bytes], path: str):
    """Every "\r" of the lines, split after "\n", ends a line as "\r\n"."""
    if _BARE_CR.search(b"".join(lines)):
        raise ConfigError(f"malformed shot file {path}: a line ends in a "
                          "bare carriage return")


def _read_shot_csv(path: str, cfg: dict):
    """Yield the shots of a shot CSV that matches the configuration in
    chunks of at most _STREAM_CHUNK shots, each the arrays (excited,
    samples, preselect) (prep 'e' is excited).

    The '#' header must echo the same device, pulse, dt_bin and
    measure_duration as `cfg`; otherwise ConfigError names the difference.
    Lines end in "\n" or "\r\n"; a bare "\r" raises ConfigError, and so
    do a file without shots and a sample that is not finite (the preselect
    value is nan without preselection).
    """
    header = {}
    with open(path, "rb") as fh:
        line = fh.readline()
        while line.startswith(b"#"):
            key, _, value = line[1:].decode(errors="replace").partition("=")
            header[key.strip()] = value.strip()
            line = fh.readline()
        if line.split(b",")[:3] != [b"shot_id", b"prep", b"preselect_value"]:
            raise ConfigError(f"malformed shot file {path}: the columns are "
                              "not shot_id,prep,preselect_value,q0,...")
        for key in _SHOT_FILE_KEYS:
            if header.get(key) != _fmt(cfg[key]):
                raise ConfigError(
                    f"shot file has {key} = {header.get(key, '(missing)')}, "
                    f"the configuration {_fmt(cfg[key])}")
        _check_line_ends([line], path)
        n = 0
        while lines := list(itertools.islice(fh, _STREAM_CHUNK)):
            _check_line_ends(lines, path)
            try:
                with warnings.catch_warnings():
                    # a chunk of blank lines holds no data
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(lines, delimiter=",", ndmin=2, converters={
                        1: {"g": 0.0, "e": 1.0}.__getitem__})
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"malformed shot file {path}: {exc}") from exc
            finite = np.isfinite(data[:, 3:])
            if not finite.all():
                shot = data[np.argmin(finite.all(axis=1)), 0]
                raise ConfigError(f"malformed shot file {path}: shot {shot:.0f} "
                                  "holds a sample that is not finite")
            if len(data):
                n += len(data)
                yield data[:, 1] == 1.0, data[:, 3:], data[:, 2]
    if n == 0:
        raise ConfigError(f"shot file {path} holds no shots")


def cmd_analyze(cfg: dict, args) -> int:
    if args.input is None:
        raise ConfigError("analyze requires --input shots.csv")
    chain = shots.ReadoutChain(build_device(cfg), build_pulse(cfg),
                               build_shot_config(cfg))
    # the bytes of q and the labels, appended chunk by chunk: a large buffer
    # grows by remapping its pages, so no chunk or old copy outlives the read
    q, excited, weights = bytearray(), bytearray(), None
    for labels, samples, _ in _read_shot_csv(args.input, cfg):
        if samples.shape[1] != chain.n_bins:
            raise ConfigError(f"shot file holds {samples.shape[1]} bins, the "
                              f"configuration's window {chain.n_bins}")
        if weights is None:  # a file that fails its checks exits 2 first
            weights = chain.weights(cfg["tau"])
        q.extend(analysis.integrate_batch(samples, weights, chain.device.kappa_p))
        excited.extend(labels)
    q, excited = np.frombuffer(q), np.frombuffer(excited, dtype=bool)
    fit, bin_centers, hist_g, hist_e = analysis.fit_shot_histograms(q, excited)
    budget = analysis.error_budget(q, excited, fit)
    # the headers give the count of shots fitted, which the file sets
    cfg = {**cfg, "n_shots": len(q)}
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
        # the full model solves each tau on this grid; checked before any solve
        for tau in (np.min(taus), np.max(taus)):
            shots.sample_count(
                float(tau) / GRID_STEP,
                f"ratio_tau_grid = {_fmt(cfg['ratio_tau_grid'])} at chi = "
                f"{device.chi:g} Hz reaches tau = {tau:g} s, which",
                f"points of the {GRID_STEP:g} s grid", least=2)
        # the full model first: its photon ceiling refuses a drive power at
        # which the closed form's signal overflows
        r_full = optimize.optimal_ratio_vs_tau(device, taus, "full")
        r_qss = optimize.optimal_ratio_vs_tau(device, taus, "qss")
        rows = zip(taus * 1e9, r_qss, r_full)
        _write_csv(out_dir / "ratio.csv", cfg, "optimize",
                   ("tau_ns", "ratio_qss", "ratio_full"), rows)
    else:
        points = optimize.power_tradeoff(device, build_shot_config(cfg),
                                         cfg["power_grid"], cfg["tau"],
                                         mix_coeff=cfg["mix_coeff"])
        rows = [(p.n_drive, p.eps_o, 1.0 - p.fidelity_mc) for p in points]
        _write_csv(out_dir / "power.csv", cfg, "optimize",
                   ("n_drive", "eps_o", "infidelity_mc"), rows)
    return 0


def _read_two_column_csv(path: str):
    """The first two columns of a CSV as float arrays. '#' lines and blank
    rows are skipped, and so is a non-numeric first row of two or more
    fields (the column header); any other row without two numbers raises
    ConfigError naming it. The rows are parsed by np.loadtxt; a file it
    refuses (quoted numbers, digits grouped by '_', a bad row) is read
    again row by row with csv and float(), which give the same values."""
    with open(path) as fh:
        lines = fh.readlines()
    text = "".join(lines)
    if text.startswith("#") or "\n#" in text:
        lines = [line for line in lines if not line.startswith("#")]
    body = lines
    for i, line in enumerate(lines):
        if line.strip("\r\n"):
            row = next(csv.reader([line]))
            try:
                float(row[0]), float(row[1])
            except (ValueError, IndexError):
                if len(row) >= 2:  # the column header
                    body = lines[:i] + lines[i + 1:]
            break
    if any(line.strip() for line in body):  # np.loadtxt warns on no data
        try:
            data = np.loadtxt(body, delimiter=",", usecols=(0, 1),
                              comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            return tuple(np.ascontiguousarray(data.T))
    return _read_rows(path, body)


def _read_rows(path: str, lines: list[str]):
    """_read_two_column_csv of the lines without their column header, one
    csv row and float() call at a time."""
    xs, ys = [], []
    for row in filter(None, csv.reader(lines)):
        try:
            x, y = float(row[0]), float(row[1])
        except (ValueError, IndexError) as exc:
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
        if not np.array_equal(om_g, om_e, equal_nan=True):
            raise ConfigError("spectrum files must share the frequency grid")
        try:
            fit = calib.fit_transmission(om_g, s_g, s_e)
        except ConfigError as exc:
            raise ConfigError(f"{args.input_g} (g), {args.input_e} (e): "
                              f"{exc}") from exc
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
        try:
            fit = calib.stark_calibration(powers, freqs, chi)
        except ConfigError as exc:
            raise ConfigError(f"{args.input}: {exc}") from exc
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
                       help="ignored: shots.csv always has one row per shot")
    p_an = sub.add_parser("analyze")
    common(p_an)
    p_an.add_argument("--input", help="shot CSV written by simulate")
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


#: the grammar, built once per process: `main` may be called many times
_PARSER = build_parser()

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
    args = _PARSER.parse_args(argv)
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
