import csv
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from fastreadout import cli
from fastreadout.analysis import build_weights
from fastreadout.calib import SpectrumParams, transmission
from fastreadout.cli import main
from fastreadout.dynamics import (TWOPI, TwoCavityModel, full_model_signal,
                                  optimal_lo_phase, to_sqrt_mhz)
from fastreadout.shots import ShotBatch

REFERENCE_CONF = resources.files("fastreadout.data") / "reference.conf"


@pytest.fixture()
def conf(tmp_path):
    path = tmp_path / "device.conf"
    path.write_text(REFERENCE_CONF.read_text())
    return str(path)


def run(*argv):
    return main(list(argv))


def test_import_defers_the_fit_stack():
    # importing scipy costs most of the start-up time; only the fitting
    # functions load scipy.optimize, on first use
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, fastreadout.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "[]"


def read_report(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def read_csv(path: Path):
    with open(path) as fh:
        rows = list(csv.reader(r for r in fh if not r.startswith("#")))
    return rows[0], rows[1:]


class TestDerive:
    def test_reference_values(self, conf, tmp_path, capsys):
        assert run("derive", "--config", conf, "--output-dir", str(tmp_path)) == 0
        rep = read_report(tmp_path / "derived.txt")
        assert float(rep["chi_Hz"]) == pytest.approx(-7.7064e6, rel=1e-3)
        assert float(rep["n_crit"]) == pytest.approx(14.0986, abs=0.001)
        assert float(rep["kappa_eff_Hz"]) == pytest.approx(38.748e6, rel=1e-3)
        assert float(rep["kappa_p_Hz"]) == pytest.approx(64.27e6, rel=1e-3)
        out = capsys.readouterr().out
        assert "chi_Hz" in out and "n_crit" in out

    def test_header_echoes_overrides(self, conf, tmp_path):
        run("derive", "--config", conf, "--output-dir", str(tmp_path),
            "--set", "n_drive=3.5")
        text = (tmp_path / "derived.txt").read_text()
        assert "# n_drive = 3.5" in text
        assert "# command = derive" in text

    def test_reruns_byte_identical(self, conf, tmp_path):
        run("derive", "--config", conf, "--output-dir", str(tmp_path / "a"))
        run("derive", "--config", conf, "--output-dir", str(tmp_path / "b"))
        def body(p):
            return [ln for ln in p.read_text().splitlines()
                    if not ln.startswith("# output_dir")]

        assert body(tmp_path / "a" / "derived.txt") == \
            body(tmp_path / "b" / "derived.txt")


class TestExitCodes:
    def test_unknown_key(self, conf, tmp_path, capsys):
        # amp_bandwidth was once accepted although no command read it
        for key in ("bogus_key", "amp_bandwidth"):
            code = run("derive", "--config", conf, "--output-dir", str(tmp_path),
                       "--set", f"{key}=1")
            assert code == 2
            assert key in capsys.readouterr().err

    def test_missing_required_keys(self, tmp_path, capsys):
        assert run("derive", "--output-dir", str(tmp_path)) == 2

    def test_invalid_shot_count(self, conf, tmp_path):
        code = run("simulate", "--config", conf, "--output-dir", str(tmp_path),
                   "--n-shots", "0", "--set", "pulse_duration=160ns")
        assert code == 2

    def test_numerical_failure(self, conf, tmp_path, capsys):
        # deep in the nonlinear regime the model refuses to run; the shot
        # chain checks the same photon ceiling as the signal
        for command in ("signal", "simulate"):
            code = run(command, "--config", conf, "--output-dir", str(tmp_path),
                       "--set", "n_drive=500", "--set", "n_shots=10")
            assert code == 3
            assert "failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,extra", [
        ("derive", "gamma_int", []),
        ("simulate", "gamma_mix_up", []),
        ("simulate", "dt_bin", []),
        ("analyze", "tau", ["--input", "shots.csv"]),
        ("signal", "boost_duration", ["--set", "pulse_kind=two_step"]),
        ("rate", "grid_step", []),
        ("simulate", "n_shots", []),
    ])
    def test_none_where_none_means_nothing(self, conf, tmp_path, capsys,
                                           command, key, extra):
        code = run(command, "--config", conf, "--output-dir", str(tmp_path),
                   "--set", f"{key}=none", *extra)
        assert code == 2
        assert key in capsys.readouterr().err

    def test_none_where_none_means_something(self, conf, tmp_path, capsys):
        for key in ("delta_p", "omega_d", "measure_duration"):
            assert run("derive", "--config", conf, "--output-dir", str(tmp_path),
                       "--set", f"{key}=None") == 0
        capsys.readouterr()
        for key in ("g", "Q_p"):
            assert run("derive", "--config", conf, "--output-dir", str(tmp_path),
                       "--set", f"{key}=none") == 2
            assert f"missing required keys: {key}" in capsys.readouterr().err
        assert cli.resolve_config(conf, ["mix_coeff=none"])["mix_coeff"] is None

    @pytest.mark.parametrize("value", [
        "g=0", "g=-208MHz", "omega_p=0", "omega_p=-1GHz",
        "power_grid=1,nan", "power_grid=1,inf", "ratio_tau_grid=nan,4.5",
        "g=1e400", "tau=1e300GHz",
    ])
    def test_invalid_value(self, conf, tmp_path, capsys, value):
        # every key is parsed and the device built before derive writes, so
        # derive also stands in for the commands that read the list keys
        code = run("derive", "--config", conf, "--output-dir", str(tmp_path),
                   "--set", value)
        assert code == 2
        assert "error: " + value.split("=")[0] in capsys.readouterr().err

    def test_unreadable_input(self, conf, tmp_path):
        code = run("analyze", "--config", conf, "--output-dir", str(tmp_path),
                   "--input", str(tmp_path / "missing.csv"))
        assert code == 4


class TestSignalAndRate:
    def test_signal_csv(self, conf, tmp_path):
        assert run("signal", "--config", conf, "--output-dir", str(tmp_path),
                   "--set", "pulse_duration=160ns") == 0
        header, rows = read_csv(tmp_path / "signal.csv")
        assert header == ["t_ns", "S_sqrtMHz", "Qg", "Qe", "model"]
        models = {r[4] for r in rows}
        assert models == {"full", "QSS"}
        full = [r for r in rows if r[4] == "full"]
        s_late = float(full[-1][1])
        assert 6.5 <= s_late <= 8.0  # settled separation in sqrt(MHz)
        assert float(full[0][1]) == pytest.approx(0.0, abs=1e-6)

    def test_signal_solves_once(self, conf, tmp_path, monkeypatch):
        # S and both quadratures come from one two-state solve, and S is the
        # full_model_signal of the same grid bit for bit
        calls, written = [], []
        solve, write = TwoCavityModel.trace, cli._write_csv

        def count(model, *args, **kwargs):
            calls.append(args)
            return solve(model, *args, **kwargs)

        def capture(path, cfg, command, columns, rows):
            written.extend(rows)
            return write(path, cfg, command, columns, rows)

        monkeypatch.setattr(TwoCavityModel, "trace", count)
        monkeypatch.setattr(cli, "_write_csv", capture)
        assert run("signal", "--config", conf, "--output-dir", str(tmp_path),
                   "--set", "pulse_duration=160ns") == 0
        assert len(calls) == 1
        monkeypatch.undo()
        cfg = cli.resolve_config(conf, ["pulse_duration=160ns"])
        full = full_model_signal(cli.build_device(cfg), cli.build_pulse(cfg),
                                 cli._fine_times(cfg))
        s_col = np.array([row[1] for row in written if row[4] == "full"])
        assert np.array_equal(s_col, to_sqrt_mhz(full.values))

    def test_rate_csv_monotone_tau_grid(self, conf, tmp_path):
        assert run("rate", "--config", conf, "--output-dir", str(tmp_path),
                   "--set", "pulse_duration=160ns") == 0
        header, rows = read_csv(tmp_path / "rate.csv")
        assert header == ["tau_ns", "s_tau"]
        taus = [float(r[0]) for r in rows]
        assert taus == sorted(taus)
        rates = [float(r[1]) for r in rows]
        assert all(r > 0 for r in rates)


class TestSimulateAnalyze:
    def test_round_trip(self, conf, tmp_path):
        out = str(tmp_path)
        assert run("simulate", "--config", conf, "--output-dir", out,
                   "--wide", "--n-shots", "6000", "--seed", "11",
                   "--set", "pulse_duration=160ns") == 0
        assert run("analyze", "--config", conf, "--output-dir", out,
                   "--input", str(tmp_path / "shots.csv"), "--seed", "11",
                   "--set", "pulse_duration=160ns") == 0
        rep = read_report(tmp_path / "report.txt")
        fid = float(rep["fidelity"])
        assert 0.97 <= fid <= 0.995
        assert float(rep["avg_assignment_fidelity"]) == pytest.approx(
            1.0 - 0.5 * (float(rep["eps_g"]) + float(rep["eps_e"])), rel=1e-9)
        header, rows = read_csv(tmp_path / "histogram.csv")
        assert header == ["bin_center", "count_g", "count_e", "fit_g", "fit_e"]
        assert len(rows) >= 60

    def test_weights_at_exact_bin_centres(self, conf, tmp_path, monkeypatch):
        # dt_bin / 2 = 1.125 ns is off the 0.5 ns grid_step: the weights must
        # come from the fields at the bin centres themselves
        overrides = ["pulse_duration=160ns", "dt_bin=2.25ns"]
        sets = [a for o in overrides for a in ("--set", o)]
        out = str(tmp_path)
        assert run("simulate", "--config", conf, "--output-dir", out, "--wide",
                   "--n-shots", "2000", *sets) == 0
        used = []
        integrate = cli.analysis.integrate_batch

        def spy(batch, weights, kappa_p):
            used.append(weights)
            return integrate(batch, weights, kappa_p)

        monkeypatch.setattr(cli.analysis, "integrate_batch", spy)
        assert run("analyze", "--config", conf, "--output-dir", out,
                   "--input", str(tmp_path / "shots.csv"), *sets) == 0
        cfg = cli.resolve_config(conf, overrides)
        device, pulse = cli.build_device(cfg), cli.build_pulse(cfg)
        centers = (np.arange(71) + 0.5) * cfg["dt_bin"]
        model = TwoCavityModel(device)
        beta_g, beta_e = (model.trace(s, pulse, centers)[:, 1] for s in (-1, +1))
        rot = np.exp(-1j * optimal_lo_phase(beta_e - beta_g))
        expected = build_weights(centers, np.real(rot * beta_g),
                                 np.real(rot * beta_e), cfg["tau"], cfg["dt_bin"])
        (weights,) = used
        assert np.array_equal(weights.times, expected.times)
        assert np.allclose(weights.w, expected.w, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("window", [[], ["measure_duration=8ns"]])
    def test_one_bin_weight(self, conf, tmp_path, monkeypatch, window):
        # tau = dt_bin, in a long window and in a one-bin window: the weight
        # has one sample w_0 = 1/sqrt(dt), so q = sqrt(2 pi kappa_p) Q_0 w_0 dt
        overrides = ["pulse_duration=160ns", "tau=8ns", *window]
        sets = [a for o in overrides for a in ("--set", o)]
        out = str(tmp_path)
        assert run("simulate", "--config", conf, "--output-dir", out, "--wide",
                   "--n-shots", "2000", *sets) == 0
        used = []
        integrate = cli.analysis.integrate_batch

        def spy(batch, weights, kappa_p):
            q, prep = integrate(batch, weights, kappa_p)
            used.append((batch, weights, q))
            return q, prep

        monkeypatch.setattr(cli.analysis, "integrate_batch", spy)
        assert run("analyze", "--config", conf, "--output-dir", out,
                   "--input", str(tmp_path / "shots.csv"), *sets) == 0
        (batch, weights, q), = used
        dt = 8e-9
        kappa_p = cli.build_device(cli.resolve_config(conf, overrides)).kappa_p
        assert weights.dt == dt
        assert np.allclose(weights.w, [1.0 / math.sqrt(dt)], rtol=1e-12, atol=0.0)
        expected = math.sqrt(TWOPI * kappa_p) * batch.samples[:, 0] * dt / math.sqrt(dt)
        assert np.allclose(q, expected, rtol=1e-12, atol=0.0)

    def test_preselect_summary(self, conf, tmp_path):
        out = str(tmp_path)
        assert run("simulate", "--config", conf, "--output-dir", out,
                   "--wide", "--n-shots", "4000", "--seed", "3",
                   "--set", "pulse_duration=160ns",
                   "--set", "preselect=true",
                   "--set", "measure_duration=160ns") == 0
        rep = read_report(tmp_path / "preselect_summary.txt")
        assert int(rep["n_shots"]) == 4000
        frac = float(rep["rejected_fraction"])
        assert 0.003 <= frac <= 0.03
        assert int(rep["n_kept"]) == round(4000 * (1 - frac))

    def test_long_format(self, conf, tmp_path):
        assert run("simulate", "--config", conf, "--output-dir", str(tmp_path),
                   "--n-shots", "4", "--set", "pulse_duration=160ns") == 0
        header, rows = read_csv(tmp_path / "shots.csv")
        assert header == ["shot_id", "prep", "t_ns", "Q"]
        n_bins = int(160 / 8)
        assert len(rows) == 4 * n_bins
        assert {r[1] for r in rows} == {"g", "e"}

    def test_seed_changes_shots(self, conf, tmp_path):
        for seed, name in ((1, "a"), (2, "b")):
            run("simulate", "--config", conf,
                "--output-dir", str(tmp_path / name), "--wide",
                "--n-shots", "10", "--seed", str(seed),
                "--set", "pulse_duration=160ns")
        a = (tmp_path / "a" / "shots.csv").read_text()
        b = (tmp_path / "b" / "shots.csv").read_text()
        assert a != b


def reference_shot_csv(path: Path, cfg: dict, batch: ShotBatch, wide: bool):
    """The shot file written row by row through csv.writer and _fmt."""
    with open(path, "w", newline="") as fh:
        for line in cli._header_lines(cfg, "simulate"):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        if wide:
            writer.writerow(["shot_id", "prep", "preselect_value"]
                            + [f"q{k}" for k in range(batch.n_bins)])
        else:
            writer.writerow(["shot_id", "prep", "t_ns", "Q"])
        for i, rec in enumerate(batch):
            pre = float("nan") if rec.preselect_value is None else rec.preselect_value
            rows = [[i, rec.prep, pre, *rec.samples]] if wide else [
                (i, rec.prep, (k + 0.5) * cfg["dt_bin"] * 1e9, q)
                for k, q in enumerate(rec.samples)]
            for row in rows:
                writer.writerow([cli._fmt(v) for v in row])


class TestShotFile:
    @pytest.fixture()
    def small(self, conf):
        cfg = cli.resolve_config(conf, ["pulse_duration=40ns"])
        rng = np.random.default_rng(5)
        samples = rng.normal(size=(7, 5)) * 10.0 ** rng.uniform(-12, 8, (7, 5))
        samples[0, :2] = (0.0, -0.0)
        pre = np.array([np.nan, 0.5, np.nan, -1.25e-7, np.nan, 3.0, np.nan])
        return cfg, ShotBatch(prep=list("gegeeeg"), samples=samples, preselect=pre)

    @pytest.mark.parametrize("wide", [True, False])
    def test_bytes_match_csv_writer(self, small, tmp_path, monkeypatch, wide):
        cfg, batch = small
        monkeypatch.setattr(cli, "_SHOT_CHUNK", 3)  # chunk edges inside the batch
        cli._write_shot_csv(tmp_path / "new.csv", cfg, batch, wide)
        reference_shot_csv(tmp_path / "ref.csv", cfg, batch, wide)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_read_back_identical(self, small, tmp_path):
        cfg, batch = small
        cli._write_shot_csv(tmp_path / "shots.csv", cfg, batch, True)
        back = cli._read_shot_csv(str(tmp_path / "shots.csv"), cfg)
        written = np.vectorize(lambda v: float("%.9g" % v))
        assert list(back.prep) == list(batch.prep)
        assert np.array_equal(back.samples, written(batch.samples))
        assert np.array_equal(back.preselect, written(batch.preselect),
                              equal_nan=True)

    @pytest.mark.parametrize("key,value", [("n_drive", "3.5"), ("dt_bin", "4ns")])
    def test_config_mismatch_exits_2(self, conf, tmp_path, capsys, key, value):
        out = str(tmp_path)
        assert run("simulate", "--config", conf, "--output-dir", out, "--wide",
                   "--n-shots", "200", "--set", "pulse_duration=160ns",
                   "--set", f"{key}={value}") == 0
        capsys.readouterr()
        code = run("analyze", "--config", conf, "--output-dir", out,
                   "--input", str(tmp_path / "shots.csv"),
                   "--set", "pulse_duration=160ns")
        assert code == 2
        assert key in capsys.readouterr().err

    def test_bin_count_mismatch_exits_2(self, small, conf, tmp_path, capsys):
        cfg, batch = small
        short = ShotBatch(prep=batch.prep, samples=batch.samples[:, :4])
        cli._write_shot_csv(tmp_path / "shots.csv", cfg, short, True)
        code = run("analyze", "--config", conf, "--output-dir", str(tmp_path),
                   "--input", str(tmp_path / "shots.csv"),
                   "--set", "pulse_duration=40ns")
        assert code == 2
        assert "bins" in capsys.readouterr().err


class TestOptimize:
    def test_ratio_mode(self, conf, tmp_path):
        assert run("optimize", "--config", conf, "--output-dir", str(tmp_path),
                   "--mode", "ratio",
                   "--set", "ratio_tau_grid=2,20") == 0
        header, rows = read_csv(tmp_path / "ratio.csv")
        assert header == ["tau_ns", "ratio_qss", "ratio_full"]
        assert float(rows[1][1]) == pytest.approx(0.5, abs=0.01)
        assert float(rows[0][1]) < 0.45
        for r in rows:
            assert float(r[2]) <= float(r[1]) + 1e-6

    def test_power_mode(self, conf, tmp_path):
        assert run("optimize", "--config", conf, "--output-dir", str(tmp_path),
                   "--mode", "power", "--seed", "5",
                   "--set", "power_grid=1.5,2.5,5",
                   "--set", "n_shots=4000",
                   "--set", "pulse_duration=160ns") == 0
        header, rows = read_csv(tmp_path / "power.csv")
        assert header == ["n_drive", "eps_o", "infidelity_mc"]
        eps = [float(r[1]) for r in rows]
        assert eps == sorted(eps, reverse=True)


class TestCalibrate:
    def test_spectrum_fit(self, conf, tmp_path):
        truth = SpectrumParams(omega_p=4.756e9, omega_r=4.754e9, J=25e6,
                               chi=-7.7e6, Q_p=74.0, gamma=1.6e5)
        coarse = np.linspace(4.63e9, 4.88e9, 241)
        fine = np.concatenate([
            np.linspace(4.754e9 + s * 7.7e6 - 3e6, 4.754e9 + s * 7.7e6 + 3e6, 121)
            for s in (-1.0, 1.0)])
        omega = np.sort(np.concatenate([coarse, fine]))
        for state in ("g", "e"):
            with open(tmp_path / f"s21_{state}.csv", "w") as fh:
                fh.write("freq_Hz,s21\n")
                for w, s in zip(omega, transmission(omega, truth, state)):
                    fh.write(f"{float(w)!r},{float(s)!r}\n")
        assert run("calibrate", "--config", conf, "--output-dir", str(tmp_path),
                   "--mode", "spectrum",
                   "--input-g", str(tmp_path / "s21_g.csv"),
                   "--input-e", str(tmp_path / "s21_e.csv")) == 0
        rep = read_report(tmp_path / "spectrum_fit.txt")
        assert float(rep["chi_Hz"]) == pytest.approx(-7.7e6, rel=1e-3)
        assert float(rep["J_Hz"]) == pytest.approx(25e6, rel=1e-3)
        assert float(rep["Q_p"]) == pytest.approx(74.0, rel=1e-3)

    def test_stark_fit(self, conf, tmp_path):
        chi = -7.7064320e6  # matches the bundled device parameters
        k = 2.0e15
        powers = np.linspace(0.0, 1e-15, 9)
        with open(tmp_path / "stark.csv", "w") as fh:
            fh.write("power_W,freq_Hz\n")
            for p in powers:
                fh.write(f"{float(p)!r},{float(6.316e9 + 2 * chi * k * p)!r}\n")
        assert run("calibrate", "--config", conf, "--output-dir", str(tmp_path),
                   "--mode", "stark",
                   "--input", str(tmp_path / "stark.csv")) == 0
        rep = read_report(tmp_path / "stark_fit.txt")
        assert float(rep["photons_per_watt"]) == pytest.approx(k, rel=1e-3)
        assert rep["degenerate"] == "false"

    @pytest.mark.parametrize("bad_row", ["5e-16", "5e-16,n/a"])
    def test_malformed_row_exits_2(self, conf, tmp_path, capsys, bad_row):
        # only the column header may be non-numeric: a short or a
        # non-numeric data row is an error, not a skipped line
        path = tmp_path / "stark.csv"
        path.write_text(f"power_W,freq_Hz\n0.0,6.316e9\n{bad_row}\n1e-15,6.3e9\n")
        code = run("calibrate", "--config", conf, "--output-dir", str(tmp_path),
                   "--mode", "stark", "--input", str(path))
        assert code == 2
        assert bad_row in capsys.readouterr().err

    def test_spectrum_grid_mismatch(self, conf, tmp_path):
        for name, n in (("a.csv", 20), ("b.csv", 21)):
            with open(tmp_path / name, "w") as fh:
                for w in np.linspace(4.7e9, 4.8e9, n):
                    fh.write(f"{w},1.0\n")
        code = run("calibrate", "--config", conf, "--output-dir", str(tmp_path),
                   "--mode", "spectrum",
                   "--input-g", str(tmp_path / "a.csv"),
                   "--input-e", str(tmp_path / "b.csv"))
        assert code == 2
