import csv
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import MISSING, fields
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from fastreadout import analysis, cli, optimize, shots
from fastreadout.analysis import build_weights
from fastreadout.calib import SpectrumParams, transmission
from fastreadout.cli import main
from fastreadout.config import load_config, parse_quantity
from fastreadout.dynamics import (TWOPI, PulseEnvelope, TwoCavityModel,
                                  full_model_signal, optimal_lo_phase,
                                  to_sqrt_mhz)
from fastreadout.errors import ConfigError
from fastreadout.params import DeviceParams
from fastreadout.shots import (ShotBatch, ShotConfig, run_preselection,
                               simulate_batch)

REFERENCE_CONF = resources.files("fastreadout.data") / "reference.conf"


@pytest.fixture()
def conf(tmp_path):
    path = tmp_path / "device.conf"
    path.write_text(REFERENCE_CONF.read_text())
    return str(path)


def run(*argv):
    return main(list(argv))


#: run in a fresh interpreter by test_no_command_imports_scipy: with
#: sys.modules["scipy"] = None, any import of scipy raises ImportError, so
#: each command below exits 0 only if no path it takes imports scipy
NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None
from pathlib import Path
import numpy as np
import fastreadout.cli
from fastreadout.calib import SpectrumParams, transmission
conf, out = sys.argv[1], Path(sys.argv[2])

def run(*argv):
    argv = [*argv, "--config", conf, "--output-dir", str(out)]
    assert fastreadout.cli.main(argv) == 0, argv

run("derive")
run("signal")
run("rate")
run("simulate", "--wide", "--n-shots", "2400")
run("analyze", "--input", str(out / "shots.csv"))
run("simulate", "--wide", "--n-shots", "2400", "--set", "preselect=true")
run("optimize", "--mode", "ratio", "--set", "ratio_tau_grid=2,20")
run("optimize", "--mode", "power", "--set", "n_shots=2400",
    "--set", "power_grid=2,3")
truth = SpectrumParams(omega_p=4.756e9, omega_r=4.754e9, J=25e6, chi=-7.7e6,
                       Q_p=74.0, gamma=1.6e5)
omega = np.linspace(4.63e9, 4.88e9, 401)
for state in "ge":
    np.savetxt(out / f"{state}.csv",
               np.column_stack([omega, transmission(omega, truth, state)]),
               delimiter=",")
run("calibrate", "--mode", "spectrum", "--input-g", str(out / "g.csv"),
    "--input-e", str(out / "e.csv"))
powers = np.linspace(0.0, 1e-15, 9)
np.savetxt(out / "stark.csv",
           np.column_stack([powers, 6.316e9 - 3.1e22 * powers]), delimiter=",")
run("calibrate", "--mode", "stark", "--input", str(out / "stark.csv"))
"""


def test_no_command_imports_scipy(conf, tmp_path):
    # scipy is a test dependency only: every command, the readout fits and
    # the spectrum fit included, runs on numpy alone
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, conf,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


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


class TestParser:
    """main parses with the grammar built once at import: each call sees
    only its own command line."""

    @staticmethod
    def header(path: Path) -> list[str]:
        return [ln for ln in path.read_text().splitlines()
                if ln.startswith("#") and not ln.startswith("# output_dir")]

    def test_calls_echo_only_their_own_overrides(self, conf, tmp_path):
        def derive(name, *extra):
            assert run("derive", "--config", conf,
                       "--output-dir", str(tmp_path / name), *extra) == 0
            return self.header(tmp_path / name / "derived.txt")

        plain = derive("plain")
        assert run("simulate", "--config", conf, "--output-dir",
                   str(tmp_path / "sim"), "--n-shots", "10", "--seed", "7",
                   "--set", "n_drive=3.5", "--set", "tau=40ns") == 0
        sim = self.header(tmp_path / "sim" / "shots.csv")
        for line in ("# n_shots = 10", "# seed = 7", "# n_drive = 3.5",
                     "# tau = 4e-08", "# command = simulate"):
            assert line in sim
        overridden = derive("eta", "--set", "eta=0.5")
        assert [ln for ln in overridden if ln not in plain] == ["# eta = 0.5"]
        assert derive("again") == plain
        assert derive("seed", "--seed", "3") == \
            [ln if ln.split(" = ")[0] != "# seed" else "# seed = 3" for ln in plain]
        assert derive("last") == plain

    @pytest.mark.parametrize("argv", [
        [], ["derive", "--no-such-flag"], ["optimize", "--mode", "nope"],
        ["simulate", "--n-shots", "many"], ["transmogrify"]])
    def test_rejected_command_line_then_a_valid_one(self, conf, tmp_path, capsys,
                                                    argv):
        plain = tmp_path / "plain"
        assert run("derive", "--config", conf, "--output-dir", str(plain)) == 0
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        after = tmp_path / "after"
        assert run("derive", "--config", conf, "--output-dir", str(after)) == 0
        assert self.header(after / "derived.txt") == \
            self.header(plain / "derived.txt")

    def test_main_does_not_build_the_parser(self, conf, tmp_path, monkeypatch):
        def refuse():
            raise AssertionError("main built the parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        for argv in (["derive"], ["optimize", "--mode", "ratio"]):
            assert run(*argv, "--config", conf, "--output-dir", str(tmp_path)) == 0


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
        assert ("missing required keys: g, omega_q, omega_r, omega_p, alpha, "
                "J, Q_p, T1, eta, n_drive\n") in capsys.readouterr().err

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

    @pytest.mark.parametrize("amplitude,code", [("5.8", 3), ("5.6", 0)])
    def test_one_photon_ceiling(self, conf, tmp_path, capsys, amplitude, code):
        # the ring-up of the resonator peaks near 24.3 ns, between two 8 ns
        # bin centres: simulate once ran at 5.8 x the reference amplitude,
        # which signal refused (101.1 photons on its 0.5 ns grid)
        for command in (["signal"], ["simulate", "--n-shots", "10"]):
            assert run(*command, "--config", conf, "--output-dir", str(tmp_path),
                       "--set", f"pulse_amplitude={amplitude}") == code
            err = capsys.readouterr().err
            assert ("photon number 101.1 exceeds" in err) == (code == 3)

    @pytest.mark.parametrize("amplitude", ["20", "6"])
    def test_premeasurement_photon_ceiling(self, conf, tmp_path, capsys,
                                           amplitude):
        # the premeasurement pulse is checked against the same ceiling as the
        # measurement pulse; at 20 x the reference amplitude it once exited
        # 0 and wrote a preselection summary. At 6 x only the ring-up
        # overshoot before the premeasurement window exceeds the ceiling
        code = run("simulate", "--config", conf, "--output-dir", str(tmp_path),
                   "--wide", "--n-shots", "2000", "--set", "preselect=true",
                   "--set", f"premeasure_amplitude={amplitude}")
        assert code == 3
        assert re.search(r"resonator photon number [\d.]+ exceeds ceiling 100",
                         capsys.readouterr().err)
        assert not (tmp_path / "preselect_summary.txt").exists()

    def test_preselection_without_spread(self, conf, tmp_path, capsys,
                                         monkeypatch):
        # a premeasurement so strong that its noise vanishes below the last
        # digit of its values leaves nothing to histogram; the photon
        # ceiling, which stops such a pulse first, is switched off to reach
        # the preselection fit
        monkeypatch.setattr(TwoCavityModel, "check_ceiling",
                            lambda self, fields: None)
        code = run("simulate", "--config", conf, "--output-dir", str(tmp_path),
                   "--wide", "--n-shots", "200", "--set", "preselect=true",
                   "--set", "premeasure_amplitude=1e300")
        assert code == 3
        assert "preselection values spread over 0" in capsys.readouterr().err

    def test_preselection_fit_above_every_value(self, conf, tmp_path, capsys):
        # CI's overflow configuration: the shot file is written, and the
        # preselection fit, whose 99% point lies above all 2000
        # premeasurement values, exits 3 instead of rejecting no shot
        code = run("simulate", "--config", conf, "--output-dir", str(tmp_path),
                   "--wide", "--n-shots", "2000", "--set", "preselect=true",
                   "--set", "gamma_mix_up=2e7", "--set", "gamma_mix_down=2e7")
        assert code == 3
        assert re.search(r"preselection Gaussian fit: its 99% point [\d.]+ lies "
                         r"above all 2000 premeasurement values",
                         capsys.readouterr().err)
        assert (tmp_path / "shots.csv").exists()
        assert not (tmp_path / "preselect_summary.txt").exists()

    def test_preselection_below_its_floor(self, conf, tmp_path, capsys):
        # fewer shots than the preselection fit takes can never succeed: the
        # run is refused before shots.csv is opened, which keeps its bytes
        out = str(tmp_path)
        assert run("simulate", "--config", conf, "--output-dir", out,
                   "--n-shots", "50") == 0
        before = (tmp_path / "shots.csv").read_bytes()
        capsys.readouterr()
        for n in (1, shots.MIN_PRESELECT - 1):
            assert run("simulate", "--config", conf, "--output-dir", out,
                       "--n-shots", str(n), "--set", "preselect=true") == 2
            err = capsys.readouterr().err
            assert "n_shots" in err and "preselect" in err
            assert (tmp_path / "shots.csv").read_bytes() == before
        assert not (tmp_path / "preselect_summary.txt").exists()
        assert run("simulate", "--config", conf, "--output-dir", out, "--n-shots",
                   str(shots.MIN_PRESELECT), "--set", "preselect=true") == 0

    @pytest.mark.parametrize("module,command", [
        (analysis, "analyze"), (shots, "simulate")])
    def test_fit_stopped_at_max_nfev(self, conf, tmp_path, capsys, monkeypatch,
                                     module, command):
        # a readout fit that runs out of evaluations is a numerical failure:
        # the mixture fit of analyze, the preselection fit of simulate
        out = str(tmp_path)
        simulate = ("simulate", "--config", conf, "--output-dir", out, "--wide",
                    "--n-shots", "3000", "--set", "preselect=true")
        argv = {"simulate": simulate,
                "analyze": ("analyze", "--config", conf, "--output-dir", out,
                            "--input", str(tmp_path / "shots.csv"))}[command]
        assert run(*simulate) == 0 and run(*argv) == 0
        solve = module.least_squares
        monkeypatch.setattr(module, "least_squares",
                            lambda *a, **kw: solve(*a, **{**kw, "max_nfev": 2}))
        capsys.readouterr()
        assert run(*argv) == 3
        assert "max_nfev = 2" in capsys.readouterr().err

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
        "g=1e400", "tau=1e300GHz", "reset_gap=-100ns",
    ])
    def test_invalid_value(self, conf, tmp_path, capsys, value):
        # every key is parsed and the device, pulse and shot configuration
        # built before simulate draws a shot, so simulate also stands in for
        # the commands that read the list keys
        code = run("simulate", "--config", conf, "--output-dir", str(tmp_path),
                   "--n-shots", "10", "--set", "preselect=true", "--set", value)
        assert code == 2
        assert "error: " + value.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("command,value,key", [
        ("signal", "grid_step=0", "grid_step"),
        ("rate", "grid_step=0", "grid_step"),
        ("signal", "grid_step=-1ns", "grid_step"),
        ("rate", "grid_step=-1ns", "grid_step"),
        # 3e8 fine-grid points and 3e8, 3.75e7 and 1.25e8 bins: each is refused
        # before any array of that size is asked for
        ("signal", "grid_step=1e-15", "grid_step"),
        ("simulate", "dt_bin=1e-15", "dt_bin"),
        ("simulate", "dt_bin=8e-15", "dt_bin"),
        ("analyze", "dt_bin=8e-15", "dt_bin"),
        ("simulate", "premeasure_duration=1s", "premeasure_duration"),
        # command-line-only keys that no dataclass checks, and a rate grid
        # with no point below the pulse's end
        ("optimize --mode ratio", "ratio_tau_grid=-1", "ratio_tau_grid"),
        ("optimize --mode ratio", "ratio_tau_grid=2,0", "ratio_tau_grid"),
        ("optimize --mode power", "tau=0", "tau"),
        ("rate", "dt_bin=1e-3", "dt_bin"),
        ("rate", "dt_bin=0", "dt_bin"),
        ("rate", "dt_bin=1e-15", "dt_bin"),
        # mixing rates whose mean jump count per window would ask for
        # gigabytes of jump times, or never finish drawing them
        ("simulate", "gamma_mix_up=1e11 gamma_mix_down=1e11", "gamma_mix_up"),
        ("simulate", "gamma_mix_up=1e300 gamma_mix_down=1e300", "gamma_mix_down"),
        ("optimize --mode power", "mix_coeff=1e300", "T1"),
        ("optimize --mode power", "mix_coeff=1e300", "mix_coeff"),
        # a device whose chi, kappa_eff or kappa_p is zero or not finite:
        # signal and optimize divided by it, the model's matrices overflowed
        ("derive", "alpha=0", "alpha"),
        ("signal", "alpha=0", "alpha"),
        ("signal", "J=0", "J,"),
        ("signal", "Q_p=1e-300", "Q_p"),
        ("optimize --mode ratio", "alpha=0", "alpha"),
        # a ratio search whose longest tau needs more than MAX_BINS points:
        # one asked numpy for more than it allows, the other for 267 GiB
        ("optimize --mode ratio", "ratio_tau_grid=1e300", "ratio_tau_grid"),
        ("optimize --mode ratio", "alpha=-1", "ratio_tau_grid"),
        # messages that named a field under another name, or no key
        ("simulate", "pulse_duration=-1", "pulse_duration"),
        ("simulate", "pulse_amplitude=-1", "pulse_amplitude"),
        ("simulate", "pulse_kind=square", "pulse_kind"),
        ("simulate", "gamma_mix_up=-1", "gamma_mix_up"),
        ("optimize --mode power", "power_grid=-1", "power_grid"),
        ("simulate", "premeasure_window=0", "premeasure_window"),
        # a bin count too large for an int, printed in 3 digits
        ("simulate", "pulse_duration=1e300", "1.25e+308 bins per pulse_duration"),
        ("simulate", "pulse_duration=1e308", "inf bins per pulse_duration"),
        ("simulate", "premeasure_duration=1e308",
         "inf bins per premeasure_duration"),
        # shot windows that exited 3 or named another key
        ("simulate", "premeasure_amplitude=-1", "premeasure_amplitude"),
        ("simulate", "measure_duration=0", "measure_duration"),
        ("simulate", "measure_duration=-1", "measure_duration"),
        ("simulate", "measure_duration=1e-300", "0 bins per measure_duration"),
        ("simulate", "dt_bin=1us", "0 bins per pulse_duration"),
        ("simulate", "seed=-1", "seed"),
        # grid steps off the solver's 0.5 ns grid, and a pulse too long for
        # any grid step
        ("rate", "grid_step=200ns", "grid_step"),
        ("signal", "grid_step=400ns", "grid_step"),
        ("rate", "grid_step=1e300", "grid_step"),
        ("signal", "pulse_duration=1e300", "pulse_duration"),
        ("rate", "pulse_duration=1e300", "pulse_duration"),
        # optimize --mode power keys that named gamma_mix_up, dt_bin or n_drive
        ("optimize --mode power", "mix_coeff=-1", "mix_coeff"),
        ("optimize --mode power", "tau=1e300", "tau = 1e+300 s"),
        ("optimize --mode power", "power_grid=1e300", "power_grid"),
        # a window past the sweep's gated pulse of max(160 ns, tau + 24 ns)
        ("optimize --mode power", "measure_duration=400ns", "measure_duration"),
        # configuration errors that exited 3 as numerical failures: a qubit
        # inside the dispersive guard or on the resonator, a window longer
        # than the pulse, a tau shorter than one bin or outside the window's
        # bin centres, a ratio search whose shortest tau has one grid point
        ("derive", "omega_q=4754MHz", "omega_q"),
        ("derive", "omega_q=4754MHz dispersive_guard=-1",
         "dispersive_guard must be non-negative"),
        ("derive", "omega_q=4414MHz", "dispersive_guard x g"),
        ("derive", "omega_q=5094MHz dispersive_guard=0", "alpha give Delta + alpha"),
        ("derive", "dispersive_guard=1e300", "dispersive_guard"),
        ("signal", "g=1e300", "dispersive_guard x g = 5 x 1e+300 Hz"),
        ("simulate", "measure_duration=400ns", "measure_duration"),
        ("simulate", "measure_duration=400ns", "pulse_duration = 3e-07 s"),
        ("optimize --mode power", "tau=4ns", "tau = 4e-09 s"),
        ("optimize --mode power", "tau=1e-300", "tau = 1e-300 s"),
        ("optimize --mode ratio", "ratio_tau_grid=1e-300", "ratio_tau_grid"),
        ("analyze", "tau=3ns", "tau = 3e-09 s"),
        ("analyze", "tau=1e300", "tau = 1e+300 s"),
        # a premeasurement value window of no whole bin, once one bin
        ("simulate", "premeasure_window=4ns", "0 bins per premeasure_window"),
        # a grid that ends within one bin: np.ceil gave -0.0 points
        ("rate", "pulse_duration=8ns", "s gives 0 rate points"),
    ])
    def test_step_and_size_guards(self, conf, tmp_path, capsys, command, value,
                                  key):
        # value holds one or more space-separated key=value overrides;
        # analyze reads a shot file of the reference configuration, whose
        # checks come before those of tau
        sets = [arg for item in value.split() for arg in ("--set", item)]
        shot_file = tmp_path / "input" / "shots.csv"
        if command == "analyze":
            assert run("simulate", "--config", conf, "--set", "n_shots=10",
                       "--output-dir", str(shot_file.parent)) == 0
        code = run(*command.split(), "--config", conf,
                   "--output-dir", str(tmp_path),
                   *sets, "--set", "preselect=true",
                   "--set", "n_shots=10", *(["--input", str(shot_file)]
                                            if command == "analyze" else []))
        assert code == 2
        assert key in capsys.readouterr().err

    #: numeric keys a command reads, from the dataclasses it builds
    DEVICE_KEYS = [cli._key(f) for f in fields(DeviceParams)]
    PULSE_KEYS = [cli._key(f) for f in fields(PulseEnvelope)
                  if f.name != "kind"]
    SHOT_KEYS = [cli._key(f) for f in fields(ShotConfig)
                 if f.name != "preselect"]
    SWEEP = {
        "derive": DEVICE_KEYS,
        "simulate --set preselect=true": DEVICE_KEYS + PULSE_KEYS + SHOT_KEYS,
        "simulate --set pulse_kind=two_step":
            DEVICE_KEYS + PULSE_KEYS + SHOT_KEYS,
        "signal": DEVICE_KEYS + PULSE_KEYS + ["grid_step"],
        "rate": DEVICE_KEYS + PULSE_KEYS + ["grid_step", "dt_bin"],
        "analyze": DEVICE_KEYS + PULSE_KEYS + SHOT_KEYS + ["tau"],
        "optimize --mode power": DEVICE_KEYS + SHOT_KEYS + ["tau", "power_grid",
                                                            "mix_coeff"],
        "optimize --mode ratio": DEVICE_KEYS + ["ratio_tau_grid"],
    }

    #: shots of the commands that fit histograms, above the mixture fit's
    #: floor of 1000 counts per prepared state, so that their later guards
    #: run; the other commands take 100
    FIT_SHOTS = {"analyze": 4000, "optimize --mode power": 4000}
    #: their cases that exit 3: a photon number past the ceiling, or ground
    #: and excited mean traces that are identical
    FIT_EXIT_3 = {("analyze", "n_drive=1e300"),
                  ("analyze", "pulse_amplitude=1e300"),
                  ("optimize --mode power", "n_drive=1e300"),
                  ("optimize --mode power", "alpha=1e-300"),
                  ("optimize --mode power", "gamma_int=1e300"),
                  ("optimize --mode power", "omega_d=1e300")}

    def test_every_numeric_key_at_edge_values(self, conf, tmp_path, capsys):
        # each key a command reads, set to each edge value, exits 0, 2 with
        # the key named, or 3, and none stops at the fit's count floor; any
        # other exception fails. One exception: a device key that shrinks
        # chi on --mode ratio stretches the longest tau of ratio_tau_grid,
        # and is reported through it and chi
        assert {tag for keys in self.SWEEP.values()
                for tag in (cli.SCHEMA[k][0] for k in keys)} \
            == {"quantity", "int", "floats"}
        base = ["--config", conf, "--set", "power_grid=2.5",
                "--set", "ratio_tau_grid=4.5"]
        # analyze reads a file of the unchanged configuration
        shot_dir = tmp_path / "input"
        assert run("simulate", *base, "--output-dir", str(shot_dir),
                   "--set", f"n_shots={self.FIT_SHOTS['analyze']}") == 0
        wrong, fit_exit_3 = [], set()
        for command, keys in self.SWEEP.items():
            argv = command.split() + (["--input", str(shot_dir / "shots.csv")]
                                      if command == "analyze" else [])
            argv += ["--set", f"n_shots={self.FIT_SHOTS.get(command, 100)}"]
            for key in keys:
                for value in ("0", "-1", "1e-300", "1e300", "nan", "none"):
                    try:
                        code = run(*argv, *base, "--output-dir", str(tmp_path),
                                   "--set", f"{key}={value}")
                    except Exception as exc:
                        code = repr(exc)
                    err = capsys.readouterr().err
                    named = re.search(rf"\b{key}\b", err) or (
                        command.endswith("ratio")
                        and "ratio_tau_grid" in err and "at chi = " in err)
                    if code not in (0, 2, 3) or (code == 2 and not named) \
                            or "1000 counts" in err:
                        wrong.append((command, f"{key}={value}", code, err))
                    if code == 3 and command in self.FIT_SHOTS:
                        fit_exit_3.add((command, f"{key}={value}"))
        assert wrong == []
        assert fit_exit_3 == self.FIT_EXIT_3

    @pytest.mark.parametrize("command,overrides", [
        ("signal", ["pulse_duration=3ns"]),
        ("simulate", ["preselect=true", "dt_bin=1ns", "n_shots=200",
                      "premeasure_duration=3ns", "premeasure_window=2ns"]),
    ])
    def test_gated_pulse_shorter_than_boost_duration(self, conf, tmp_path,
                                                     capsys, command, overrides):
        # a gated pulse, or the gated premeasurement pulse, has no boost
        # segment, so a default boost_duration longer than it is no error;
        # a two_step pulse still needs its boost inside the pulse
        sets = [arg for item in overrides for arg in ("--set", item)]
        argv = (command, "--config", conf, "--output-dir", str(tmp_path), *sets)
        assert run(*argv) == 0
        capsys.readouterr()
        assert run(*argv, "--set", "pulse_kind=two_step",
                   "--set", "pulse_duration=3ns") == 2
        assert "boost_duration" in capsys.readouterr().err

    def test_unreadable_input(self, conf, tmp_path):
        code = run("analyze", "--config", conf, "--output-dir", str(tmp_path),
                   "--input", str(tmp_path / "missing.csv"))
        assert code == 4

    def test_corrupted_sample(self, conf, tmp_path, capsys):
        # q0 of shot 100 edited in a file above the fit's count floor: a
        # sample that is not finite makes a malformed file, and one far from
        # all others leaves q a range of too many histogram bins (1e9 would
        # take about 1e7 bins, minutes and gigabytes)
        assert run("simulate", "--config", conf, "--output-dir", str(tmp_path),
                   "--n-shots", "4000") == 0
        text = (tmp_path / "shots.csv").read_bytes()
        # "<prep>,<preselect>,<q0>,<q1>,..." of shot 100
        head, start, rest = text.partition(b"\r\n100,")
        row, end, tail = rest.partition(b"\r\n")
        fields = row.split(b",", 3)
        path = tmp_path / "edited.csv"
        for value, code, message in [
                ("inf", 2, "shot 100 holds a sample that is not finite"),
                ("-inf", 2, "shot 100 holds a sample that is not finite"),
                ("nan", 2, "shot 100 holds a sample that is not finite"),
                ("1e300", 3, "histogram bins"), ("1e9", 3, "histogram bins")]:
            fields[2] = value.encode()
            path.write_bytes(head + start + b",".join(fields) + end + tail)
            assert run("analyze", "--config", conf, "--output-dir", str(tmp_path),
                       "--input", str(path)) == code, value
            err = capsys.readouterr().err
            assert message in err, (value, err)
            if code == 2:
                assert str(path) in err


class TestSchema:
    # the command line's keys and type tags, listed by hand: a dataclass
    # field added, renamed or retyped shows up here as a change to them
    TAGS = {
        "g": "quantity", "omega_q": "quantity", "omega_r": "quantity",
        "omega_p": "quantity", "alpha": "quantity", "J": "quantity",
        "Q_p": "quantity", "T1": "quantity", "eta": "quantity",
        "n_drive": "quantity", "delta_p": "quantity", "gamma_int": "quantity",
        "omega_d": "quantity", "dispersive_guard": "quantity",
        "pulse_kind": "str", "pulse_amplitude": "quantity",
        "boost_factor": "quantity", "boost_duration": "quantity",
        "pulse_duration": "quantity",
        "n_shots": "int", "p_thermal": "quantity", "gamma_mix_up": "quantity",
        "gamma_mix_down": "quantity", "preselect": "bool",
        "prep_error": "quantity", "dt_bin": "quantity",
        "measure_duration": "quantity", "premeasure_duration": "quantity",
        "premeasure_window": "quantity", "premeasure_amplitude": "quantity",
        "reset_gap": "quantity",
        "tau": "quantity", "grid_step": "quantity",
        "ratio_tau_grid": "floats", "power_grid": "floats",
        "mix_coeff": "quantity", "seed": "int", "output_dir": "str",
    }
    RENAMED = {"kind": "pulse_kind", "amplitude": "pulse_amplitude",
               "total_duration": "pulse_duration", "master_seed": "seed"}
    ANNOTATION_TAGS = {"float": "quantity", "float | None": "quantity",
                       "int": "int", "bool": "bool", "str": "str"}

    def test_keys_and_tags(self):
        assert len(self.TAGS) == 38
        assert {key: tag for key, (tag, _) in cli.SCHEMA.items()} == self.TAGS

    def test_defaults_are_the_dataclass_defaults(self):
        reference = load_config(REFERENCE_CONF)
        required = {f.name: reference[f.name] for f in fields(DeviceParams)
                    if f.default is MISSING}
        cfg = cli.resolve_config(None, [f"{k}={v}" for k, v in required.items()])
        for cls in (DeviceParams, PulseEnvelope, ShotConfig):
            for f in fields(cls):
                key = self.RENAMED.get(f.name, f.name)
                assert cli.SCHEMA[key][0] == self.ANNOTATION_TAGS[f.type], key
                if f.name in required:
                    assert cfg[key] == parse_quantity(required[key]), key
                elif f.default is MISSING:
                    # the one required field with a command-line default
                    assert (cls, key, cfg[key]) == (ShotConfig, "n_shots", 20000)
                else:
                    assert cfg[key] == f.default, key
                    assert type(cfg[key]) is type(f.default), key
        assert cli.build_pulse(cfg) == PulseEnvelope()
        assert cli.build_shot_config(cfg) == ShotConfig(n_shots=20000)


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

    def test_headers_echo_the_shot_count_read(self, conf, tmp_path):
        # reference.conf sets n_shots = 20000; the file holds 3000 shots
        out = str(tmp_path)
        assert run("simulate", "--config", conf, "--output-dir", out,
                   "--n-shots", "3000") == 0
        assert run("analyze", "--config", conf, "--output-dir", out,
                   "--input", str(tmp_path / "shots.csv")) == 0
        for name in ("report.txt", "histogram.csv"):
            header = (tmp_path / name).read_text().splitlines()
            assert "# n_shots = 3000" in header
            assert "# n_shots = 20000" not in header

    def test_line_endings_of_the_shot_file(self, conf, tmp_path, capsys,
                                           monkeypatch):
        # the reader splits lines at "\n": "\r\n" and "\n" endings, a missing
        # last one and blank lines give the same rows; a bare "\r" fails
        # loudly, in the column line, in the first chunk of rows, inside row
        # 12 of the third five-line chunk or as the file's last byte
        assert run("simulate", "--config", conf, "--output-dir", str(tmp_path),
                   "--wide", "--n-shots", "50") == 0
        cfg = cli.resolve_config(conf, [])
        text = (tmp_path / "shots.csv").read_bytes()
        ref = read_shots(tmp_path / "shots.csv", cfg)
        path = tmp_path / "edited.csv"
        # chunks of one line put the blank lines in chunks of their own
        for size in (1, cli._STREAM_CHUNK):
            monkeypatch.setattr(cli, "_STREAM_CHUNK", size)
            for edited in (text.rstrip(b"\r\n"), text + b"\r\n\n",
                           text.replace(b"\r\n", b"\n")):
                path.write_bytes(edited)
                assert np.array_equal(read_shots(path, cfg).samples, ref.samples)
        head, column, rows = text.partition(b"shot_id")
        path.write_bytes(head + column + rows.split(b"\n", 1)[0] + b"\n\r\n")
        with pytest.raises(ConfigError, match="holds no shots"):
            read_shots(path, cfg)
        columns, data = rows.split(b"\r\n", 1)
        before_12, row_12, after = data.partition(b"\r\n12,")
        monkeypatch.setattr(cli, "_STREAM_CHUNK", 5)
        for edited in (rows.replace(b"\r\n", b"\r"),
                       columns + b"\r\n" + data.replace(b"\r\n", b"\r", 30),
                       columns + b"\r\n" + before_12 + row_12
                       + after.replace(b",", b"\r", 1),
                       rows + b"\r"):
            path.write_bytes(head + column + edited)
            with pytest.raises(ConfigError, match="carriage return"):
                read_shots(path, cfg)
            capsys.readouterr()
            assert run("analyze", "--config", conf, "--output-dir", str(tmp_path),
                       "--input", str(path)) == 2
            assert "carriage return" in capsys.readouterr().err

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

        def spy(samples, weights, kappa_p):
            used.append(weights)
            return integrate(samples, weights, kappa_p)

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
        # one set of weights for every chunk of the file
        weights = used[0]
        assert all(w is weights for w in used)
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

        def spy(samples, weights, kappa_p):
            q = integrate(samples, weights, kappa_p)
            used.append((samples, weights, q))
            return q

        monkeypatch.setattr(cli.analysis, "integrate_batch", spy)
        assert run("analyze", "--config", conf, "--output-dir", out,
                   "--input", str(tmp_path / "shots.csv"), *sets) == 0
        # the chunks of the file, one set of weights for all
        weights = used[0][1]
        assert all(w is weights for _, w, _ in used)
        samples = np.concatenate([rows for rows, _, _ in used])
        q = np.concatenate([q for _, _, q in used])
        assert len(q) == 2000
        dt = 8e-9
        kappa_p = cli.build_device(cli.resolve_config(conf, overrides)).kappa_p
        assert weights.dt == dt
        assert np.allclose(weights.w, [1.0 / math.sqrt(dt)], rtol=1e-12, atol=0.0)
        expected = math.sqrt(TWOPI * kappa_p) * samples[:, 0] * dt / math.sqrt(dt)
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

    def test_one_layout(self, conf, tmp_path):
        # --wide is accepted and changes nothing; analyze reads the file
        # simulate writes without it
        written = []
        for flag in (["--wide"], []):
            assert run("simulate", "--config", conf, "--output-dir",
                       str(tmp_path), *flag, "--n-shots", "2000",
                       "--set", "pulse_duration=160ns") == 0
            written.append((tmp_path / "shots.csv").read_bytes())
        assert written[0] == written[1]
        assert run("analyze", "--config", conf, "--output-dir", str(tmp_path),
                   "--input", str(tmp_path / "shots.csv"),
                   "--set", "pulse_duration=160ns") == 0

    def test_seed_changes_shots(self, conf, tmp_path):
        for seed, name in ((1, "a"), (2, "b")):
            run("simulate", "--config", conf,
                "--output-dir", str(tmp_path / name), "--wide",
                "--n-shots", "10", "--seed", str(seed),
                "--set", "pulse_duration=160ns")
        a = (tmp_path / "a" / "shots.csv").read_text()
        b = (tmp_path / "b" / "shots.csv").read_text()
        assert a != b


def reference_shot_csv(path: Path, cfg: dict, batch: ShotBatch):
    """The shot file written row by row through csv.writer and _fmt."""
    with open(path, "w", newline="") as fh:
        for line in cli._header_lines(cfg, "simulate"):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(["shot_id", "prep", "preselect_value"]
                        + [f"q{k}" for k in range(batch.n_bins)])
        for i, rec in enumerate(batch):
            pre = float("nan") if rec.preselect_value is None else rec.preselect_value
            row = [i, "e" if rec.excited else "g", pre, *rec.samples]
            writer.writerow([cli._fmt(v) for v in row])


def read_shots(path: Path, cfg: dict) -> ShotBatch:
    """The (excited, samples, preselect) chunks _read_shot_csv yields,
    concatenated."""
    chunks = list(cli._read_shot_csv(str(path), cfg))
    return ShotBatch(*map(np.concatenate, zip(*chunks)))


def split(batch: ShotBatch, size: int) -> list[ShotBatch]:
    """Consecutive chunks of `size` shots."""
    chunk = np.arange(len(batch)) // size
    return [batch.select(chunk == k) for k in range(chunk[-1] + 1)]


class TestShotFile:
    @pytest.fixture()
    def small(self, conf):
        cfg = cli.resolve_config(conf, ["pulse_duration=40ns"])
        rng = np.random.default_rng(5)
        samples = rng.normal(size=(7, 5)) * 10.0 ** rng.uniform(-12, 8, (7, 5))
        samples[0, :2] = (0.0, -0.0)
        pre = np.array([np.nan, 0.5, np.nan, -1.25e-7, np.nan, 3.0, np.nan])
        excited = [c == "e" for c in "gegeeeg"]
        return cfg, ShotBatch(excited=excited, samples=samples, preselect=pre)

    def test_bytes_match_csv_writer(self, small, tmp_path):
        cfg, batch = small
        reference_shot_csv(tmp_path / "ref.csv", cfg, batch)
        # one chunk, then chunk edges inside the batch
        for size in (7, 3):
            cli._write_shot_csv(tmp_path / "new.csv", cfg, split(batch, size))
            assert (tmp_path / "new.csv").read_bytes() == \
                (tmp_path / "ref.csv").read_bytes()

    def test_read_back_identical(self, small, tmp_path):
        cfg, batch = small
        cli._write_shot_csv(tmp_path / "shots.csv", cfg, [batch])
        back = read_shots(tmp_path / "shots.csv", cfg)
        written = np.vectorize(lambda v: float("%.9g" % v))
        assert np.array_equal(back.excited, batch.excited)
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
        short = ShotBatch(excited=batch.excited, samples=batch.samples[:, :4])
        cli._write_shot_csv(tmp_path / "shots.csv", cfg, [short])
        code = run("analyze", "--config", conf, "--output-dir", str(tmp_path),
                   "--input", str(tmp_path / "shots.csv"),
                   "--set", "pulse_duration=40ns")
        assert code == 2
        assert "bins" in capsys.readouterr().err


def simulate_args(path: Path, n_shots: int, seed: int, overrides):
    return ["simulate", "--config", str(path.parent / "device.conf"),
            "--output-dir", str(path.parent), "--n-shots", str(n_shots),
            "--seed", str(seed), *(a for o in overrides for a in ("--set", o))]


class TestStreaming:
    """simulate draws _DRAW_CHUNK shots at a time and encodes them
    _ENCODE_CHUNK rows at a time, analyze parses _STREAM_CHUNK lines at a
    time; no chunk size changes a byte they write."""

    CASES = {
        "wide": [],
        "preselected": ["preselect=true"],
        "overflow": ["preselect=true", "gamma_mix_up=2e7", "gamma_mix_down=2e7"],
        "overflow, no preselection": ["gamma_mix_up=2e7", "gamma_mix_down=2e7"],
    }

    # (draw, encode) chunk sizes, None the defaults; an id names the draw
    @pytest.mark.parametrize("sizes", [(1, 1), (7, 3), (5, 8), None],
                             ids=["1", "7", "5", "None"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_simulate_matches_one_batch(self, conf, tmp_path, monkeypatch,
                                        case, sizes):
        # 103 shots: not a multiple of 3, 5, 7 or 8 nor of the defaults;
        # encode slices of 3 cut 7-shot draws, of 8 outrun 5-shot draws
        overrides = ["pulse_duration=160ns", *self.CASES[case]]
        if sizes is not None:
            monkeypatch.setattr(cli, "_DRAW_CHUNK", sizes[0])
            monkeypatch.setattr(cli, "_ENCODE_CHUNK", sizes[1])
        assert main(simulate_args(tmp_path / "shots.csv", 103, 5, overrides)) == 0
        cfg = cli.resolve_config(conf, overrides)
        cfg.update(n_shots=103, seed=5, output_dir=str(tmp_path))
        shot_cfg = cli.build_shot_config(cfg)
        batch = simulate_batch(cli.build_device(cfg), cli.build_pulse(cfg),
                               shot_cfg)
        assert (batch.n_overflow > 0) == ("overflow" in case)
        reference_shot_csv(tmp_path / "ref.csv", cfg, batch)
        assert (tmp_path / "shots.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()
        if shot_cfg.preselect:
            kept, rejected = run_preselection(batch)
            rep = read_report(tmp_path / "preselect_summary.txt")
            assert (int(rep["n_kept"]), rep["rejected_fraction"]) == \
                (len(kept), cli._fmt(rejected))

    def test_one_block_in_flight(self, conf, tmp_path, monkeypatch):
        # every block drawn before is gone when the next draw starts: the
        # writer and the draws hold only the block being written
        blocks, alive = [], []
        draw = shots.simulate_batch

        def spy(*args, **kwargs):
            alive.append(sum(block() is not None for block in blocks))
            batch = draw(*args, **kwargs)
            blocks.append(weakref.ref(batch))
            return batch

        monkeypatch.setattr(shots, "simulate_batch", spy)
        monkeypatch.setattr(cli, "_DRAW_CHUNK", 7)
        assert main(simulate_args(tmp_path / "shots.csv", 50, 0, [])) == 0
        assert alive == [0] * 8

    def test_simulate_working_set_does_not_grow(self, conf, tmp_path):
        # the traced peak of numpy's and Python's allocations, so the bound
        # does not depend on how the C allocator returns memory; a first
        # run fills the process's one-off caches
        assert main(simulate_args(tmp_path / "shots.csv", 100, 0, [])) == 0
        peaks = []
        for n_shots in (20_000, 60_000):
            tracemalloc.start()
            try:
                assert main(simulate_args(tmp_path / "shots.csv", n_shots, 0,
                                          [])) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 0.5e6, peaks

    @staticmethod
    def analyze_outputs(conf, path: Path, out: Path, monkeypatch, size, tau):
        """The bytes of the q that analyze fits, of report.txt and of
        histogram.csv, parsing `size` lines at a time."""
        monkeypatch.setattr(cli, "_STREAM_CHUNK", size)
        seen = []
        fit = cli.analysis.fit_shot_histograms

        def spy(q, excited):
            seen.append(q.tobytes())
            return fit(q, excited)

        monkeypatch.setattr(cli.analysis, "fit_shot_histograms", spy)
        assert run("analyze", "--config", conf, "--output-dir", str(out),
                   "--input", str(path), "--set", f"tau={tau}") == 0
        return seen + [(out / name).read_bytes() for name in ("report.txt",
                                                              "histogram.csv")]

    # (shots, seed, chunk sizes), named by the seed: one-line chunks of the
    # short file only
    @pytest.mark.parametrize("n_shots, seed, sizes", [
        (20_000, 0, (7, 1000, 1024)), (20_000, 1, (7, 1000, 1024)),
        (20_000, 2, (7, 1000, 1024)), (2001, 3, (1, 7, 1000, 1024))],
        ids=["0", "1", "2", "3"])
    def test_analyze_matches_one_chunk(self, conf, tmp_path, monkeypatch,
                                       n_shots, seed, sizes):
        # one chunk of all shots is one parse and one integrate_batch call.
        # The q of every shot must match bit for bit, since report.txt can
        # stay equal where a row-count dependent sum changes the last bit
        # of thousands of q; such a sum does at 136 ns (17 bins), not at
        # 56 ns (7 bins)
        path = tmp_path / "shots.csv"
        assert main(simulate_args(path, n_shots, seed, [])) == 0
        for tau in ("56ns", "136ns"):
            whole = self.analyze_outputs(conf, path, tmp_path, monkeypatch,
                                         10**6, tau)
            for size in sizes:
                assert self.analyze_outputs(conf, path, tmp_path, monkeypatch,
                                            size, tau) == whole, (tau, size)


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

    def test_power_mode_reads_the_shot_configuration(self, conf, tmp_path):
        # the rows come from the run's ShotConfig, whose keys the header
        # echoes; a thermal population of 0.2 takes about 0.4 off the fidelity
        overrides = ["power_grid=1.5,5", "n_shots=4000", "p_thermal=0.2",
                     "prep_error=0.05", "dt_bin=4ns", "measure_duration=96ns"]
        assert run("optimize", "--config", conf, "--output-dir", str(tmp_path),
                   "--mode", "power", "--seed", "2",
                   *(a for o in overrides for a in ("--set", o))) == 0
        _, rows = read_csv(tmp_path / "power.csv")
        cfg = cli.resolve_config(conf, overrides + ["seed=2"])
        points = optimize.power_tradeoff(
            cli.build_device(cfg), cli.build_shot_config(cfg), cfg["power_grid"],
            cfg["tau"], mix_coeff=cfg["mix_coeff"])
        assert rows == [[cli._fmt(v) for v in (p.n_drive, p.eps_o,
                                               1.0 - p.fidelity_mc)]
                        for p in points]
        assert all(float(r[2]) > 0.3 for r in rows)

    def test_power_mode_refuses_preselection(self, conf, tmp_path, capsys,
                                             monkeypatch):
        # map_q draws no premeasurement; a shot count below the fit's floor
        # is named first
        built = []
        monkeypatch.setattr(shots.ReadoutChain, "__init__",
                            lambda self, *args: built.append(args))
        for n_shots, message in ((2000, "preselect"), (1999, "n_shots = 1999 ")):
            assert run("optimize", "--config", conf, "--output-dir", str(tmp_path),
                       "--mode", "power", "--set", f"n_shots={n_shots}",
                       "--set", "preselect=true") == 2
            assert message in capsys.readouterr().err
        assert built == []
        assert not (tmp_path / "power.csv").exists()


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

    def test_csv_grammar(self, conf, tmp_path, monkeypatch):
        # comment and blank lines, a third column, quoted numbers, digits
        # grouped by '_' and CRLF line ends give the values of the plain
        # file bit for bit, and the same fit; np.loadtxt reads the files it
        # can, the csv rows the others
        truth = SpectrumParams(omega_p=4.756e9, omega_r=4.754e9, J=25e6,
                               chi=-7.7e6, Q_p=74.0, gamma=1.6e5)
        omega = np.sort(np.concatenate([np.linspace(4.63e9, 4.88e9, 241)] + [
            np.linspace(4.754e9 + s * 7.7e6 - 3e6, 4.754e9 + s * 7.7e6 + 3e6, 121)
            for s in (-1.0, 1.0)]))
        rows = {state: [(repr(float(w)), repr(float(s))) for w, s in
                        zip(omega, transmission(omega, truth, state))]
                for state in "ge"}

        def write(name, state, header, fmt, end="\n", every=None):
            lines = ([header] if header else []) + [
                fmt.format(i=i, w=w, s=s) for i, (w, s) in enumerate(rows[state])]
            if every:
                for i in range(len(lines) - 1, 0, -every):
                    lines[i:i] = ["", "# marker"]
            path = tmp_path / f"{name}_{state}.csv"
            with open(path, "w", newline="") as fh:
                fh.write(end.join(["# exported"] + lines) + end)
            return path

        variants = {
            "plain": ("freq_Hz,s21", "{w},{s}", "\n", None, False),
            "headless": (None, "{w},{s}", "\n", None, False),
            "blank_third_crlf": ("freq_Hz,s21,note", "{w},{s},{i}", "\r\n", 25,
                                 False),
            "quoted": ("freq_Hz,s21", '"{w}","{s}",x', "\n", 40, True),
        }
        rowwise = []
        read_rows = cli._read_rows
        monkeypatch.setattr(cli, "_read_rows", lambda path, lines: rowwise.append(
            path) or read_rows(path, lines))
        fits = {}
        for name, (header, fmt, end, every, by_rows) in variants.items():
            paths = [write(name, state, header, fmt, end, every) for state in "ge"]
            for state, path in zip("ge", paths):
                x, y = cli._read_two_column_csv(str(path))
                w, s = (np.array([float(v) for v in col])
                        for col in zip(*rows[state]))
                assert x.tobytes() == w.tobytes() and y.tobytes() == s.tobytes()
                assert x.flags.c_contiguous and y.flags.c_contiguous
            assert (str(paths[0]) in rowwise) == by_rows, name
            assert run("calibrate", "--config", conf, "--output-dir", str(tmp_path),
                       "--mode", "spectrum", "--input-g", str(paths[0]),
                       "--input-e", str(paths[1])) == 0
            fits[name] = (tmp_path / "spectrum_fit.txt").read_bytes()
        assert len(set(fits.values())) == 1
        # '_' digit groups take the row path and parse as float() does
        path = tmp_path / "grouped.csv"
        path.write_text("f,s\n1_000.5,2\n3,4_0\n")
        assert [a.tolist() for a in cli._read_two_column_csv(str(path))] == \
            [[1000.5, 3.0], [2.0, 40.0]]

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

    @pytest.mark.parametrize("bad,message", [
        ("nan_s21", "an |S21| of the e spectrum is not a finite number"),
        ("zero_s21", "the e spectrum has no positive |S21|"),
        ("nan_frequency", "a frequency is not a finite number")])
    def test_bad_spectrum_exits_2(self, conf, tmp_path, capsys, bad, message):
        # a NaN once reached the solver and an all-zero spectrum gave a start
        # outside the search bounds: both exited 1 with a traceback
        omega = np.linspace(4.63e9, 4.88e9, 41)
        truth = SpectrumParams(omega_p=4.756e9, omega_r=4.754e9, J=25e6,
                               chi=-7.7e6, Q_p=74.0, gamma=1.6e5)
        s21 = {state: transmission(omega, truth, state) for state in "ge"}
        if bad == "nan_s21":
            s21["e"][20] = np.nan
        elif bad == "zero_s21":
            s21["e"][:] = 0.0
        else:
            omega[20] = np.nan
        for state in "ge":
            np.savetxt(tmp_path / f"{state}.csv",
                       np.column_stack([omega, s21[state]]), delimiter=",")
        code = run("calibrate", "--config", conf, "--output-dir", str(tmp_path),
                   "--mode", "spectrum", "--input-g", str(tmp_path / "g.csv"),
                   "--input-e", str(tmp_path / "e.csv"))
        err = capsys.readouterr().err
        assert code == 2
        assert f"{tmp_path / 'e.csv'} (e)" in err and message in err

    @pytest.mark.parametrize("rows,message", [
        # exited 0 and wrote photons_per_watt = nan
        ("0,6.316e9\n1e-16,nan\n2e-16,6.31e9\n3e-16,6.30e9\n",
         "a qubit frequency is not a finite number"),
        ("0,6.316e9\nnan,6.31e9\n2e-16,6.30e9\n",
         "a power is not a finite number"),
        # exited 1 with a LinAlgError traceback from the line fit
        ("0,6.316e9\n0,6.31e9\n0,6.30e9\n", "every power is 0 W")],
        ids=["nan_frequency", "nan_power", "equal_powers"])
    def test_bad_stark_input_exits_2(self, conf, tmp_path, capsys, rows,
                                     message):
        path = tmp_path / "stark.csv"
        path.write_text(rows)
        code = run("calibrate", "--config", conf, "--output-dir", str(tmp_path),
                   "--mode", "stark", "--input", str(path))
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}: {message}" in err
        assert not (tmp_path / "stark_fit.txt").exists()

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
