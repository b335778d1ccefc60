import math

import numpy as np
import pytest

from conftest import make_device
from fastreadout.errors import ConfigError
from fastreadout.dynamics import SignalTrace, integrated_rate, qss_signal
from fastreadout.optimize import optimal_ratio_vs_tau, power_tradeoff


def tau_for(device, x):
    """Integration time giving the dimensionless product |chi| tau = x."""
    chi = abs(device.chi)
    return x / (2.0 * math.pi * chi)


class TestOptimalRatio:
    def test_long_window_limit(self, device):
        taus = [tau_for(device, 20.0), tau_for(device, 40.0)]
        ratios = optimal_ratio_vs_tau(device, taus, model="qss")
        assert np.allclose(ratios, 0.5, atol=0.005)

    def test_short_window_below_half(self, device):
        r = optimal_ratio_vs_tau(device, [tau_for(device, 2.0)], model="qss")[0]
        assert r < 0.45
        assert r == pytest.approx(0.194, abs=0.02)

    def test_monotone_toward_half(self, device):
        taus = [tau_for(device, x) for x in (2.0, 4.0, 8.0, 16.0, 32.0)]
        ratios = optimal_ratio_vs_tau(device, taus, model="qss")
        assert np.all(np.diff(ratios) >= -1e-6)
        assert ratios[-1] == pytest.approx(0.5, abs=0.005)

    def test_independent_of_drive_power(self, device):
        # the rate scales as sqrt(n): the argmax cannot move
        taus = [tau_for(device, 3.0)]
        r1 = optimal_ratio_vs_tau(device, taus, model="qss")[0]
        r2 = optimal_ratio_vs_tau(make_device(n_drive=0.7), taus,
                                  model="qss")[0]
        assert r1 == pytest.approx(r2, abs=1e-4)

    def test_full_model_below_qss(self, device):
        # the filter ring-up penalizes small kappa_eff harder, pulling the
        # optimum below the single-cavity answer at every window
        taus = [tau_for(device, x) for x in (4.5, 12.0)]
        r_qss = optimal_ratio_vs_tau(device, taus, model="qss")
        r_full = optimal_ratio_vs_tau(device, taus, model="full")
        assert np.all(r_full < r_qss)
        assert r_full[0] == pytest.approx(0.372, abs=0.03)

    def test_unknown_model(self, device):
        with pytest.raises(ConfigError):
            optimal_ratio_vs_tau(device, [56e-9], model="exact")


class TestSignalFamily:
    """QSS signals over (chi, ratio) at kappa_eff = |chi| / ratio, the drive
    tied to the dispersive scale: n_drive = 0.2 n_crit at n_crit = 14."""

    N_DRIVE = 0.2 * 14.0

    def test_shapes_and_keys(self):
        t = np.linspace(0.0, 400e-9, 801)
        for chi in (-4e6, -8e6):
            for ratio in (0.2, 0.5):
                values = qss_signal(self.N_DRIVE, chi, abs(chi) / ratio, t)
                assert values.shape == t.shape
                assert values[0] == pytest.approx(0.0, abs=1e-9)
                assert np.all(values >= -1e-12)

    def test_ring_up_time_scales_inversely_with_chi(self):
        # at fixed ratio the dynamics depend on t only through chi t
        t = np.linspace(0.0, 2e-6, 20001)

        def t95(chi):
            values = qss_signal(self.N_DRIVE, chi, abs(chi) / 0.5, t)
            return t[np.argmax(values >= 0.95 * values[-1])]

        assert t95(-4e6) / t95(-8e6) == pytest.approx(2.0, rel=0.05)

    def test_fast_ratio_wins_early(self):
        # over a 50 ns window the over-coupled (ratio 0.2) filter has
        # accumulated more separation: its ring-up is faster even though the
        # matched ratio 0.5 wins in steady state
        t = np.linspace(0.0, 60e-9, 601)
        chi = -7.9e6

        def rate(ratio):
            values = qss_signal(self.N_DRIVE, chi, abs(chi) / ratio, t)
            return integrated_rate(SignalTrace(times=t, values=values), 50e-9)

        assert rate(0.2) > rate(0.5)


class TestPowerTradeoff:
    def test_no_mixing_monotone(self, device):
        pts = power_tradeoff(device, [1.0, 2.5, 5.0], 56e-9, mix_coeff=None,
                             n_shots=8000, master_seed=7)
        eps = [p.eps_o for p in pts]
        fid = [p.fidelity_mc for p in pts]
        assert np.all(np.diff(eps) < 0)
        assert fid[-1] >= fid[0]
        assert all(p.gamma_mix == 0.0 for p in pts)

    def test_interior_optimum_with_mixing(self, device):
        grid = [0.6, 1.2, 2.5, 5.0, 10.0]
        pts = power_tradeoff(device, grid, 56e-9, n_shots=20000,
                             master_seed=7)
        infid = [1.0 - p.fidelity_mc for p in pts]
        best = int(np.argmin(infid))
        assert 0 < best < len(grid) - 1
        assert grid[best] == pytest.approx(2.5)
        # mixing rate grows superlinearly with power
        rates = [p.gamma_mix for p in pts]
        assert np.all(np.diff(rates) > 0)

    def test_eps_o_column_matches_overlap_curve(self, device, gated_pulse):
        from fastreadout.analysis import overlap_vs_power
        from fastreadout.dynamics import full_model_signal
        # gated_pulse is power_tradeoff's pulse at tau = 56 ns
        grid = np.array([1.0, 2.5])
        pts = power_tradeoff(device, grid, 56e-9, mix_coeff=None,
                             n_shots=2000, master_seed=1)
        times = np.arange(0.0, gated_pulse.total_duration, 0.5e-9)
        trace = full_model_signal(device, gated_pulse, times)
        expected = overlap_vs_power(trace, device.eta, 56e-9,
                                    device.n_drive, grid)
        assert [p.eps_o for p in pts] == pytest.approx(list(expected), rel=1e-12)

    def test_one_chain_per_power(self, device, monkeypatch):
        from fastreadout.shots import ReadoutChain
        built = []
        init = ReadoutChain.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ReadoutChain, "__init__", counting_init)
        grid = [1.0, 2.5, 5.0]
        power_tradeoff(device, grid, 56e-9, n_shots=2000, master_seed=1)
        assert len(built) == len(grid)

    def test_too_many_jumps_refused_before_any_chain(self, device, monkeypatch):
        # at mix_coeff = 5e9 Hz the 160 ns window holds about 26 mean jumps
        # at n_drive = 1 and about 300 at n_drive = 5
        from fastreadout.shots import ReadoutChain
        built = []
        monkeypatch.setattr(ReadoutChain, "__init__",
                            lambda self, *args: built.append(args))
        with pytest.raises(ConfigError, match=r"mix_coeff = 5e\+09 Hz at "
                                              r"n_drive = 5 "):
            power_tradeoff(device, [1.0, 5.0], 56e-9, mix_coeff=5e9,
                           n_shots=100)
        assert built == []

    def test_invalid_power(self, device):
        with pytest.raises(ConfigError, match="drive powers must be positive"):
            power_tradeoff(device, [0.0, 1.0], 56e-9, n_shots=100)
