import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from conftest import (DT_BIN, bin_grid, loop_trace, make_device,
                      random_device, rk4_switching_fields)
from fastreadout.analysis import build_weights, integrate_batch
from fastreadout.dynamics import (PulseEnvelope, TwoCavityModel,
                                  mean_quadrature_traces, optimal_lo_phase)
from fastreadout.errors import ConfigError, FitError, GridError
from fastreadout.shots import (ReadoutChain, ShotConfig, noise_sigma_bin,
                               run_preselection, simulate_batch, simulate_shot)


class TestShotConfig:
    def test_invalid_counts_and_probs(self):
        with pytest.raises(ConfigError):
            ShotConfig(n_shots=0)
        with pytest.raises(ConfigError):
            ShotConfig(n_shots=10, p_thermal=1.5)
        with pytest.raises(ConfigError):
            ShotConfig(n_shots=10, dt_bin=0.0)
        with pytest.raises(ConfigError):
            ShotConfig(n_shots=10, gamma_mix_up=-1.0)
        with pytest.raises(ConfigError, match="reset_gap must be non-negative"):
            ShotConfig(n_shots=10, preselect=True, reset_gap=-100e-9)

    def test_non_finite_rejected(self):
        for key in ("gamma_mix_up", "dt_bin", "reset_gap", "measure_duration"):
            with pytest.raises(ConfigError, match=f"{key} must be finite"):
                ShotConfig(n_shots=10, **{key: math.nan})
        with pytest.raises(ConfigError, match="gamma_mix_down must be finite"):
            ShotConfig(n_shots=10, gamma_mix_down=math.inf)

    def test_window_mismatch(self, device):
        pulse = PulseEnvelope(kind="gated", total_duration=40e-9)
        cfg = ShotConfig(n_shots=1, measure_duration=160e-9)
        with pytest.raises(GridError):
            simulate_shot(device, pulse, cfg, "g")


class TestDeterminism:
    def test_bit_identical_batches(self, device, gated_pulse):
        cfg = ShotConfig(n_shots=20, master_seed=123)
        a = simulate_batch(device, gated_pulse, cfg)
        b = simulate_batch(device, gated_pulse, cfg)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.samples, rb.samples)
            assert ra.jump_times == rb.jump_times

    def test_order_independence(self, device, gated_pulse):
        # shot i depends only on (master_seed, i), not on the batch context
        cfg = ShotConfig(n_shots=8, master_seed=9)
        batch = simulate_batch(device, gated_pulse, cfg)
        solo = simulate_shot(device, gated_pulse, cfg, "e", 5)
        assert np.array_equal(batch[5].samples, solo.samples)

    def test_seed_changes_samples(self, device, gated_pulse):
        a = simulate_shot(device, gated_pulse,
                          ShotConfig(n_shots=1, master_seed=1), "g", 0)
        b = simulate_shot(device, gated_pulse,
                          ShotConfig(n_shots=1, master_seed=2), "g", 0)
        assert not np.array_equal(a.samples, b.samples)


class TestNoiseCalibration:
    def test_variance_quarter_eta(self, gated_pulse):
        # noise-only shots: Var[sqrt(2 pi kappa_p) * sum Q w dt] = 1/(4 eta)
        dev = make_device(n_drive=0.0, T1=1.0)
        cfg = ShotConfig(n_shots=100000, master_seed=77, p_thermal=0.0)
        recs = simulate_batch(dev, gated_pulse, cfg, prep="g")
        centers, _ = bin_grid(17)
        rng = np.random.default_rng(0)
        w_shape = rng.uniform(0.5, 2.0, 17)  # any normalized weight works
        weights = build_weights(centers, np.zeros(17), w_shape, 136e-9, DT_BIN)
        q, _ = integrate_batch(recs, weights, dev.kappa_p)
        target = 1.0 / (4.0 * dev.eta)
        assert np.var(q) == pytest.approx(target, rel=0.05)
        assert np.mean(q) == pytest.approx(0.0, abs=5 * math.sqrt(target / len(q)))

    @pytest.mark.parametrize("seed", range(5))
    def test_variance_quarter_eta_random(self, seed):
        # Var q = 1/(4 eta) for random eta, device and dt_bin (seed 0 takes
        # 2.25 ns, whose bin centres are off the 0.5 ns grid) and any weight
        rng = np.random.default_rng(seed)
        dev = replace(random_device(rng), n_drive=0.0, T1=1.0)
        dt_bin = 2.25e-9 if seed == 0 else rng.uniform(1e-9, 16e-9)
        pulse = PulseEnvelope(kind="gated", total_duration=160e-9)
        cfg = ShotConfig(n_shots=20000, master_seed=seed, dt_bin=dt_bin,
                         p_thermal=0.0)
        chain = ReadoutChain(dev, pulse, cfg)
        w_shape = rng.uniform(0.5, 2.0, chain.n_bins)
        weights = build_weights(chain.bin_centers, np.zeros(chain.n_bins), w_shape,
                                chain.n_bins * dt_bin, dt_bin)
        batch = chain.run(np.arange(cfg.n_shots), np.full(cfg.n_shots, "g"))
        q, _ = integrate_batch(batch, weights, chain.device.kappa_p)
        assert np.var(q) == pytest.approx(1.0 / (4.0 * dev.eta), rel=0.05)

    def test_sigma_bin_formula(self):
        sigma = noise_sigma_bin(0.66, 64.27e6, 8e-9)
        expected = 1.0 / math.sqrt(4 * 0.66 * 2 * math.pi * 64.27e6 * 8e-9)
        assert sigma == pytest.approx(expected, rel=1e-12)

    def test_zero_drive_distributions_identical(self, gated_pulse):
        dev = make_device(n_drive=0.0, T1=1.0)
        cfg = ShotConfig(n_shots=4000, master_seed=5, p_thermal=0.0)
        recs = simulate_batch(dev, gated_pulse, cfg)
        q_g = np.concatenate([r.samples for r in recs if r.prep == "g"])
        q_e = np.concatenate([r.samples for r in recs if r.prep == "e"])
        sigma = noise_sigma_bin(dev.eta, dev.kappa_p, cfg.dt_bin)
        _, p = stats.ks_2samp(q_g, q_e)
        assert p > 0.01
        assert np.std(q_g) == pytest.approx(sigma, rel=0.02)

    def test_integrated_values_gaussian(self, gated_pulse):
        dev = make_device(T1=1.0)
        cfg = ShotConfig(n_shots=100000, master_seed=19, p_thermal=0.0)
        recs = simulate_batch(dev, gated_pulse, cfg)
        times = np.arange(0.0, 160e-9, 0.5e-9)
        qt = mean_quadrature_traces(dev, gated_pulse, times)
        centers, idx = bin_grid(17)
        weights = build_weights(centers, qt.q_g[idx], qt.q_e[idx], 136e-9, DT_BIN)
        q, prep = integrate_batch(recs, weights, dev.kappa_p)
        for label in ("g", "e"):
            sample = q[prep == label]
            _, p = stats.normaltest(sample)
            assert p > 0.01


class TestMeanReproduction:
    def test_average_matches_mean_trace(self, gated_pulse):
        dev = make_device(eta=1.0, T1=1.0)
        cfg = ShotConfig(n_shots=10000, master_seed=4, p_thermal=0.0)
        recs = simulate_batch(dev, gated_pulse, cfg, prep="e")
        mean = np.mean([r.samples for r in recs], axis=0)
        times = np.arange(0.0, 160e-9, 0.5e-9)
        qt = mean_quadrature_traces(dev, gated_pulse, times)
        _, idx = bin_grid(len(mean))
        sigma = noise_sigma_bin(dev.eta, dev.kappa_p, cfg.dt_bin)
        se = sigma / math.sqrt(len(recs))
        assert np.all(np.abs(mean - qt.q_e[idx]) < 3.5 * se)


class TestJumpStatistics:
    def test_decay_fraction(self, device, gated_pulse):
        cfg = ShotConfig(n_shots=50000, master_seed=21, p_thermal=0.0)
        recs = simulate_batch(device, gated_pulse, cfg, prep="e")
        window = 56e-9
        frac = np.mean([any(t < window for t, _ in r.jump_times)
                        for r in recs])
        expected = 1.0 - math.exp(-window / device.T1)
        se = math.sqrt(expected * (1 - expected) / len(recs))
        assert abs(frac - expected) < 3 * se

    def test_jump_times_increasing(self, gated_pulse):
        dev = make_device(T1=0.5e-6)
        cfg = ShotConfig(n_shots=200, master_seed=2, gamma_mix_up=2e6,
                         gamma_mix_down=2e6)
        recs = simulate_batch(dev, gated_pulse, cfg)
        saw_multi = False
        for r in recs:
            ts = [t for t, _ in r.jump_times]
            assert ts == sorted(ts)
            if len(ts) > 1:
                saw_multi = True
                # transitions must alternate direction
                kinds = [k for _, k in r.jump_times]
                for a, b in zip(kinds[:-1], kinds[1:]):
                    assert a != b
        assert saw_multi

    def test_all_samples_finite(self, device, gated_pulse):
        cfg = ShotConfig(n_shots=50, master_seed=8, gamma_mix_up=1e5,
                         gamma_mix_down=1e5, preselect=True,
                         measure_duration=160e-9)
        recs = simulate_batch(device, gated_pulse, cfg)
        for r in recs:
            assert np.all(np.isfinite(r.samples))
            assert np.isfinite(r.preselect_value)


class TestPreselection:
    def test_pure_gaussian_rejects_one_percent(self, gated_pulse):
        dev = make_device()
        cfg = ShotConfig(n_shots=20000, master_seed=31, p_thermal=0.0,
                         preselect=True, measure_duration=160e-9)
        recs = simulate_batch(dev, gated_pulse, cfg)
        _, rejected = run_preselection(recs)
        assert rejected == pytest.approx(0.010, abs=0.0035)

    def test_thermal_excess_rejection(self, device, gated_pulse):
        cfg = ShotConfig(n_shots=20000, master_seed=32, p_thermal=0.003,
                         preselect=True, measure_duration=160e-9)
        recs = simulate_batch(device, gated_pulse, cfg)
        kept, rejected = run_preselection(recs)
        assert rejected == pytest.approx(0.013, abs=0.004)
        assert len(kept) == round(len(recs) * (1 - rejected))

    def test_rejection_monotone_in_mixing(self, device, gated_pulse):
        fracs = []
        for gamma_up in (0.0, 2e5, 8e5):
            cfg = ShotConfig(n_shots=8000, master_seed=33, p_thermal=0.003,
                             gamma_mix_up=gamma_up, preselect=True,
                             measure_duration=160e-9)
            recs = simulate_batch(device, gated_pulse, cfg)
            _, rejected = run_preselection(recs)
            fracs.append(rejected)
        assert fracs[0] < fracs[1] < fracs[2]

    def test_small_batch_rejected(self, device, gated_pulse):
        cfg = ShotConfig(n_shots=50, master_seed=3, preselect=True,
                         measure_duration=160e-9)
        recs = simulate_batch(device, gated_pulse, cfg)
        with pytest.raises(FitError):
            run_preselection(recs)


class TestReadoutChain:
    def test_weights_from_exact_bin_centre_means(self, device, gated_pulse):
        # dt_bin / 2 = 1.125 ns is off every 0.5 ns grid point
        dt_bin = 2.25e-9
        chain = ReadoutChain(device, gated_pulse, ShotConfig(n_shots=1, dt_bin=dt_bin))
        centers = (np.arange(71) + 0.5) * dt_bin
        model = TwoCavityModel(device)
        beta = {s: model.trace(s, gated_pulse, centers)[:, 1] for s in (-1, +1)}
        rot = np.exp(-1j * optimal_lo_phase(beta[+1] - beta[-1]))
        q = {s: np.real(rot * beta[s]) for s in (-1, +1)}
        assert np.array_equal(chain.bin_centers, centers)
        sign = 1.0 if np.sum(q[+1] - q[-1]) > 0.0 else -1.0
        for s in (-1, +1):
            assert np.allclose(chain.mean_bins[s], sign * q[s], rtol=1e-12, atol=0.0)
        w = chain.weights(56e-9)
        expected = build_weights(centers, q[-1], q[+1], 56e-9, dt_bin)
        assert np.array_equal(w.times, expected.times)
        assert np.allclose(w.w, expected.w, rtol=1e-12, atol=0.0)


class TestShotBatch:
    def test_views_match_columns(self, gated_pulse):
        dev = make_device(T1=0.5e-6)
        cfg = ShotConfig(n_shots=30, master_seed=6, gamma_mix_up=2e6,
                         preselect=True, measure_duration=160e-9)
        batch = simulate_batch(dev, gated_pulse, cfg)
        assert len(batch) == 30 and batch.n_bins == 20
        recs = list(batch)
        assert [r.prep for r in recs] == list(batch.prep)
        assert sum(len(r.jump_times) for r in recs) == len(batch.jump_time)
        for i, r in enumerate(recs):
            assert np.array_equal(r.samples, batch.samples[i])
            assert r.preselect_value == batch.preselect[i]
            with pytest.raises(ValueError):
                r.samples[0] = 0.0  # read-only view

    def test_select_renumbers_jumps(self, gated_pulse):
        dev = make_device(T1=0.3e-6)
        batch = simulate_batch(dev, gated_pulse,
                               ShotConfig(n_shots=40, master_seed=8))
        keep = np.arange(40) % 3 != 0
        kept = batch.select(keep)
        expected = [r for r, k in zip(batch, keep) if k]
        assert len(kept) == len(expected)
        for a, b in zip(kept, expected):
            assert a.prep == b.prep and a.jump_times == b.jump_times
            assert np.array_equal(a.samples, b.samples)


def _stream_config(n_shots: int) -> ShotConfig:
    # jumps in both windows, preparation errors and preselection: every draw
    return ShotConfig(n_shots=n_shots, master_seed=2024, p_thermal=0.2,
                      gamma_mix_up=3e6, gamma_mix_down=2e6, prep_error=0.1,
                      preselect=True, measure_duration=160e-9)


class TestStreamPinning:
    def test_shot_independent_of_batch_size(self, device, gated_pulse):
        small = simulate_batch(device, gated_pulse, _stream_config(8))
        large = simulate_batch(device, gated_pulse, _stream_config(50))
        assert any(r.jump_times for r in small)
        for i in range(8):
            solo = simulate_shot(device, gated_pulse, _stream_config(50),
                                 small[i].prep, i)
            for rec in (large[i], solo):
                assert rec.prep == small[i].prep
                assert np.array_equal(rec.samples, small[i].samples)
                assert rec.jump_times == small[i].jump_times
                assert rec.preselect_value == small[i].preselect_value

    def test_no_jump_noise_is_philox_stream(self, device, gated_pulse):
        # shot i: thermal draw, preparation draw (e only), one exponential
        # waiting time when the state can jump, then the bin noise
        cfg = ShotConfig(n_shots=40, master_seed=77, p_thermal=0.1,
                         prep_error=0.05)
        batch = simulate_batch(device, gated_pulse, cfg)
        chain = ReadoutChain(device, gated_pulse, cfg)
        checked = 0
        for i, rec in enumerate(batch):
            if rec.jump_times:
                continue
            rng = np.random.Generator(np.random.Philox(key=[cfg.master_seed, i]))
            s = +1 if rng.random() < cfg.p_thermal else -1
            if rec.prep == "e" and rng.random() >= cfg.prep_error:
                s = -s
            if s == +1:
                rng.exponential(device.T1)
            noise = chain.sigma_bin * rng.standard_normal(chain.n_bins)
            assert np.array_equal(rec.samples, chain.mean_bins[s] + noise)
            checked += 1
        assert checked >= 35


# ---------------------------------------------------------------------------
# batched jump-conditioned means against independent solves
# ---------------------------------------------------------------------------

def piecewise_trace_means(model, rot, s0, jumps, pulse, centers):
    """Conditioned means from one loop_trace solve per segment between
    jumps, each started from the field where the last one ended."""
    out = np.empty(len(centers))
    t_edges = [0.0] + list(jumps) + [centers[-1] + 1.0e-9]
    x = np.zeros(2, dtype=complex)
    s = s0
    idx = 0
    for a, b in zip(t_edges[:-1], t_edges[1:]):
        sel = (centers >= a - 1e-15) & (centers < b - 1e-15)
        vals = loop_trace(model, s, pulse, np.append(centers[sel], b), x0=x, t0=a)
        n_sel = int(np.count_nonzero(sel))
        out[idx: idx + n_sel] = np.real(rot * vals[:n_sel, 1])
        idx += n_sel
        x = vals[-1]
        s = -s
    return out


def rk4_switching_means(model, rot, s0, jumps, pulse, centers):
    """Projected resonator-filter output of the switching RK4 oracle."""
    fields = rk4_switching_fields(model, s0, jumps, pulse, centers)
    return np.real(rot * fields[:, 1])


def batched_means(chain, s0, jump_lists, pulse, times, mean_bins):
    """The chain's conditioned means, all rows in one call."""
    jumps = [(row, t, "") for row, ts in enumerate(jump_lists) for t in ts]
    out = np.zeros((len(s0), len(times)))
    chain._add_means(out, np.asarray(s0), jumps, pulse, times, mean_bins)
    return out


def _random_cases(seed: int):
    """Chain, then (pulse, times, mean_bins, s0, jump lists) per window:
    gated, two-step and the premeasurement pulse."""
    rng = np.random.default_rng(seed)
    dev = random_device(rng)
    dt_bin = rng.choice([4e-9, 8e-9])
    n_bins = int(rng.integers(6, 20))
    cfg = ShotConfig(n_shots=1, dt_bin=dt_bin, preselect=True,
                     premeasure_duration=dt_bin * int(rng.integers(8, 16)),
                     premeasure_window=2 * dt_bin,
                     premeasure_amplitude=rng.uniform(0.5, 1.5))
    duration = n_bins * dt_bin + rng.uniform(0.0, 40e-9)
    pulses = [PulseEnvelope(kind="gated", total_duration=duration),
              PulseEnvelope(kind="two_step", total_duration=duration,
                            boost_factor=rng.uniform(1.5, 3.0),
                            boost_duration=rng.uniform(2e-9, 12e-9))]
    chains = [ReadoutChain(dev, p, replace(cfg, measure_duration=n_bins * dt_bin))
              for p in pulses]
    for chain in chains:
        windows = [(chain.pulse, chain.bin_centers, chain.mean_bins,
                    n_bins * dt_bin),
                   (chain.pre_pulse, chain.pre_centers[-chain.n_win:],
                    chain.pre_bins, cfg.premeasure_duration)]
        for pulse, times, mean_bins, length in windows:
            s0 = rng.choice([-1, 1], size=4)
            jumps = [np.sort(rng.uniform(0.0, length, int(rng.integers(1, 5))))
                     .tolist() for _ in s0]
            yield chain, pulse, times, mean_bins, s0, jumps


@pytest.mark.parametrize("seed", range(20))
def test_batched_jump_means_match_trace_and_rk4(seed):
    for chain, pulse, times, mean_bins, s0, jumps in _random_cases(seed):
        got = batched_means(chain, s0, jumps, pulse, times, mean_bins)
        for row, (s, js) in enumerate(zip(s0, jumps)):
            ref = piecewise_trace_means(chain.model, chain.rot, s, js, pulse, times)
            scale = float(np.max(np.abs(ref)))
            assert np.allclose(got[row], ref, rtol=1e-12, atol=1e-12 * scale)
            ode = rk4_switching_means(chain.model, chain.rot, s, js, pulse, times)
            assert np.allclose(got[row], ode, rtol=1e-7, atol=1e-7 * scale)
