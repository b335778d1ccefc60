import math
import tracemalloc
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from scipy import stats

from conftest import (DT_BIN, bin_grid, loop_trace, make_device,
                      random_device, rk4_switching_fields)
from fastreadout.analysis import build_weights, integrate_batch
from fastreadout.cli import (build_device, build_pulse, build_shot_config,
                             resolve_config)
from fastreadout.dynamics import (PulseEnvelope, TwoCavityModel,
                                  mean_quadrature_traces, optimal_lo_phase)
from fastreadout.errors import ConfigError, FitError
from fastreadout import shots
from fastreadout.shots import (K_JUMPS, Z99, ReadoutChain, ShotConfig,
                               noise_sigma_bin, preselection_threshold,
                               run_preselection, simulate_batch)


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
        with pytest.raises(ConfigError, match="measure_duration = 1.6e-07 s "
                           "gives 20 bins, which pulse_duration = 4e-08 s"):
            simulate_batch(device, pulse, cfg)


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
        solo = simulate_batch(device, gated_pulse, cfg, shots=range(5, 6))
        assert np.array_equal(batch.samples[5], solo.samples[0])

    def test_seed_changes_samples(self, device, gated_pulse):
        a = simulate_batch(device, gated_pulse, ShotConfig(n_shots=1, master_seed=1))
        b = simulate_batch(device, gated_pulse, ShotConfig(n_shots=1, master_seed=2))
        assert not np.array_equal(a.samples, b.samples)


class TestNoiseCalibration:
    def test_variance_quarter_eta(self, gated_pulse):
        # noise-only shots: Var[sqrt(2 pi kappa_p) * sum Q w dt] = 1/(4 eta)
        dev = make_device(n_drive=0.0, T1=1.0)
        cfg = ShotConfig(n_shots=100000, master_seed=77, p_thermal=0.0)
        recs = ReadoutChain(dev, gated_pulse, cfg).run(
            range(cfg.n_shots), np.zeros(cfg.n_shots, bool))
        centers, _ = bin_grid(17)
        rng = np.random.default_rng(0)
        w_shape = rng.uniform(0.5, 2.0, 17)  # any normalized weight works
        weights = build_weights(centers, np.zeros(17), w_shape, 136e-9, DT_BIN)
        q = integrate_batch(recs.samples, weights, dev.kappa_p)
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
        batch = chain.run(range(cfg.n_shots), np.zeros(cfg.n_shots, bool))
        q = integrate_batch(batch.samples, weights, chain.device.kappa_p)
        assert np.var(q) == pytest.approx(1.0 / (4.0 * dev.eta), rel=0.05)

    def test_sigma_bin_formula(self):
        sigma = noise_sigma_bin(0.66, 64.27e6, 8e-9)
        expected = 1.0 / math.sqrt(4 * 0.66 * 2 * math.pi * 64.27e6 * 8e-9)
        assert sigma == pytest.approx(expected, rel=1e-12)

    def test_zero_drive_distributions_identical(self, gated_pulse):
        dev = make_device(n_drive=0.0, T1=1.0)
        cfg = ShotConfig(n_shots=4000, master_seed=5, p_thermal=0.0)
        recs = simulate_batch(dev, gated_pulse, cfg)
        q_g = np.concatenate([r.samples for r in recs if not r.excited])
        q_e = np.concatenate([r.samples for r in recs if r.excited])
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
        q = integrate_batch(recs.samples, weights, dev.kappa_p)
        for excited in (False, True):
            sample = q[recs.excited == excited]
            _, p = stats.normaltest(sample)
            assert p > 0.01


class TestMeanReproduction:
    def test_average_matches_mean_trace(self, gated_pulse):
        dev = make_device(eta=1.0, T1=1.0)
        cfg = ShotConfig(n_shots=10000, master_seed=4, p_thermal=0.0)
        recs = ReadoutChain(dev, gated_pulse, cfg).run(
            range(cfg.n_shots), np.ones(cfg.n_shots, bool))
        mean = np.mean([r.samples for r in recs], axis=0)
        times = np.arange(0.0, 160e-9, 0.5e-9)
        qt = mean_quadrature_traces(dev, gated_pulse, times)
        _, idx = bin_grid(len(mean))
        sigma = noise_sigma_bin(dev.eta, dev.kappa_p, cfg.dt_bin)
        se = sigma / math.sqrt(len(recs))
        assert np.all(np.abs(mean - qt.q_e[idx]) < 3.5 * se)


class TestThermalPopulation:
    @pytest.mark.parametrize("seed", range(3))
    def test_g_shots_on_the_e_side(self, device, gated_pulse, seed):
        # p_thermal = 0.05 and a 160 ns integration whose overlap error is
        # about 1e-8, with no decay or mixing: a g-prepared shot of run lies
        # on the e side of the midpoint exactly when it started thermally
        # excited, one Bernoulli(p_thermal) draw per shot
        n, p = 40000, 0.05
        dev = replace(device, T1=1.0)
        chain = ReadoutChain(dev, gated_pulse,
                             ShotConfig(n_shots=n, master_seed=seed, p_thermal=p))
        w = chain.weights(160e-9)
        still = integrate_batch(np.array([chain.mean_bins[-1], chain.mean_bins[+1]]),
                                w, dev.kappa_p)
        sigma_q = 0.5 / math.sqrt(dev.eta)
        assert stats.norm.sf(abs(still[1] - still[0]) / (2 * sigma_q)) < 1e-7
        batch = chain.run(range(n))
        g = ~batch.excited
        q = integrate_batch(batch.samples[g], w, dev.kappa_p)
        frac = np.mean(_e_side(q, still))
        assert abs(frac - p) <= 3.0 * math.sqrt(p * (1.0 - p) / len(q))


class TestJumpStatistics:
    def test_decay_fraction(self, device, gated_pulse):
        cfg = ShotConfig(n_shots=50000, master_seed=21, p_thermal=0.0)
        recs = ReadoutChain(device, gated_pulse, cfg).run(
            range(cfg.n_shots), np.ones(cfg.n_shots, bool))
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

    def test_poisson_jump_count_with_overflow(self, gated_pulse):
        # equal mixing rates both ways and T1 -> infinity: the jump count of
        # the 160 ns window is Poisson(gamma t). At gamma t = 1.5, 6.6 % of
        # the shots reach their 4th jump inside the window (overflow) and
        # 1.9 % need more than the 4 array-drawn waits
        lam = 1.5
        gamma = lam / 160e-9
        dev = make_device(T1=1.0)
        cfg = ShotConfig(n_shots=20000, master_seed=41, p_thermal=0.0,
                         gamma_mix_up=gamma, gamma_mix_down=gamma)
        batch = simulate_batch(dev, gated_pulse, cfg)
        n = len(batch)
        counts = np.bincount(batch.jump_shot, minlength=n)
        assert abs(counts.mean() - lam) < 3 * math.sqrt(lam / n)
        assert batch.n_overflow > 0
        for frac, p in ((np.mean(counts > 4), stats.poisson.sf(4, lam)),
                        (batch.n_overflow / n, stats.poisson.sf(3, lam))):
            assert abs(frac - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_no_overflow_on_reference_conf(self):
        # without mixing a shot jumps at most once: decay, then no way back
        cfg = resolve_config(str(resources.files("fastreadout.data")
                                 / "reference.conf"), [])
        batch = simulate_batch(build_device(cfg), build_pulse(cfg),
                               build_shot_config(cfg))
        assert len(batch) == 20000 and len(batch.jump_time) > 0
        assert batch.n_overflow == 0

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

    def test_reset_gap_decay_fractions(self):
        # oracle: no mixing, no preparation error, half the shots start in e
        # and T1 = 100 ns on the reference windows (152 ns premeasurement,
        # 100 ns reset gap, 296 ns measurement window). A shot decays in the
        # measurement window if it is in e there, and it is in e there if
        # it survived premeasurement and gap (label g) or did not (label e,
        # whose preparation flips it): p e^{-(T_pre + gap)/T1} (1 - e^{-T_w/T1})
        # = 3.82 % and (1 - p e^{-(T_pre + gap)/T1}) (1 - e^{-T_w/T1}) = 91.00 %.
        # A reset probability of 1 - e^{-gap/(2 T1)} would give 6.29 % and
        # 88.5 %
        T1, p = 100e-9, 0.5
        cfg = ShotConfig(n_shots=40000, master_seed=37, p_thermal=p,
                         preselect=True)
        batch = simulate_batch(make_device(T1=T1), PulseEnvelope(), cfg)
        survive = p * math.exp(-(cfg.premeasure_duration + cfg.reset_gap) / T1)
        decay_in_window = 1.0 - math.exp(-296e-9 / T1)
        decayed = np.zeros(len(batch), dtype=bool)
        decayed[batch.jump_shot] = True
        for label, want in ((False, survive * decay_in_window),
                            (True, (1.0 - survive) * decay_in_window)):
            frac = decayed[batch.excited == label]
            assert abs(frac.mean() - want) \
                < 3.0 * math.sqrt(want * (1.0 - want) / len(frac)), label

    def test_threshold_from_the_column_alone(self, device, gated_pulse):
        cfg = ShotConfig(n_shots=4000, master_seed=34, preselect=True,
                         measure_duration=160e-9)
        batch = simulate_batch(device, gated_pulse, cfg)
        kept, rejected = run_preselection(batch)
        keep = batch.preselect <= preselection_threshold(batch.preselect.copy())
        assert np.array_equal(kept.samples, batch.samples[keep])
        assert rejected == 1.0 - np.count_nonzero(keep) / len(batch)

    def test_threshold_matches_the_3_parameter_fit(self, monkeypatch):
        # oracle: a * exp(-(x - mu)^2 / (2 sigma^2)) with a, mu and sigma
        # all free, by scipy on the same histogram, with its Jacobian and
        # tolerances at the rounding level so that it stops at the minimum
        # (with its defaults it stops up to 2e-6 away). The threshold
        # mu + Z99 sigma can cancel towards 0, so the 1e-9 is relative to
        # |mu| + Z99 sigma.
        from scipy.optimize import least_squares as scipy_least_squares

        seen = []
        solve = shots.least_squares

        def recording(model, x0, **kw):
            seen.append(model)
            return solve(model, x0, **kw)

        monkeypatch.setattr(shots, "least_squares", recording)
        rng = np.random.default_rng(35)
        for _ in range(24):
            n = int(rng.integers(100, 50000))
            mu, sigma = rng.uniform(-5.0, 5.0) * 10 ** rng.uniform(-3, 3), \
                10 ** rng.uniform(-3, 2)
            q_p = rng.normal(mu, sigma, n)
            excited = rng.random(n) < rng.uniform(0.0, 0.05)
            q_p[excited] += rng.uniform(2.0, 8.0) * sigma
            threshold = preselection_threshold(q_p)
            c, counts = seen[-1].centers, seen[-1].counts[:, 0]

            def gauss(p):
                z = (c - p[1]) / p[2]
                return z, np.exp(-0.5 * z * z)

            def resid(p):
                return p[0] * gauss(p)[1] - counts

            def jac(p):
                z, g = gauss(p)
                return np.column_stack([g, p[0] * g * z / p[2],
                                        p[0] * g * z * z / p[2]])

            med = float(np.median(q_p))
            sig0 = float(np.subtract(*np.percentile(q_p, [75, 25]))) / 1.349
            sol = scipy_least_squares(resid, [counts.max(), med, sig0], jac=jac,
                                      ftol=1e-15, xtol=1e-15, gtol=1e-15)
            _, mu_o, sigma_o = sol.x
            assert abs(threshold - (mu_o + Z99 * abs(sigma_o))) \
                <= 1e-9 * (abs(mu_o) + Z99 * abs(sigma_o))

    @staticmethod
    def threshold_through_core(q_p) -> float:
        """preselection_threshold as it was written with the core of q_p
        copied out: a median and quartiles of copies of q_p, and the
        histogram of the values within 4 sig0 of the median."""
        med = float(np.median(q_p))
        iqr = float(np.subtract(*np.percentile(q_p, [75, 25])))
        sig0 = max(iqr / 1.349, 1e-12 * (1.0 + abs(med)))
        core = q_p[np.abs(q_p - med) < 4.0 * sig0]
        edges = np.linspace(core.min(), core.max(),
                            max(40, int(math.sqrt(len(core)))) + 1)
        counts, _ = np.histogram(core, bins=edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        model = shots.NormalColumns(centers, counts)
        sol = shots.least_squares(model, [med, sig0],
                                  bounds=([-np.inf, (centers[1] - centers[0]) / 10.0],
                                          np.inf), max_nfev=5000)
        mu, sigma = (float(v) for v in sol.x)
        return mu + Z99 * sigma

    def test_threshold_equals_the_core_formula(self, gated_pulse):
        # bit for bit, on random columns of odd and even length with an
        # excited tail and repeated values, and on the premeasurement
        # columns of random devices
        rng = np.random.default_rng(36)
        columns = []
        for n in (101, 1000, 4097, 30000):
            q_p = rng.normal(rng.uniform(-3.0, 3.0), 10 ** rng.uniform(-3, 1), n)
            q_p[rng.random(n) < 0.03] += 5.0 * q_p.std()
            columns += [q_p, np.round(q_p, 2)]
        for seed in range(3):
            cfg = ShotConfig(n_shots=3001, master_seed=40 + seed, preselect=True,
                             measure_duration=160e-9)
            device = random_device(np.random.default_rng(seed))
            columns.append(simulate_batch(device, gated_pulse, cfg).preselect)
        for q_p in columns:
            kept = q_p.copy()
            assert preselection_threshold(q_p) == self.threshold_through_core(q_p)
            assert np.array_equal(q_p, kept)

    def test_threshold_working_set(self):
        # one copy of the column and a mask: at most 10 bytes a value beside
        # the caller's column, where copying the core out took 16
        q_p = np.random.default_rng(37).normal(size=10**6)
        preselection_threshold(q_p[:1000])
        tracemalloc.start()
        try:
            preselection_threshold(q_p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * len(q_p), peak

    def test_empty_tail_raises_once_it_cannot_be_chance(self):
        # at 2e7 1/s mixing both ways the fitted 99% point of the
        # premeasurement column lies above every value. A fitting Gaussian
        # leaves that tail empty with probability 0.99^n: at least
        # EMPTY_TAIL_P up to n = 1374, so only from 1375 values on is the
        # fit refused
        cfg = resolve_config(str(resources.files("fastreadout.data")
                                 / "reference.conf"),
                             ["preselect=true", "gamma_mix_up=2e7",
                              "gamma_mix_down=2e7", "n_shots=2000"])
        q_p = simulate_batch(build_device(cfg), build_pulse(cfg),
                             build_shot_config(cfg)).preselect
        assert 0.99 ** 1374 >= shots.EMPTY_TAIL_P > 0.99 ** 1375
        assert preselection_threshold(q_p[:1374]) > np.max(q_p[:1374])
        for n in (1375, 2000):
            with pytest.raises(FitError, match=f"99% point .* above all {n} "):
                preselection_threshold(q_p[:n])

    @pytest.mark.parametrize("values", [
        np.full(200, 0.25),                          # no spread
        np.full(200, -4.6e299),                      # noise below the last digit
        np.repeat([1e16, 1e16 + 2.0], 100),          # two values one ulp apart
    ])
    def test_no_spread_to_histogram(self, values):
        with pytest.raises(FitError, match="spread"):
            preselection_threshold(values)


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

    def test_one_bin_rule_for_every_window(self, device, gated_pulse):
        # whole bins inside each window: 150 ns is 18.75 bins of 8 ns, and
        # a 19th bin would sample 2 ns past the premeasurement pulse
        for duration, window, n_pre, n_win in ((152e-9, 48e-9, 19, 6),
                                               (150e-9, 48e-9, 18, 6),
                                               (152e-9, 15e-9, 19, 1)):
            chain = ReadoutChain(device, gated_pulse, ShotConfig(
                n_shots=1, preselect=True, premeasure_duration=duration,
                premeasure_window=window))
            assert (chain.n_pre, chain.n_win) == (n_pre, n_win)
        with pytest.raises(ConfigError, match="0 bins per premeasure_window"):
            ReadoutChain(device, gated_pulse, ShotConfig(
                n_shots=1, preselect=True, premeasure_window=4e-9))


class TestShotBatch:
    def test_views_match_columns(self, gated_pulse):
        dev = make_device(T1=0.5e-6)
        cfg = ShotConfig(n_shots=30, master_seed=6, gamma_mix_up=2e6,
                         preselect=True, measure_duration=160e-9)
        batch = simulate_batch(dev, gated_pulse, cfg)
        assert len(batch) == 30 and batch.n_bins == 20
        recs = list(batch)
        assert [r.excited for r in recs] == list(batch.excited)
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
            assert a.excited == b.excited and a.jump_times == b.jump_times
            assert np.array_equal(a.samples, b.samples)


def _stream_config(n_shots: int, **kw) -> ShotConfig:
    # jumps in both windows, preparation errors and preselection: every draw
    base = dict(n_shots=n_shots, master_seed=2024, p_thermal=0.2,
                gamma_mix_up=3e6, gamma_mix_down=2e6, prep_error=0.1,
                preselect=True, measure_duration=160e-9)
    return ShotConfig(**{**base, **kw})


def _unit(words: np.ndarray) -> np.ndarray:
    """64-bit words as u = ((k >> 12) + 0.5) 2^-52 in (0, 1)."""
    return ((words >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52


def _words(seed: int, shot: int, n_words: int) -> np.ndarray:
    """Shot `shot`'s words of the stream keyed (seed, 0) as u in (0, 1)."""
    bits = np.random.Philox(key=[seed, 0])
    bits.advance(shot * n_words // 4)
    return _unit(bits.random_raw(n_words))


def _box_muller(u: np.ndarray, n: int) -> np.ndarray:
    """n normals from the first n words, rounded up to even, of u."""
    u = u[:n + n % 2]
    z = np.empty(len(u))
    r = np.sqrt(-2.0 * np.log(u[0::2]))
    z[0::2] = r * np.cos(2.0 * math.pi * u[1::2])
    z[1::2] = r * np.sin(2.0 * math.pi * u[1::2])
    return z[:n]


def _mean_wait(device, cfg, s: int) -> float:
    rate = 1.0 / device.T1 + cfg.gamma_mix_down if s > 0 else cfg.gamma_mix_up
    return 1.0 / rate if rate > 0.0 else math.inf


def _window_jumps(device, cfg, u, s, t1, shot, window):
    """The jumps in [0, t1) from the 4 round-0 jump words u, starting in
    state s: a running sum, word by word, of -log(u) times the mean wait of
    the state left. While a round's 4th jump still lands inside, round
    r >= 1 reads the shot's 4 words [4 shot, 4 shot + 4) from the start of
    Philox(key=[seed, 2 r - 1 + window])."""
    jumps, t, r = [], 0.0, 0
    while True:
        if r:
            key = [cfg.master_seed, 2 * r - 1 + window]
            u = _unit(np.random.Philox(key=key).random_raw(4 * shot + 4)[4 * shot:])
        for w in (-np.log(u)).tolist():
            t = t + w * _mean_wait(device, cfg, s)
            if t >= t1:
                return tuple(jumps), s
            jumps.append((t, s > 0))
            s = -s
        r += 1


def _shot_from_words(chain, cfg, shot, excited):
    """(jumps, preselect-window jumps, s_pre, s_main) of one shot, worked
    out from its words in the documented order."""
    u = _words(cfg.master_seed, shot, chain.n_words)
    device = chain.device
    s = s_pre = +1 if u[0] < cfg.p_thermal else -1
    c, pre_jumps = 1, ()
    if cfg.preselect:
        pre_jumps, s = _window_jumps(device, cfg, u[c:c + 4], s,
                                     cfg.premeasure_duration, shot, 0)
        c += 4 + chain.n_win + chain.n_win % 2
        if s > 0 and u[c] < chain.p_reset:
            s = -1
        c += 1
    if excited and u[c] >= cfg.prep_error:
        s = -s
    jumps, _ = _window_jumps(device, cfg, u[c + 1:c + 5], s,
                             chain.n_bins * cfg.dt_bin, shot, 1)
    return u[c + 5:], jumps, pre_jumps, s_pre, s


class TestStreamPinning:
    def test_shot_independent_of_batch_size(self, device, gated_pulse):
        # rows of a 50-shot batch, of a batch started at shot 3 and of a
        # batch spanning several draw chunks equal their one-shot runs
        chain = ReadoutChain(device, gated_pulse, _stream_config(50))
        batch = chain.run(range(50))
        assert len(batch.jump_time) > 0 and np.isfinite(batch.preselect).all()
        assert np.array_equal(batch.excited[:4], [False, True, False, True])
        offset = chain.run(range(3, 11))
        for i in range(8):
            solo = chain.run(range(i, i + 1), batch.excited[i:i + 1])
            for other, row in ((solo, 0), (offset, i - 3)):
                if row < 0:
                    continue
                assert other.excited[row] == batch.excited[i]
                assert np.array_equal(other.samples[row], batch.samples[i])
                assert other[row].jump_times == batch[i].jump_times
                assert other.preselect[row] == batch.preselect[i]
                assert other.overflow[row] == batch.overflow[i]
        rec = simulate_batch(device, gated_pulse, _stream_config(1), range(5, 6))
        assert np.array_equal(rec.samples[0], batch.samples[5])
        many = ReadoutChain(device, gated_pulse, _stream_config(600)).run(range(600))
        part = chain.run(range(250, 262))
        assert np.array_equal(part.samples, many.samples[250:262])
        assert np.array_equal(part.preselect, many.preselect[250:262])

    def test_no_jump_noise_is_philox_stream(self, device, gated_pulse):
        # a no-jump row is mean_bins[s] + sigma * Box-Muller of its noise
        # words. Words: thermal, [4 jump words, 6 noise words, reset word],
        # prep, 4 jump words, 20 noise words; W padded to a multiple of 4
        for preselect, n_words in ((False, 28), (True, 40)):
            cfg = ShotConfig(n_shots=40, master_seed=77, p_thermal=0.1,
                             prep_error=0.05, preselect=preselect,
                             measure_duration=160e-9)
            chain = ReadoutChain(device, gated_pulse, cfg)
            assert chain.n_words == n_words
            checked = 0
            for i, rec in enumerate(chain.run(range(40))):
                noise_words, jumps, pre_jumps, s_pre, s = \
                    _shot_from_words(chain, cfg, i, rec.excited)
                assert jumps == rec.jump_times
                if jumps:
                    continue
                noise = chain.sigma_bin * _box_muller(noise_words, chain.n_bins)
                assert np.array_equal(rec.samples, chain.mean_bins[s] + noise)
                checked += 1
                if preselect and not pre_jumps:
                    pre = chain.sigma_bin * _box_muller(
                        _words(cfg.master_seed, i, n_words)[5:11], 6)
                    assert rec.preselect_value == \
                        np.mean(chain.pre_bins[s_pre] + pre)
            assert checked >= 35

    def test_jump_times_are_cumsum_of_scaled_waits(self, device, gated_pulse):
        cfg = _stream_config(200, preselect=False, gamma_mix_up=6e6)
        chain = ReadoutChain(device, gated_pulse, cfg)
        batch = chain.run(range(200))
        assert 0 < len(np.unique(batch.jump_shot)) < 200
        for i, rec in enumerate(batch):
            assert _shot_from_words(chain, cfg, i, rec.excited)[1] == rec.jump_times

    @pytest.mark.parametrize("preselect", [False, True])
    def test_overflow_continues_from_its_own_stream(self, device, gated_pulse,
                                                    preselect):
        # at 2e7 1/s both ways about 2 shots in 5 need more than 4 waits
        cfg = _stream_config(60, preselect=preselect, gamma_mix_up=2e7,
                             gamma_mix_down=2e7)
        chain = ReadoutChain(device, gated_pulse, cfg)
        batch = chain.run(range(60))
        assert batch.n_overflow >= 5
        over = np.flatnonzero(batch.overflow)
        for i in over.tolist():
            _, jumps, pre_jumps, *_ = _shot_from_words(chain, cfg, i,
                                                       batch.excited[i])
            assert jumps == batch[i].jump_times
            assert len(jumps) >= 4 or len(pre_jumps) >= 4
            solo = chain.run(range(i, i + 1), batch.excited[i:i + 1])
            assert np.array_equal(solo.samples[0], batch.samples[i])
            assert solo[0].jump_times == jumps and solo.overflow[0]
            assert solo.preselect[0] == batch.preselect[i] \
                or (np.isnan(solo.preselect[0]) and not preselect)
        assert any(len(batch[i].jump_times) > 4 for i in over)

    def test_overflow_rows_independent_of_batch_size(self, device, gated_pulse):
        # rows 250-261 straddle the draw chunk boundary at 256 and include
        # overflow rows: their later rounds read the same words either way
        cfg = _stream_config(600, gamma_mix_up=2e7, gamma_mix_down=2e7)
        chain = ReadoutChain(device, gated_pulse, cfg)
        many = chain.run(range(600))
        part = chain.run(range(250, 262))
        assert part.overflow.any()
        assert np.array_equal(part.overflow, many.overflow[250:262])
        assert np.array_equal(part.samples, many.samples[250:262])
        assert np.array_equal(part.preselect, many.preselect[250:262])
        rows = (many.jump_shot >= 250) & (many.jump_shot < 262)
        assert np.array_equal(part.jump_shot + 250, many.jump_shot[rows])
        assert np.array_equal(part.jump_time, many.jump_time[rows])
        assert np.array_equal(part.jump_decay, many.jump_decay[rows])


class TestJumpEdges:
    """ReadoutChain._jumps on blocks built word by word, row by row against
    the _window_jumps oracle: the jumps, the final state and the overflow
    mask, and the dtypes of the sparse arrays."""

    FIRST = 1000  # index of the block's first shot

    @staticmethod
    def block(rng, m):
        """Round-0 jump words u (m, K_JUMPS) and starting states of m rows."""
        return rng.uniform(0.01, 1.0, (m, K_JUMPS)), rng.choice([-1, 1], m)

    def check(self, chain, u, s, t1):
        e = -np.log(u)
        kept = e.copy()
        s_end, over, (row, time, decay) = chain._jumps(e, s, t1, self.FIRST, 1)
        assert np.array_equal(e, kept)
        assert row.dtype == np.int64 and time.dtype == float and decay.dtype == bool
        assert np.all(np.diff(row) >= 0)
        assert over.dtype == bool and over.shape == s.shape
        for i in range(len(s)):
            jumps, s_i = _window_jumps(chain.device, chain.cfg, u[i], int(s[i]), t1,
                                       self.FIRST + i, 1)
            mine = row == i
            assert tuple(zip(time[mine].tolist(), decay[mine].tolist())) == jumps
            assert s_end[i] == s_i and over[i] == (len(jumps) >= K_JUMPS)
        return s_end, over, row

    def test_no_row_jumps(self, device, gated_pulse):
        # no mixing and a T1 of a second: every first wait passes the window
        cfg = _stream_config(8, preselect=False, gamma_mix_up=0.0,
                             gamma_mix_down=0.0)
        chain = ReadoutChain(replace(device, T1=1.0), gated_pulse, cfg)
        u, s = self.block(np.random.default_rng(61), 8)
        s_end, over, row = self.check(chain, u, s, chain.n_bins * cfg.dt_bin)
        assert len(row) == 0 and not over.any() and np.array_equal(s_end, s)

    def test_first_wait_equal_to_the_window_end(self, device, gated_pulse):
        # t1 is row 0's first jump time to the last bit, about 100 ns: a
        # jump lands inside only when it comes before t1, so row 0 keeps
        # its state. Row 1's first word is a little larger, so its first
        # wait is a little shorter
        cfg = _stream_config(6, preselect=False)
        chain = ReadoutChain(device, gated_pulse, cfg)
        u, s = self.block(np.random.default_rng(62), 6)
        s[:2] = 1
        u[:2, 0] = 0.8, 0.8000001
        t1 = float(-np.log(u[0, 0])) * shots.mean_waits(device, cfg)[+1]
        assert float(-np.log(u[1, 0])) * shots.mean_waits(device, cfg)[+1] < t1
        _, _, row = self.check(chain, u, s, t1)
        assert 0 not in row and 1 in row

    def test_every_open_row_needs_round_two(self, device, gated_pulse):
        # about 64 mean jumps in the window, so each row that jumps at all
        # needs rounds 1, 2, ...; rows 0, 3 and 6 never jump, their first
        # word so small that its wait passes the window
        cfg = _stream_config(9, preselect=False, gamma_mix_up=4e8,
                             gamma_mix_down=4e8)
        chain = ReadoutChain(device, gated_pulse, cfg)
        u, s = self.block(np.random.default_rng(63), 9)
        u[::3, 0] = 1e-300
        s_end, over, row = self.check(chain, u, s, chain.n_bins * cfg.dt_bin)
        counts = np.bincount(row, minlength=9)
        assert np.all(counts[::3] == 0) and not over[::3].any()
        assert np.all(np.delete(counts, [0, 3, 6]) > 2 * K_JUMPS)


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


def batched_means(chain, s0, jump_lists, pulse, times, mean_bins, noise=None):
    """The chain's conditioned means, all rows in one call, added to
    `noise` (zeros by default)."""
    jump_shot = np.repeat(np.arange(len(jump_lists)), [len(ts) for ts in jump_lists])
    jump_time = np.concatenate([np.asarray(ts, dtype=float) for ts in jump_lists])
    out = np.zeros((len(s0), len(times))) if noise is None else noise.copy()
    chain._add_means(out, np.asarray(s0), jump_shot, jump_time, pulse, times,
                     mean_bins)
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


@pytest.mark.parametrize("seed", range(6))
def test_many_jumps_and_jumps_outside_the_samples(seed):
    # rows with 5-12 jumps, more than one round of K_JUMPS waits, each with
    # a jump before the first sample and one after the last; one row whose
    # only jump follows the last sample and one without jumps
    rng = np.random.default_rng(1000 + seed)
    for chain, pulse, times, mean_bins, _, _ in _random_cases(seed):
        end = times[-1] + 0.5 * chain.cfg.dt_bin
        jumps = [np.sort(np.concatenate([
            rng.uniform(0.0, end, int(rng.integers(3, 11))),
            rng.uniform(0.0, times[0], 1), rng.uniform(times[-1], end, 1)])).tolist()
            for _ in range(4)] + [rng.uniform(times[-1], end, 1).tolist(), []]
        assert all(len(js) > K_JUMPS for js in jumps[:4])
        s0 = rng.choice([-1, 1], size=len(jumps))
        noise = rng.standard_normal((len(s0), len(times)))
        got = batched_means(chain, s0, jumps, pulse, times, mean_bins)
        noisy = batched_means(chain, s0, jumps, pulse, times, mean_bins, noise)
        for row, (s, js) in enumerate(zip(s0, jumps)):
            # samples up to the first jump: the no-jump means plus the noise
            before = times <= (js[0] if js else np.inf) + 1e-15
            assert np.array_equal(noisy[row, before],
                                  mean_bins[s][before] + noise[row, before])
            inside = [t for t in js if t < times[-1]]
            ref = piecewise_trace_means(chain.model, chain.rot, s, inside, pulse,
                                        times)
            scale = float(np.max(np.abs(ref)))
            assert np.allclose(got[row], ref, rtol=1e-12, atol=1e-12 * scale)
            ode = rk4_switching_means(chain.model, chain.rot, s, js, pulse, times)
            assert np.allclose(got[row], ode, rtol=1e-7, atol=1e-7 * scale)


@pytest.mark.parametrize("chunk", [1, 3])
def test_jump_means_independent_of_chunk_size(device, gated_pulse, monkeypatch,
                                              chunk):
    # at 2e7 1/s both ways most shots jump in both windows, often more than
    # K_JUMPS times
    cfg = _stream_config(40, gamma_mix_up=2e7, gamma_mix_down=2e7)
    chain = ReadoutChain(device, gated_pulse, cfg)
    whole = chain.run(range(40))
    assert whole.n_overflow > 0
    monkeypatch.setattr(shots, "_JUMP_CHUNK", chunk)
    part = chain.run(range(40))
    assert np.array_equal(part.samples, whole.samples)
    assert np.array_equal(part.preselect, whole.preselect)


def test_switch_on_bin_centre_and_drive_edge(device):
    # the qubit flips at 4 ns: a bin centre of the 8 ns bins and the end
    # of the boost. The sample there ends the first segment; the solve
    # continues from the field at 4 ns in the flipped state.
    boosted = PulseEnvelope(kind="two_step", boost_duration=4e-9,
                            total_duration=100e-9)
    chain = ReadoutChain(device, boosted,
                         ShotConfig(n_shots=1, measure_duration=96e-9))
    model = chain.model
    centers = (np.arange(20) + 0.5) * 8e-9
    switch = 4e-9
    assert centers[0] == switch == boosted.segments()[0][1]
    beta = model.trace([-1, +1], boosted, centers)[..., 1]
    mean_bins = dict(zip((-1, +1), np.real(chain.rot * beta)))
    for s in (-1, +1):
        got = batched_means(chain, [s], [[switch]], boosted, centers, mean_bins)[0]
        before = loop_trace(model, s, boosted, centers[:1])
        after = loop_trace(model, -s, boosted, centers[1:], x0=before[-1],
                           t0=switch)
        ref = np.real(chain.rot * np.concatenate([before, after])[:, 1])
        scale = float(np.max(np.abs(ref)))
        assert np.allclose(got, ref, rtol=1e-13, atol=1e-13 * scale)
        assert got[0] == mean_bins[s][0]


# ---------------------------------------------------------------------------
# q-space draws (ReadoutChain.sample_q)
# ---------------------------------------------------------------------------

def _q_config(n_shots: int, **kw) -> ShotConfig:
    # _stream_config's draws without the premeasurement, and jumps often
    # more than K_JUMPS in the 136 ns window
    return _stream_config(n_shots, **{"preselect": False, "gamma_mix_up": 2e7,
                                      "gamma_mix_down": 2e7, **kw})


def _e_side(q, still):
    """True where q lies on the e side of the midpoint of the no-jump q
    of g and e (still[0], still[1])."""
    return (q > 0.5 * (still[0] + still[1])) == (still[1] > still[0])


class TestSampleQ:
    TAU = 136e-9

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    def test_q_independent_of_chunk_size(self, device, gated_pulse,
                                         monkeypatch, chunk):
        chain = ReadoutChain(device, gated_pulse, _q_config(600))
        whole, excited = chain.sample_q(range(600), self.TAU)
        monkeypatch.setattr(shots, "_Q_CHUNK", chunk)
        part, labels = chain.sample_q(range(600), self.TAU)
        assert np.array_equal(part, whole)
        assert np.array_equal(labels, excited)

    def test_sub_range_is_slice_of_full_range(self, device, gated_pulse):
        chain = ReadoutChain(device, gated_pulse, _q_config(600))
        full, excited = chain.sample_q(range(600), self.TAU)
        assert np.array_equal(excited[:4], [False, True, False, True])
        part, labels = chain.sample_q(range(250, 262), self.TAU)
        assert np.array_equal(part, full[250:262])
        assert np.array_equal(labels, excited[250:262])
        for i in (0, 3, 255, 256, 599):
            solo, _ = chain.sample_q(range(i, i + 1), self.TAU, excited[i:i + 1])
            assert solo[0] == full[i]
        # the labels choose the preparation, not the stream position
        flipped, _ = chain.sample_q(range(250, 262), self.TAU, ~labels)
        assert not np.array_equal(flipped, part)

    def test_shot_is_its_words_of_the_q_stream(self, device, gated_pulse):
        # words of shot i in Philox(key=(seed, Q_STREAM)): thermal, prep,
        # 4 jump words over [0, len(w) dt_bin), one normal pair
        cfg = _q_config(200, gamma_mix_up=6e6, gamma_mix_down=0.0)
        chain = ReadoutChain(device, gated_pulse, cfg)
        q, excited = chain.sample_q(range(200), self.TAU)
        w = chain.weights(self.TAU)
        bits = np.random.Philox(key=[cfg.master_seed, shots.Q_STREAM])
        u = _unit(bits.random_raw(200 * 8)).reshape(200, 8)
        jumped = 0
        for i in range(200):
            s = +1 if u[i, 0] < cfg.p_thermal else -1
            if excited[i] and u[i, 1] >= cfg.prep_error:
                s = -s
            jumps, _ = _window_jumps(device, cfg, u[i, 2:6], s,
                                     len(w.w) * DT_BIN, i, 1)
            times = np.array([t for t, _ in jumps])
            mean = chain._mean_q(np.array([s]), np.zeros(len(times), dtype=int),
                                 times, w)
            noise = 0.5 / math.sqrt(device.eta) * _box_muller(u[i, 6:], 1)
            assert q[i] == mean[0] + noise[0]
            jumped += bool(jumps)
        assert 20 < jumped < 180

    @pytest.mark.parametrize("seed", range(6))
    def test_noise_free_q_is_integrated_zero_noise_record(self, seed):
        # prescribed jump rows: 0 to 9 jumps, some past tau or past the
        # last bin centre; over random devices, both pulse shapes and
        # several tau
        rng = np.random.default_rng(3000 + seed)
        for chain, *_ in _random_cases(seed):
            end = chain.n_bins * chain.cfg.dt_bin
            jumps = [np.sort(rng.uniform(0.0, end, int(rng.integers(0, 10))))
                     for _ in range(12)]
            s0 = rng.choice([-1, 1], size=len(jumps))
            jump_shot = np.repeat(np.arange(len(jumps)), [len(j) for j in jumps])
            jump_time = np.concatenate(jumps)
            record = np.zeros((len(jumps), chain.n_bins))
            chain._add_means(record, s0, jump_shot, jump_time, chain.pulse,
                             chain.bin_centers, chain.mean_bins)
            for k in sorted({1, int(rng.integers(2, chain.n_bins + 1)),
                             chain.n_bins}):
                w = chain.weights(k * chain.cfg.dt_bin)
                ref = integrate_batch(record, w, chain.device.kappa_p)
                got = chain._mean_q(s0, jump_shot, jump_time, w)
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_spread_about_the_noise_free_q(self, seed):
        # no mixing, thermal population, prep error or decay: every shot
        # keeps its prepared state, so q minus its state's noise-free q is
        # the noise alone, and 4 eta times the sum of its squares is
        # chi-square with n degrees of freedom
        n = 40000
        rng = np.random.default_rng(900 + seed)
        device = replace(random_device(rng), T1=1.0)
        pulse = PulseEnvelope(kind="gated", total_duration=160e-9)
        cfg = ShotConfig(n_shots=n, master_seed=seed, p_thermal=0.0,
                         prep_error=0.0)
        chain = ReadoutChain(device, pulse, cfg)
        tau = DT_BIN * int(rng.integers(1, chain.n_bins + 1))
        q, excited = chain.sample_q(range(n), tau)
        w = chain.weights(tau)
        still = integrate_batch(np.array([chain.mean_bins[s][:len(w.w)]
                                          for s in (-1, +1)]), w, device.kappa_p)
        chi2 = 4.0 * device.eta * float(np.sum((q - still[excited.astype(int)]) ** 2))
        assert stats.chi2.ppf(1e-4, n) < chi2 < stats.chi2.isf(1e-4, n)

    def test_preselection_refused(self, device, gated_pulse):
        chain = ReadoutChain(device, gated_pulse, _q_config(10, preselect=True))
        with pytest.raises(ValueError, match="premeasurement"):
            chain.sample_q(range(10), self.TAU)

    def test_range_and_labels_checked(self, device, gated_pulse):
        chain = ReadoutChain(device, gated_pulse, _q_config(10))
        with pytest.raises(ValueError, match="range"):
            chain.sample_q(range(0, 10, 2), self.TAU)
        with pytest.raises(ValueError, match="one label per shot"):
            chain.sample_q(range(10), self.TAU, np.zeros(9, dtype=bool))
        with pytest.raises(ConfigError, match="tau"):
            chain.sample_q(range(10), 200e-9)


@pytest.mark.parametrize("seed", range(5))
def test_sample_q_errors_match_the_sample_path(seed):
    # eps_g and eps_e at the midpoint of the no-jump q of g and e, from
    # sample_q and from run + integrate_batch, agree within 3 binomial
    # standard errors per class, with and without mixing
    rng = np.random.default_rng(700 + seed)
    device = random_device(rng)
    pulse = PulseEnvelope(kind="gated", total_duration=160e-9)
    tau = DT_BIN * int(rng.integers(2, 21))
    n = 40000
    for mix in (0.0, rng.uniform(2e6, 2e7)):
        cfg = ShotConfig(n_shots=n, master_seed=seed, gamma_mix_up=mix,
                         gamma_mix_down=mix, p_thermal=rng.uniform(0.0, 0.05),
                         prep_error=rng.uniform(0.0, 0.05))
        chain = ReadoutChain(device, pulse, cfg)
        w = chain.weights(tau)
        still = chain._mean_q(np.array([-1, 1]), np.empty(0, dtype=int),
                              np.empty(0), w)
        batch = chain.run(range(n))
        q_path = integrate_batch(batch.samples, w, device.kappa_p)
        q_fast, excited = chain.sample_q(range(n), tau)
        assert np.array_equal(excited, batch.excited)
        for prepared in (False, True):
            cls = excited == prepared
            wrong = [np.count_nonzero(_e_side(q[cls], still) != prepared)
                     for q in (q_path, q_fast)]
            m = np.count_nonzero(cls)
            p = sum(wrong) / (2 * m)
            sigma = math.sqrt(p * (1.0 - p) * 2.0 / m)
            assert abs(wrong[0] - wrong[1]) / m <= 3.0 * sigma, (mix, prepared, wrong)
