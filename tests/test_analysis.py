import math

import numpy as np
import pytest
from scipy.special import erfc, ndtr

from conftest import DT_BIN, bin_grid, make_device
from fastreadout.analysis import (FilterConfig, MixtureFit,
                                  _intersection_threshold, build_weights,
                                  error_budget, fit_mixture,
                                  fit_shot_histograms, histogram_bins,
                                  integrate_batch, overlap_model,
                                  overlap_vs_power)
from fastreadout.dynamics import (PulseEnvelope, SignalTrace, TWOPI,
                                  full_model_signal, mean_quadrature_traces,
                                  qss_steady_signal)
from fastreadout.errors import FitError, NoSignalError, TauRangeError
from fastreadout.shots import ShotBatch, ShotConfig, simulate_batch


@pytest.fixture(scope="module")
def reference_traces():
    dev = make_device()
    pulse = PulseEnvelope(kind="gated", total_duration=160e-9)
    times = np.arange(0.0, 160e-9, 0.5e-9)
    trace = full_model_signal(dev, pulse, times)
    qt = mean_quadrature_traces(dev, pulse, times)
    return dev, trace, qt


class TestWeights:
    def test_constant_difference(self):
        centers, _ = bin_grid(8)
        tau = 64e-9
        w = build_weights(centers, np.zeros(8), np.full(8, 2.5), tau, DT_BIN)
        assert np.allclose(w.w, 1.0 / math.sqrt(tau))

    def test_unit_norm_postcondition(self):
        rng = np.random.default_rng(7)
        centers, _ = bin_grid(17)
        for _ in range(10):
            diff = rng.uniform(-3, 3, 17)
            if np.all(diff == 0):
                continue
            w = build_weights(centers, np.zeros(17), diff, 136e-9, DT_BIN)
            assert np.sum(w.w ** 2) * w.dt == pytest.approx(1.0, rel=1e-9)
            assert np.all(w.w >= 0.0)

    def test_weight_peaks_at_tau_for_rising_signal(self, reference_traces):
        _, _, qt = reference_traces
        centers, idx = bin_grid(7)
        w = build_weights(centers, qt.q_g[idx], qt.q_e[idx], 56e-9, DT_BIN)
        # ring-up: negligible weight at turn-on, peak (with a small
        # overshoot) in the settled half of the window
        assert w.w[0] < 0.05 * np.max(w.w)
        assert np.argmax(w.w) >= len(w.w) // 2
        assert w.w[-1] > 0.8 * np.max(w.w)

    def test_no_signal_raises(self):
        centers, _ = bin_grid(8)
        with pytest.raises(NoSignalError):
            build_weights(centers, np.ones(8), np.ones(8), 64e-9, DT_BIN)

    def test_tau_beyond_support(self):
        centers, _ = bin_grid(8)
        with pytest.raises(TauRangeError):
            build_weights(centers, np.zeros(8), np.ones(8), 1e-6, DT_BIN)


def integrate_row(samples, w, kappa_p):
    """q_tau of one shot, through a one-row ShotBatch."""
    q, _ = integrate_batch(ShotBatch(prep=["g"], samples=[samples]), w, kappa_p)
    return float(q[0])


class TestIntegration:
    def test_zero_record(self):
        centers, _ = bin_grid(7)
        w = build_weights(centers, np.zeros(7), np.ones(7), 56e-9, DT_BIN)
        assert integrate_row(np.zeros(7), w, 64.27e6) == 0.0

    def test_mean_difference_is_weighted_signal(self, reference_traces):
        # noise-free records at the two mean traces: q_e - q_g equals the
        # weighted integral of S
        dev, _, qt = reference_traces
        centers, idx = bin_grid(7)
        w = build_weights(centers, qt.q_g[idx], qt.q_e[idx], 56e-9, DT_BIN)
        q_g = integrate_row(qt.q_g[idx], w, dev.kappa_p)
        q_e = integrate_row(qt.q_e[idx], w, dev.kappa_p)
        s_bins = math.sqrt(TWOPI * dev.kappa_p) * np.abs(
            qt.q_e[idx][:7] - qt.q_g[idx][:7])
        expected = float(np.sum(s_bins * w.w) * w.dt)
        assert q_e - q_g == pytest.approx(expected, rel=1e-9)

    def test_short_record_rejected(self):
        centers, _ = bin_grid(7)
        w = build_weights(centers, np.zeros(7), np.ones(7), 56e-9, DT_BIN)
        with pytest.raises(TauRangeError):
            integrate_row(np.zeros(3), w, 64.27e6)

    def test_batch_matches_single(self, reference_traces):
        dev, _, qt = reference_traces
        rng = np.random.default_rng(11)
        centers, idx = bin_grid(7)
        w = build_weights(centers, qt.q_g[idx], qt.q_e[idx], 56e-9, DT_BIN)
        batch = ShotBatch(prep=["g"] * 5, samples=rng.normal(size=(5, 7)))
        q, prep = integrate_batch(batch, w, dev.kappa_p)
        for i, samples in enumerate(batch.samples):
            # q_tau = sqrt(2 pi kappa_p) * sum_k Q_k w_k dt
            expected = math.sqrt(TWOPI * dev.kappa_p) * np.sum(samples * w.w) * w.dt
            assert q[i] == pytest.approx(expected, rel=1e-12)
            assert integrate_row(samples, w, dev.kappa_p) == pytest.approx(
                expected, rel=1e-12)
        assert list(prep) == ["g"] * 5


class TestMixtureFit:
    def synth(self, rng, n, mu_g=-1.0, mu_e=1.0, sigma=0.3, ge_frac=0.0):
        q_g = rng.normal(mu_g, sigma, n // 2)
        swap = rng.random(n // 2) < ge_frac
        q_e = np.where(swap, rng.normal(mu_g, sigma, n // 2),
                       rng.normal(mu_e, sigma, n // 2))
        q = np.concatenate([q_g, q_e])
        prep = np.array(["g"] * (n // 2) + ["e"] * (n // 2))
        return q, prep

    def test_round_trip_clean(self):
        q, prep = self.synth(np.random.default_rng(1), 30000)
        fit, *_ = fit_shot_histograms(q, prep)
        assert fit.mu_g == pytest.approx(-1.0, abs=0.02)
        assert fit.mu_e == pytest.approx(1.0, abs=0.02)
        assert fit.sigma_g == pytest.approx(0.3, rel=0.02)
        assert fit.sigma_e == pytest.approx(0.3, rel=0.02)

    def test_symmetric_threshold_at_midpoint(self):
        q, prep = self.synth(np.random.default_rng(2), 30000)
        fit, *_ = fit_shot_histograms(q, prep)
        assert fit.threshold == pytest.approx(0.0, abs=0.03)
        assert min(fit.mu_g, fit.mu_e) < fit.threshold < max(fit.mu_g, fit.mu_e)

    def test_injected_transition_amplitude(self):
        q, prep = self.synth(np.random.default_rng(3), 30000, ge_frac=0.05)
        fit, *_ = fit_shot_histograms(q, prep)
        frac = fit.A_ge / (fit.A_ge + fit.A_ee)
        assert frac == pytest.approx(0.05, abs=0.01)

    def test_too_few_counts(self):
        centers = np.linspace(-2, 2, 60)
        counts = np.full(60, 5.0)
        with pytest.raises(FitError):
            fit_mixture(centers, counts, counts)

    def test_histogram_bins_minimum(self):
        q = np.random.default_rng(4).normal(size=500)
        edges = histogram_bins(q, min_bins=60)
        assert len(edges) >= 61

    def test_zero_noise_degenerate_branch(self):
        q = np.array([-1.0] * 2000 + [1.0] * 2000)
        prep = np.array(["g"] * 2000 + ["e"] * 2000)
        fit, *_ = fit_shot_histograms(q, prep)
        assert fit.threshold == pytest.approx(0.0)
        bud = error_budget(q, prep, fit)
        assert bud.fidelity == 1.0
        assert bud.eps_g == bud.eps_e == 0.0


def brentq_threshold(fit: MixtureFit) -> float:
    """Oracle: bracket the crossing of C_g and C_e between the means with
    brentq; the midpoint when C_g - C_e keeps its sign there."""
    from scipy.optimize import brentq

    a, b = sorted((fit.mu_g, fit.mu_e))
    if b - a <= 0.0:
        return a

    def diff(q):
        return fit.counts_g(q) - fit.counts_e(q)

    eps = 1e-9 * (b - a)
    qa, qb = a + eps, b - eps
    if diff(qa) * diff(qb) > 0:
        return 0.5 * (a + b)
    return float(brentq(diff, qa, qb))


def random_mixture(rng, equal_sigma=False, mirrored=False, ge_scale=0.1):
    """A two-Gaussian fit result; A_ge / A_gg is drawn up to ge_scale."""
    mu_g = rng.uniform(-2.0, 2.0)
    sigma_g = rng.uniform(0.2, 1.0)
    sigma_e = sigma_g if equal_sigma else rng.uniform(0.2, 1.0)
    sep = rng.uniform(0.5, 6.0) * max(sigma_g, sigma_e)
    A_gg, A_ee = rng.uniform(1e3, 1e4, 2)
    return MixtureFit(mu_g=mu_g, mu_e=mu_g - sep if mirrored else mu_g + sep,
                      sigma_g=sigma_g, sigma_e=sigma_e, A_gg=A_gg,
                      A_eg=rng.uniform(0.0, 0.1) * A_ee,
                      A_ge=rng.uniform(0.0, ge_scale) * A_gg, A_ee=A_ee,
                      threshold=0.0)


def sign_changes(fit, q):
    d = fit.counts_g(q) - fit.counts_e(q)
    return int(np.sum(np.sign(d[1:]) != np.sign(d[:-1])))


class TestThreshold:
    """The closed-form threshold against the brentq oracle."""

    @pytest.mark.parametrize("equal_sigma", [False, True])
    @pytest.mark.parametrize("mirrored", [False, True])
    def test_matches_brentq(self, equal_sigma, mirrored):
        rng = np.random.default_rng(100 + 2 * equal_sigma + mirrored)
        roots = 0
        for _ in range(60):
            fit = random_mixture(rng, equal_sigma, mirrored)
            a, b = sorted((fit.mu_g, fit.mu_e))
            got, want = _intersection_threshold(fit), brentq_threshold(fit)
            if want == 0.5 * (a + b):
                assert got == want
            else:
                roots += 1
                assert abs(got - want) <= 1e-9 * (b - a)
        assert roots >= 50

    def test_non_positive_weight_takes_midpoint(self):
        # A_ge >= A_gg: C_g - C_e = w_g N_g - w_e N_e with w_g <= 0 < w_e
        # never changes sign
        rng = np.random.default_rng(11)
        for k in range(60):
            fit = random_mixture(rng, mirrored=k % 2 == 1)
            fit.A_ge = fit.A_gg * (1.0 if k % 3 == 0 else rng.uniform(1.0, 2.0))
            midpoint = 0.5 * (fit.mu_g + fit.mu_e)
            assert _intersection_threshold(fit) == brentq_threshold(fit) == midpoint

    def test_no_sign_change_takes_midpoint(self):
        # means within 3 sigma of each other and w_g / w_e = 1e6: C_g > C_e
        # everywhere between the means
        rng = np.random.default_rng(12)
        for k in range(60):
            sigma_g, sigma_e = rng.uniform(0.2, 1.0, 2)
            if k % 3 == 0:
                sigma_e = sigma_g
            sep = rng.uniform(0.5, 3.0) * min(sigma_g, sigma_e)
            A_gg = rng.uniform(1e3, 1e4)
            fit = MixtureFit(mu_g=0.5, mu_e=0.5 + (sep if k % 2 else -sep),
                             sigma_g=sigma_g, sigma_e=sigma_e, A_gg=A_gg,
                             A_eg=0.0, A_ge=0.0, A_ee=1e-6 * A_gg, threshold=0.0)
            midpoint = 0.5 * (fit.mu_g + fit.mu_e)
            assert _intersection_threshold(fit) == brentq_threshold(fit) == midpoint

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_two_crossings_beyond_the_means_take_midpoint(self, mirrored):
        # sigma_e = sigma_g / 2, d = 1, log ratio 0.6: C_g and C_e cross
        # twice, both beyond mu_e, so not between the means
        sign = -1.0 if mirrored else 1.0
        fit = MixtureFit(mu_g=0.0, mu_e=sign, sigma_g=1.0, sigma_e=0.5,
                         A_gg=2.0 * math.exp(0.6) * 1e3, A_eg=0.0,
                         A_ge=0.0, A_ee=1e3, threshold=0.0)
        assert sign_changes(fit, np.linspace(-6.0, 6.0, 120001)) == 2
        assert sign_changes(fit, np.linspace(sign * 1e-9, sign * (1 - 1e-9),
                                             10001)) == 0
        assert _intersection_threshold(fit) == brentq_threshold(fit) == sign / 2

    def test_at_most_one_crossing_between_the_means(self):
        # the log ratio of the two terms is a parabola whose vertex
        # d sigma_g^2 / (sigma_g^2 - sigma_e^2) lies outside [0, d], so two
        # crossings between the means cannot occur
        rng = np.random.default_rng(13)
        for _ in range(60):
            fit = random_mixture(rng, mirrored=bool(rng.integers(2)),
                                 ge_scale=0.999)
            fit.A_eg = fit.A_ee * rng.uniform(0.0, 0.999)
            q = np.linspace(fit.mu_g, fit.mu_e, 20001)
            assert sign_changes(fit, q) <= 1
            want = brentq_threshold(fit)
            a, b = sorted((fit.mu_g, fit.mu_e))
            assert _intersection_threshold(fit) == pytest.approx(
                want, rel=0.0, abs=1e-9 * (b - a))

    def test_coincident_means(self):
        fit = MixtureFit(mu_g=0.3, mu_e=0.3, sigma_g=1.0, sigma_e=0.5,
                         A_gg=1e3, A_eg=1.0, A_ge=1.0, A_ee=1e3, threshold=0.0)
        assert _intersection_threshold(fit) == brentq_threshold(fit) == 0.3


class TestErrorBudget:
    def test_mirrored_orientation_is_exact(self):
        # q -> -q with every fitted position negated: the same comparisons
        # and the same tails, with normal tails as in ndtr
        rng = np.random.default_rng(14)
        fit = random_mixture(rng)
        fit.threshold = _intersection_threshold(fit)
        q = np.concatenate([rng.normal(fit.mu_g, fit.sigma_g, 5000),
                            rng.normal(fit.mu_e, fit.sigma_e, 5000)])
        prep = np.array(["g"] * 5000 + ["e"] * 5000)
        mirror = MixtureFit(**{**vars(fit), "mu_g": -fit.mu_g, "mu_e": -fit.mu_e,
                               "threshold": -fit.threshold})
        bud, bud2 = error_budget(q, prep, fit), error_budget(-q, prep, mirror)
        assert bud == bud2
        thr = fit.threshold
        wg = fit.A_gg / (fit.A_gg + fit.A_eg)
        we = fit.A_ee / (fit.A_ee + fit.A_ge)
        assert bud.eps_o_g == pytest.approx(
            wg * ndtr((fit.mu_g - thr) / fit.sigma_g), rel=1e-13)
        assert bud.eps_o_e == pytest.approx(
            we * ndtr((thr - fit.mu_e) / fit.sigma_e), rel=1e-13)
        assert bud.eps_g == np.mean(q[:5000] >= thr)
        assert bud.eps_e == np.mean(q[5000:] < thr)

    def test_identity_and_decomposition(self):
        rng = np.random.default_rng(5)
        q = np.concatenate([rng.normal(-1, 0.5, 20000),
                            rng.normal(1, 0.5, 20000)])
        prep = np.array(["g"] * 20000 + ["e"] * 20000)
        fit, *_ = fit_shot_histograms(q, prep)
        bud = error_budget(q, prep, fit)
        assert bud.fidelity == pytest.approx(1 - bud.eps_g - bud.eps_e, rel=1e-12)
        assert bud.eps_o == pytest.approx(bud.eps_o_g + bud.eps_o_e, rel=1e-12)
        # pure overlap case: empirical errors close to the analytic tails
        expected = 0.5 * erfc(1.0 / (0.5 * math.sqrt(2)))
        assert bud.eps_g == pytest.approx(expected, rel=0.2)
        assert bud.eps_o_g == pytest.approx(expected, rel=0.1)

    def test_affine_invariance(self):
        rng = np.random.default_rng(6)
        q = np.concatenate([rng.normal(-1, 0.4, 15000),
                            rng.normal(1, 0.4, 15000)])
        prep = np.array(["g"] * 15000 + ["e"] * 15000)
        fit, *_ = fit_shot_histograms(q, prep)
        bud = error_budget(q, prep, fit)
        a, b = -2.5, 0.7  # include a sign flip
        fit2, *_ = fit_shot_histograms(a * q + b, prep)
        bud2 = error_budget(a * q + b, prep, fit2)
        assert fit2.threshold == pytest.approx(a * fit.threshold + b, abs=0.02)
        assert bud2.fidelity == pytest.approx(bud.fidelity, abs=0.002)
        assert bud2.eps_g == pytest.approx(bud.eps_g, abs=0.002)
        assert bud2.eps_e == pytest.approx(bud.eps_e, abs=0.002)

    def test_t1_scaling_of_transition_error(self, gated_pulse):
        # excited-state transition error grows like 1 - exp(-tau/T1)
        results = {}
        for t1 in (7.6e-6, 3.8e-6):
            dev = make_device(T1=t1)
            cfg = ShotConfig(n_shots=30000, master_seed=13, p_thermal=0.0)
            recs = simulate_batch(dev, gated_pulse, cfg)
            times = np.arange(0.0, 160e-9, 0.5e-9)
            qt = mean_quadrature_traces(dev, gated_pulse, times)
            centers, idx = bin_grid(7)
            w = build_weights(centers, qt.q_g[idx], qt.q_e[idx], 56e-9, DT_BIN)
            q, prep = integrate_batch(recs, w, dev.kappa_p)
            fit, *_ = fit_shot_histograms(q, prep)
            results[t1] = error_budget(q, prep, fit)
        assert results[3.8e-6].fidelity < results[7.6e-6].fidelity
        ratio = results[3.8e-6].eps_t_e / results[7.6e-6].eps_t_e
        expected = (1 - math.exp(-56e-9 / 3.8e-6)) / (1 - math.exp(-56e-9 / 7.6e-6))
        assert ratio == pytest.approx(expected, rel=0.35)


class TestOverlapModel:
    def test_zero_signal(self):
        times = np.linspace(0, 100e-9, 201)
        trace = SignalTrace(times=times, values=np.zeros_like(times), model="QSS")
        assert overlap_model(trace, 0.66, 56e-9) == pytest.approx(1.0)

    def test_matched_filter_steady_state_identity(self):
        # constant S: eps_o = erfc(sqrt(eta/2) S_ss sqrt(tau) / 2)
        s_ss = qss_steady_signal(2.5, -7.9e6, 37.5e6)
        times = np.linspace(0, 200e-9, 401)
        trace = SignalTrace(times=times, values=np.full_like(times, s_ss),
                            model="QSS")
        tau, eta = 56e-9, 0.66
        filt = FilterConfig(amp_bandwidth=None, dt_bin=None)
        expected = erfc(math.sqrt(eta / 2.0) * s_ss * math.sqrt(tau))
        assert overlap_model(trace, eta, tau, filt) == pytest.approx(
            expected, rel=1e-9)

    def test_reference_point_with_composed_filter(self, reference_traces):
        _, trace, _ = reference_traces
        eps = overlap_model(trace, 0.66, 56e-9, FilterConfig())
        assert 0.0024 <= eps <= 0.0054

    def test_monotone_in_tau(self, reference_traces):
        _, trace, _ = reference_traces
        taus = np.arange(24e-9, 137e-9, 8e-9)
        eps = [overlap_model(trace, 0.66, tau, FilterConfig()) for tau in taus]
        assert np.all(np.diff(eps) < 0)

    def test_power_scaling_monotone(self, reference_traces):
        _, trace, _ = reference_traces
        grid = np.array([1.0, 2.0, 4.0, 8.0])
        eps = overlap_vs_power(trace, 0.66, 56e-9, 2.5, grid)
        assert np.all(np.diff(eps) < 0)

    def test_efficiency_ordering(self, reference_traces):
        _, trace, _ = reference_traces
        grid = np.array([1.0, 2.5, 5.0])
        lo = overlap_vs_power(trace, 0.66, 56e-9, 2.5, grid)
        hi = overlap_vs_power(trace, 1.0, 56e-9, 2.5, grid)
        assert np.all(hi < lo)

    def test_power_curve_consistent_with_single_point(self, reference_traces):
        _, trace, _ = reference_traces
        eps_curve = overlap_vs_power(trace, 0.66, 56e-9, 2.5, np.array([2.5]))
        eps_single = overlap_model(trace, 0.66, 56e-9)
        assert eps_curve[0] == pytest.approx(eps_single, rel=1e-12)


class TestMonteCarloAgreement:
    def test_overlap_matches_analytic(self, gated_pulse):
        # transitions disabled: empirical misassignment equals the analytic
        # overlap error within 3 binomial standard errors
        dev = make_device(T1=1.0)
        cfg = ShotConfig(n_shots=100000, master_seed=101, p_thermal=0.0)
        recs = simulate_batch(dev, gated_pulse, cfg)
        times = np.arange(0.0, 160e-9, 0.5e-9)
        trace = full_model_signal(dev, gated_pulse, times)
        qt = mean_quadrature_traces(dev, gated_pulse, times)
        centers, idx = bin_grid(17)
        filt = FilterConfig(amp_bandwidth=None, bin_mode="center")
        n_class = cfg.n_shots // 2
        for tau in (24e-9, 48e-9, 64e-9, 136e-9):
            w = build_weights(centers, qt.q_g[idx], qt.q_e[idx], tau, DT_BIN)
            q, prep = integrate_batch(recs, w, dev.kappa_p)
            fit, *_ = fit_shot_histograms(q, prep)
            bud = error_budget(q, prep, fit)
            eps_mc = bud.eps_g + bud.eps_e
            eps_th = overlap_model(trace, dev.eta, tau, filt)
            se = math.sqrt(2.0 * max(eps_th * (1 - eps_th), 1.0 / n_class)
                           / n_class)
            assert abs(eps_mc - eps_th) <= 3 * se
