import dataclasses
import math
from importlib import resources

import numpy as np
import pytest
from scipy.special import erfc, ndtr

from conftest import DT_BIN, bin_grid, make_device, sequential_least_squares
from fastreadout import analysis, cli, optimize
from fastreadout.analysis import (FilterConfig, MixtureFit,
                                  _intersection_threshold, _normal_pdf,
                                  build_weights, error_budget, fit_mixture,
                                  fit_shot_histogram_stack, fit_shot_histograms,
                                  histogram_bins, integrate_batch, overlap_model,
                                  overlap_vs_power)
from fastreadout.dynamics import (PulseEnvelope, SignalTrace, TWOPI,
                                  full_model_signal, mean_quadrature_traces,
                                  qss_steady_signal)
from fastreadout._lsq import LsqResult
from fastreadout.errors import ConfigError, FitError, NoSignalError
from fastreadout.optimize import power_tradeoff
from fastreadout.shots import ReadoutChain, ShotBatch, ShotConfig, simulate_batch


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
        with pytest.raises(ConfigError, match=r"^tau = 1e-06 s lies outside"):
            build_weights(centers, np.zeros(8), np.ones(8), 1e-6, DT_BIN)

    def test_tau_before_first_bin_centre(self):
        # no bin centre lies in [0, tau]: the weights once came out empty
        # and the error read as a signal the two states do not give
        centers, _ = bin_grid(8)
        with pytest.raises(ConfigError, match=r"^tau = 3e-09 s lies outside"):
            build_weights(centers, np.zeros(8), np.ones(8), 3e-9, DT_BIN)
        assert len(build_weights(centers, np.zeros(8), np.ones(8), 4e-9,
                                 DT_BIN).w) == 1


def integrate_row(samples, w, kappa_p):
    """q_tau of one shot, through a one-row record array."""
    q = integrate_batch(np.array([samples], dtype=float), w, kappa_p)
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
        with pytest.raises(ConfigError, match=r"^tau needs 7 bins"):
            integrate_row(np.zeros(3), w, 64.27e6)

    def test_batch_matches_single(self, reference_traces):
        dev, _, qt = reference_traces
        rng = np.random.default_rng(11)
        centers, idx = bin_grid(7)
        w = build_weights(centers, qt.q_g[idx], qt.q_e[idx], 56e-9, DT_BIN)
        records = rng.normal(size=(5, 7))
        q = integrate_batch(records, w, dev.kappa_p)
        for i, samples in enumerate(records):
            # q_tau = sqrt(2 pi kappa_p) * sum_k Q_k w_k dt
            expected = math.sqrt(TWOPI * dev.kappa_p) * np.sum(samples * w.w) * w.dt
            assert q[i] == pytest.approx(expected, rel=1e-12)
            assert integrate_row(samples, w, dev.kappa_p) == pytest.approx(
                expected, rel=1e-12)

    def test_rows_independent_of_the_batch(self, reference_traces):
        # analyze integrates a shot file in chunks: every chunking, single
        # rows included, gives the q of one batch bit for bit. Over all 17
        # bins, where a row-count dependent sum (a BLAS matrix-vector
        # product) changes last bits; at 7 bins it does not
        dev, _, qt = reference_traces
        centers, idx = bin_grid(17)
        w = build_weights(centers, qt.q_g[idx], qt.q_e[idx], 136e-9, DT_BIN)
        assert len(w.w) == 17
        # strided rows, as the columns of a parsed shot file
        samples = np.random.default_rng(12).normal(size=(301, 20))[:, 3:]
        whole = integrate_batch(samples, w, dev.kappa_p)
        for size in (1, 2, 7, 256):
            parts = [integrate_batch(rows, w, dev.kappa_p)
                     for rows in np.split(samples, range(size, 301, size))]
            assert np.array_equal(np.concatenate(parts), whole)


class TestMixtureFit:
    def synth(self, rng, n, mu_g=-1.0, mu_e=1.0, sigma=0.3, ge_frac=0.0):
        q_g = rng.normal(mu_g, sigma, n // 2)
        swap = rng.random(n // 2) < ge_frac
        q_e = np.where(swap, rng.normal(mu_g, sigma, n // 2),
                       rng.normal(mu_e, sigma, n // 2))
        q = np.concatenate([q_g, q_e])
        excited = np.repeat([False, True], n // 2)
        return q, excited

    def test_round_trip_clean(self):
        q, excited = self.synth(np.random.default_rng(1), 30000)
        fit, *_ = fit_shot_histograms(q, excited)
        assert fit.mu_g == pytest.approx(-1.0, abs=0.02)
        assert fit.mu_e == pytest.approx(1.0, abs=0.02)
        assert fit.sigma_g == pytest.approx(0.3, rel=0.02)
        assert fit.sigma_e == pytest.approx(0.3, rel=0.02)

    def test_symmetric_threshold_at_midpoint(self):
        q, excited = self.synth(np.random.default_rng(2), 30000)
        fit, *_ = fit_shot_histograms(q, excited)
        assert fit.threshold == pytest.approx(0.0, abs=0.03)
        assert min(fit.mu_g, fit.mu_e) < fit.threshold < max(fit.mu_g, fit.mu_e)

    def test_injected_transition_amplitude(self):
        q, excited = self.synth(np.random.default_rng(3), 30000, ge_frac=0.05)
        fit, *_ = fit_shot_histograms(q, excited)
        frac = fit.A_ge / (fit.A_ge + fit.A_ee)
        assert frac == pytest.approx(0.05, abs=0.01)

    def test_too_few_counts(self):
        centers = np.linspace(-2, 2, 60)
        counts = np.full(60, 5.0)
        with pytest.raises(FitError):
            fit_mixture(centers, counts, counts)

    def test_histogram_bins_minimum(self):
        q = np.random.default_rng(4).normal(size=500)
        edges = histogram_bins(q)
        assert len(edges) >= 61

    def test_histogram_bins_refuse_an_outlier_range(self):
        # one q far from the others would ask for ~1e8 bins, or for more
        # than numpy allows; an infinite range has no bin count
        q = np.random.default_rng(4).normal(size=4000)
        assert len(histogram_bins(q)) < 200
        for value, message in ((1e9, "histogram bins"), (1e300, "histogram bins"),
                               (-1.7e308, "histogram bins"), (np.inf, "not a finite"),
                               (np.nan, "not a finite")):
            q[100] = value
            with pytest.raises(FitError, match=message):
                histogram_bins(q)
        q[100], q[101] = 1.7e308, -1.7e308
        with pytest.raises(FitError, match="not a finite"):
            histogram_bins(q)

    def test_zero_noise_degenerate_branch(self):
        q = np.array([-1.0] * 2000 + [1.0] * 2000)
        excited = np.repeat([False, True], 2000)
        fit, *_ = fit_shot_histograms(q, excited)
        assert fit.threshold == pytest.approx(0.0)
        bud = error_budget(q, excited, fit)
        assert bud.fidelity == 1.0
        assert bud.eps_g == bud.eps_e == 0.0


REFERENCE_CONF = resources.files("fastreadout.data") / "reference.conf"


def oracle_cost(centers, counts_g, counts_e) -> float:
    """Oracle: the 8-parameter formulation fit_mixture solved before its
    amplitudes went closed-form, (mu_g, mu_e, sigma_g, sigma_e, A_gg, A_eg,
    A_ge, A_ee) in one bounded scipy.optimize.least_squares solve from the
    same start; returns its cost."""
    from scipy.optimize import least_squares

    n_g, n_e = float(np.sum(counts_g)), float(np.sum(counts_e))
    binw = centers[1] - centers[0]

    def robust_center(counts):
        cdf = np.cumsum(counts) / np.sum(counts)
        q25, med, q75 = np.interp([0.25, 0.5, 0.75], cdf, centers)
        return med, max((q75 - q25) / 1.349, binw / 2.0)

    (mu_g0, sig_g0), (mu_e0, sig_e0) = robust_center(counts_g), robust_center(counts_e)
    p0 = [mu_g0, mu_e0, sig_g0, sig_e0, 0.99 * n_g * binw, 0.01 * n_g * binw,
          0.01 * n_e * binw, 0.99 * n_e * binw]
    span = centers[-1] - centers[0]
    lo = [centers[0] - span] * 2 + [binw / 10.0] * 2 + [0.0] * 4
    hi = [centers[-1] + span] * 2 + [span] * 2 + [2 * n_g * binw] * 2 \
        + [2 * n_e * binw] * 2

    def resid(p):
        mg, me, sg, se, agg, aeg, age, aee = p
        pdf_g = _normal_pdf(centers, mg, sg)
        pdf_e = _normal_pdf(centers, me, se)
        return np.concatenate([agg * pdf_g + aeg * pdf_e - counts_g,
                               age * pdf_g + aee * pdf_e - counts_e])

    sol = least_squares(resid, p0, bounds=(lo, hi), max_nfev=2000)
    assert sol.success
    return sol.cost


def mixture_cost(fit: MixtureFit, centers, counts_g, counts_e) -> float:
    r = np.concatenate([fit.counts_g(centers) - counts_g,
                        fit.counts_e(centers) - counts_e])
    return 0.5 * float(r @ r)


def report_digits(q, excited) -> list[str]:
    """The numbers of analyze's report.txt as it prints them."""
    fit, *_ = fit_shot_histograms(q, excited)
    budget = error_budget(q, excited, fit)
    return [cli._fmt(v) for v in (*vars(budget).values(), *vars(fit).values())]


@pytest.fixture(scope="module")
def reference_q():
    """(q by integrate_batch's einsum, q by per-row np.dot, labels) of
    reference.conf's 1e5-shot runs at seeds 0-2."""
    out = []
    for seed in range(3):
        cfg = cli.resolve_config(str(REFERENCE_CONF),
                                 [f"seed={seed}", "n_shots=100000"])
        chain = ReadoutChain(cli.build_device(cfg), cli.build_pulse(cfg),
                             cli.build_shot_config(cfg))
        batch = chain.run(range(cfg["n_shots"]))
        weights = chain.weights(cfg["tau"])
        q = integrate_batch(batch.samples, weights, chain.device.kappa_p)
        scale = math.sqrt(TWOPI * chain.device.kappa_p) * weights.dt
        n = len(weights.w)
        q_dot = np.array([scale * np.dot(row[:n], weights.w)
                          for row in batch.samples])
        out.append((q, q_dot, batch.excited))
    return out


class TestSeparableFit:
    """fit_mixture's 4-parameter variable projection against the
    8-parameter oracle: a cost no higher than the oracle's, 1e-9 relative."""

    def test_reference_runs(self, reference_q):
        for q, _, excited in reference_q:
            fit, centers, hg, he = fit_shot_histograms(q, excited)
            assert mixture_cost(fit, centers, hg, he) \
                <= oracle_cost(centers, hg, he) * (1 + 1e-9)

    def test_report_digits_do_not_follow_the_last_ulp_of_q(self, reference_q):
        # a large share of the per-row dot products differ from the
        # einsum sums in the last bit
        for q, q_dot, excited in reference_q:
            assert np.count_nonzero(q != q_dot) > len(q) // 10
            assert report_digits(q, excited) == report_digits(q_dot, excited)

    def test_mixing_sweep_powers(self, monkeypatch):
        # the histograms of optimize --mode power under strong mixing
        seen = []
        solve = optimize.fit_shot_histogram_stack

        def recording(qs, excited):
            fits = solve(qs, excited)
            seen.extend(fits)
            return fits

        monkeypatch.setattr(optimize, "fit_shot_histogram_stack", recording)
        cfg = cli.resolve_config(str(REFERENCE_CONF), [])
        power_tradeoff(cli.build_device(cfg), ShotConfig(n_shots=10000),
                       (1.0, 1.5, 2.0, 2.5, 3.5, 5.0), cfg["tau"], mix_coeff=3e7)
        assert len(seen) == 6
        for fit, centers, hg, he in seen:
            assert mixture_cost(fit, centers, hg, he) \
                <= oracle_cost(centers, hg, he) * (1 + 1e-9)

    def test_random_mixtures(self):
        rng = np.random.default_rng(41)
        for _ in range(24):
            n = int(rng.integers(10000, 100000))
            sigma_g = rng.uniform(0.2, 1.0)
            sigma_e = sigma_g * math.exp(rng.uniform(-1.2, 1.2))
            sep = rng.uniform(0.5, 6.0) * max(sigma_g, sigma_e)
            eg, ge = rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.2)
            q_g = np.where(rng.random(n) < eg, rng.normal(sep, sigma_e, n),
                           rng.normal(0.0, sigma_g, n))
            q_e = np.where(rng.random(n) < ge, rng.normal(0.0, sigma_g, n),
                           rng.normal(sep, sigma_e, n))
            fit, centers, hg, he = fit_shot_histograms(
                np.concatenate([q_g, q_e]), np.repeat([False, True], n))
            assert mixture_cost(fit, centers, hg, he) \
                <= oracle_cost(centers, hg, he) * (1 + 1e-9)

    def test_amplitudes_meet_the_optimality_conditions(self):
        # at the fitted (mu, sigma), the gradient of each histogram's cost in
        # an amplitude is zero where the amplitude is positive and not
        # negative where it is zero; here A_eg = 0 and the others are not
        q, excited = TestMixtureFit().synth(np.random.default_rng(40), 30000,
                                         ge_frac=0.02)
        fit, centers, hg, he = fit_shot_histograms(q, excited)
        phi = np.column_stack([_normal_pdf(centers, fit.mu_g, fit.sigma_g),
                               _normal_pdf(centers, fit.mu_e, fit.sigma_e)])
        amps = np.array([[fit.A_gg, fit.A_ge], [fit.A_eg, fit.A_ee]])
        assert fit.A_eg == 0.0 and min(fit.A_gg, fit.A_ge, fit.A_ee) > 0.0
        for a, counts in zip(amps.T, (hg, he)):
            grad = phi.T @ (phi @ a - counts)
            tol = 1e-9 * (phi.T @ counts)
            assert np.all(np.where(a > 0.0, np.abs(grad) <= tol, grad >= -tol))

    def test_sigma_ratio_above_1e3_raises(self):
        # noise-free histograms of sigma_g = binw / 4 and sigma_e = 400 binw:
        # the fit finds them, and refuses the ratio
        centers = np.arange(4001.0)
        with pytest.raises(FitError, match="sigma ratio"):
            fit_mixture(centers, 5000.0 * _normal_pdf(centers, 1500.0, 0.25),
                        5000.0 * _normal_pdf(centers, 2500.0, 400.0))

    def test_boolean_labels_give_the_same_fit(self):
        # a list of Python bools, as ShotRecord views give them, and the
        # read-only array of a ShotBatch fit like the boolean array
        q, excited = TestMixtureFit().synth(np.random.default_rng(43), 20000,
                                            ge_frac=0.03)
        fit, *_ = fit_shot_histograms(q, excited)
        batch = ShotBatch(excited=excited, samples=q[:, None])
        for labels in (excited.tolist(), batch.excited):
            assert fit_shot_histograms(q, labels)[0] == fit
            assert error_budget(q, labels, fit) == error_budget(q, excited, fit)

    def test_text_labels_raise_type_error(self):
        # cast to bool, 'g' and 'e' would both read as excited
        q, excited = TestMixtureFit().synth(np.random.default_rng(43), 20000)
        fit, *_ = fit_shot_histograms(q, excited)
        text = np.where(excited, "e", "g")
        with pytest.raises(TypeError, match="boolean"):
            fit_shot_histograms(q, text)
        with pytest.raises(TypeError, match="boolean"):
            error_budget(q, text, fit)
        with pytest.raises(TypeError, match="boolean"):
            ShotBatch(excited=text, samples=q[:, None])


class TestStackedFit:
    """fit_shot_histogram_stack, whose mixture fits share one lockstep
    solve per bin count, against a loop of fit_shot_histograms whose
    fits run the sequential solver of before (conftest's oracle)."""

    N = 40000
    excited = np.arange(N) % 2 == 1

    def mixture_row(self, rng, outlier):
        """q of the N shots: a two-Gaussian mixture, and with outlier > 0
        1% of the shots spread uniformly over [-outlier, outlier], which
        widens the range and so the Freedman-Diaconis bin count."""
        n, excited = self.N, self.excited
        sg, se = rng.uniform(0.5, 1.0, 2)
        q = np.where(excited, rng.normal(rng.uniform(2.0, 5.0), se, n),
                     rng.normal(0.0, sg, n))
        flip = excited & (rng.random(n) < rng.uniform(0.0, 0.05))
        q[flip] = rng.normal(0.0, sg, np.count_nonzero(flip))
        far = rng.random(n) < (0.01 if outlier else 0.0)
        q[far] = rng.uniform(-outlier, outlier, np.count_nonzero(far))
        return q

    def failing_rows(self):
        """q rows whose fit fails, by name: a spike of g beside a broad e
        class, whose widths differ over 1e3 times; and a q that is not finite."""
        rng = np.random.default_rng(73)
        spike = np.where(self.excited, rng.normal(0.08, 1.0, self.N), 0.0)
        bins = self.mixture_row(rng, 0)
        bins[5] = np.inf
        return {"fit": spike, "bins": bins}

    def loop(self, monkeypatch, qs):
        """fit_shot_histograms row by row, its solves by the sequential
        oracle, each a stack of one."""
        def oracle(model, x0, bounds, max_nfev):
            (x0,) = x0
            lo, hi = (np.asarray(b)[0] for b in bounds)

            def one(x):
                r, jac = model(x[None])
                return r[0], lambda: jac()[0]
            x, cost, nfev, status, message = sequential_least_squares(
                one, x0, (lo, hi), max_nfev)
            return LsqResult(x[None], np.array([cost]), nfev, np.array([status]),
                             [message])

        with monkeypatch.context() as patch:
            patch.setattr(analysis, "least_squares", oracle)
            return [fit_shot_histograms(q, self.excited) for q in qs]

    def test_stack_equals_the_loop_bit_for_bit(self, monkeypatch):
        # unequal bin counts, several rows of one bin count, fits whose
        # histogram g takes the one-column amplitude fit, and a noise-free
        # row that bypasses the fit
        rng = np.random.default_rng(72)
        qs = [self.mixture_row(rng, outlier) for outlier in (0, 0, 0, 8, 8, 15, 30)]
        qs.insert(2, np.where(self.excited, 1.0, -1.0))
        stacks, solve = [], analysis.least_squares
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "least_squares",
                          lambda model, x0, **kw: stacks.append(len(x0))
                          or solve(model, x0, **kw))
            got = fit_shot_histogram_stack(np.array(qs), self.excited)
        want = self.loop(monkeypatch, qs)
        for (fit, *hists), (fit_1, *hists_1) in zip(got, want, strict=True):
            assert dataclasses.astuple(fit) == dataclasses.astuple(fit_1)
            assert all(np.array_equal(a, b) for a, b in zip(hists, hists_1))
        # one lockstep solve per bin count of the fitted rows
        bins = [len(centers) for i, (_, centers, *_) in enumerate(got) if i != 2]
        assert bins.count(60) >= 3 and len(set(bins)) >= 5
        assert sorted(stacks) == sorted(bins.count(n) for n in set(bins))
        assert sum(fit.A_eg == 0.0 for fit, *_ in got) >= 2
        assert got[2][0].sigma_g == 2e-9

    @pytest.mark.parametrize("order", [("good", "fit", "bins"),
                                       ("good", "bins", "fit"),
                                       ("fit", "degenerate", "bins")])
    def test_first_failing_row_raises_as_the_loop_does(self, monkeypatch, order):
        rows = {"good": self.mixture_row(np.random.default_rng(74), 0),
                "degenerate": np.where(self.excited, 1.0, -1.0),
                **self.failing_rows()}
        qs = [rows[name] for name in order]
        with pytest.raises(FitError) as loop:
            self.loop(monkeypatch, qs)
        with pytest.raises(FitError) as stack:
            fit_shot_histogram_stack(qs, self.excited)
        assert str(stack.value) == str(loop.value)
        first = min(order.index("fit"), order.index("bins"))
        assert ("sigma ratio" if order[first] == "fit" else "not a finite") \
            in str(stack.value)


def lstsq_jac(model, theta):
    """Oracle: the variable-projection Jacobian as it was computed with one
    np.linalg.lstsq projection per histogram, (I - P) dphi a, P onto the
    columns with a non-zero amplitude, the blocks stacked by np.vstack."""
    phi, dphi = model.densities(theta)
    blocks = []
    for a in model.amplitudes(theta).T:
        v = dphi * np.tile(a, 2)
        used = phi[:, a > 0.0]
        if used.shape[1]:
            v -= used @ np.linalg.lstsq(used, v, rcond=None)[0]
        blocks.append(v)
    return np.vstack(blocks)


class TestNormalColumns:
    """The Jacobian's Gram projection against lstsq, and one density
    evaluation per theta."""

    @staticmethod
    def histograms(rng, n_bins=120):
        """Bin centres and (mu, sigma) of two separated normals."""
        centers = np.linspace(-4.0, 8.0, n_bins)
        mu = np.array([rng.uniform(-1.0, 1.0), rng.uniform(3.0, 5.0)])
        sigma = rng.uniform(0.4, 1.2, 2)
        return centers, mu, sigma

    @staticmethod
    def assert_matches_oracle(model, theta):
        got, ref = model(theta)[1](), lstsq_jac(model, theta)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-12 * np.max(np.abs(ref)))

    def test_both_amplitudes_positive(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            centers, mu, sigma = self.histograms(rng)
            phi = _normal_pdf(centers[:, None], mu, sigma)
            counts = phi @ rng.uniform([[900.0, 20.0], [30.0, 800.0]],
                                       [[1100.0, 80.0], [90.0, 1200.0]])
            counts += rng.normal(0.0, 2.0, counts.shape)
            model = analysis.NormalColumns(centers, counts)
            theta = np.concatenate([mu, sigma]) * rng.uniform(0.97, 1.03, 4)
            assert np.all(model.amplitudes(theta) > 0.0)
            self.assert_matches_oracle(model, theta)

    def test_one_amplitude_zero_on_each_side(self):
        # a negative admixture of the other column: the first histogram
        # keeps only column 0, the second only column 1
        rng = np.random.default_rng(52)
        for _ in range(10):
            centers, mu, sigma = self.histograms(rng)
            phi = _normal_pdf(centers[:, None], mu, sigma)
            counts = phi @ np.array([[1000.0, -30.0], [-30.0, 1000.0]])
            model = analysis.NormalColumns(centers, counts)
            theta = np.concatenate([mu, sigma]) * rng.uniform(0.99, 1.01, 4)
            amps = model.amplitudes(theta)
            assert amps[1, 0] == amps[0, 1] == 0.0
            assert amps[0, 0] > 0.0 and amps[1, 1] > 0.0
            self.assert_matches_oracle(model, theta)

    def test_one_column_model_of_preselection(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            q_p = rng.normal(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 2.0), 5000)
            counts, edges = np.histogram(q_p, bins=70)
            model = analysis.NormalColumns(0.5 * (edges[:-1] + edges[1:]), counts)
            theta = np.array([np.median(q_p), np.std(q_p)]) \
                * rng.uniform(0.95, 1.05, 2)
            assert model.amplitudes(theta)[0, 0] > 0.0
            self.assert_matches_oracle(model, theta)

    def test_stale_key_recomputes(self):
        # an evaluation at theta_1 leaves theta_1's densities; the Jacobian
        # at theta_2 must not use them, nor theta_1's those of theta_2
        rng = np.random.default_rng(54)
        centers, mu, sigma = self.histograms(rng)
        counts = _normal_pdf(centers[:, None], mu, sigma) @ [[1000.0, 50.0],
                                                              [40.0, 900.0]]
        theta_1 = np.concatenate([mu, sigma])
        theta_2 = theta_1 * [1.01, 0.99, 1.02, 0.98]
        model = analysis.NormalColumns(centers, counts)
        resid_1, jac_1 = model(theta_1)
        _, jac_2 = model(theta_2)
        fresh = analysis.NormalColumns(centers, counts)
        assert np.array_equal(jac_2(), fresh(theta_2)[1]())
        assert np.array_equal(jac_1(), fresh(theta_1)[1]())
        assert np.array_equal(resid_1,
                              analysis.NormalColumns(centers, counts)(theta_1)[0])

    def test_densities_once_per_residual_evaluation(self, monkeypatch):
        calls = []
        densities = analysis.NormalColumns.densities
        monkeypatch.setattr(analysis.NormalColumns, "densities",
                            lambda self, theta: calls.append(1)
                            or densities(self, theta))
        q, excited = TestMixtureFit().synth(np.random.default_rng(55), 30000,
                                            ge_frac=0.02)
        edges = histogram_bins(q)
        centers = 0.5 * (edges[:-1] + edges[1:])
        counts = np.column_stack([np.histogram(q[excited == side], bins=edges)[0]
                                  for side in (False, True)])
        model = analysis.NormalColumns(centers, counts)
        sol = analysis.least_squares(model, [-0.9, 1.1, 0.35, 0.25],
                                     max_nfev=2000)
        assert sol.success
        assert 0 < len(calls) <= sol.nfev


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
        excited = np.repeat([False, True], 5000)
        mirror = MixtureFit(**{**vars(fit), "mu_g": -fit.mu_g, "mu_e": -fit.mu_e,
                               "threshold": -fit.threshold})
        bud, bud2 = error_budget(q, excited, fit), error_budget(-q, excited, mirror)
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
        excited = np.repeat([False, True], 20000)
        fit, *_ = fit_shot_histograms(q, excited)
        bud = error_budget(q, excited, fit)
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
        excited = np.repeat([False, True], 15000)
        fit, *_ = fit_shot_histograms(q, excited)
        bud = error_budget(q, excited, fit)
        a, b = -2.5, 0.7  # include a sign flip
        fit2, *_ = fit_shot_histograms(a * q + b, excited)
        bud2 = error_budget(a * q + b, excited, fit2)
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
            q = integrate_batch(recs.samples, w, dev.kappa_p)
            fit, *_ = fit_shot_histograms(q, recs.excited)
            results[t1] = error_budget(q, recs.excited, fit)
        assert results[3.8e-6].fidelity < results[7.6e-6].fidelity
        ratio = results[3.8e-6].eps_t_e / results[7.6e-6].eps_t_e
        expected = (1 - math.exp(-56e-9 / 3.8e-6)) / (1 - math.exp(-56e-9 / 7.6e-6))
        assert ratio == pytest.approx(expected, rel=0.35)


class TestOverlapModel:
    def test_zero_signal(self):
        times = np.linspace(0, 100e-9, 201)
        trace = SignalTrace(times=times, values=np.zeros_like(times))
        assert overlap_model(trace, 0.66, 56e-9) == pytest.approx(1.0)

    def test_matched_filter_steady_state_identity(self):
        # constant S: eps_o = erfc(sqrt(eta/2) S_ss sqrt(tau) / 2)
        s_ss = qss_steady_signal(2.5, -7.9e6, 37.5e6)
        times = np.linspace(0, 200e-9, 401)
        trace = SignalTrace(times=times, values=np.full_like(times, s_ss))
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

    def test_unknown_bin_mode_refused_when_built(self):
        # a caller's error, refused before any signal reaches the filter
        with pytest.raises(ValueError, match="unknown bin_mode 'boxcar'"):
            FilterConfig(bin_mode="boxcar")
        for mode in ("mean", "center"):
            assert FilterConfig(bin_mode=mode).bin_mode == mode


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
            q = integrate_batch(recs.samples, w, dev.kappa_p)
            fit, *_ = fit_shot_histograms(q, recs.excited)
            bud = error_budget(q, recs.excited, fit)
            eps_mc = bud.eps_g + bud.eps_e
            eps_th = overlap_model(trace, dev.eta, tau, filt)
            se = math.sqrt(2.0 * max(eps_th * (1 - eps_th), 1.0 / n_class)
                           / n_class)
            assert abs(eps_mc - eps_th) <= 3 * se
