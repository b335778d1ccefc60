import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (DT_BIN, loop_trace, make_device, random_device,
                      rk4_switching_fields)
from fastreadout.dynamics import (PulseEnvelope, SignalTrace, TWOPI,
                                  TwoCavityModel, full_model_signal,
                                  integrated_rate, lo_rotation,
                                  mean_quadrature_traces, optimal_lo_phase,
                                  qss_signal, qss_steady_signal, to_sqrt_mhz)
from fastreadout.errors import ConfigError, PhotonCeilingError


def one_cavity_oracle(n_drive, chi, kappa_eff, times, step=0.05e-9):
    """Independent fixed-step RK4 of the driven one-cavity equations.

    d alpha_pm/dt = (-i (+-chi_a) - kappa_a/2) alpha_pm + drive, with the
    drive scaled so |alpha_ss|^2 = n_drive; returns S(t) on `times`.
    """
    chi_a = TWOPI * chi
    kappa_a = TWOPI * kappa_eff
    # common drive amplitude normalized so |alpha_ss|^2 = n_drive for both
    # qubit states (|lam| is the same for +-chi)
    drive = math.sqrt(n_drive) * math.hypot(0.5 * kappa_a, chi_a)
    out = {}
    for s in (+1, -1):
        lam = -1j * s * chi_a - 0.5 * kappa_a

        def f(y):
            return lam * y + drive

        y = 0.0 + 0.0j
        t = 0.0
        vals = []
        for target in times:
            while t < target - 1e-15:
                h = min(step, target - t)
                k1 = f(y)
                k2 = f(y + 0.5 * h * k1)
                k3 = f(y + 0.5 * h * k2)
                k4 = f(y + h * k3)
                y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                t += h
            vals.append(y)
        out[s] = np.array(vals)
    return np.sqrt(kappa_a) * np.abs(out[+1] - out[-1])


class TestQssSignal:
    def test_starts_at_zero(self):
        assert qss_signal(2.5, -7.9e6, 37.5e6, 0.0) == 0.0

    def test_steady_state_value(self):
        # S_ss for the reference operating point, in ordinary sqrt(MHz)
        s_inf = qss_signal(2.5, -7.9e6, 37.5e6, 5e-6)
        assert to_sqrt_mhz(s_inf) == pytest.approx(7.52, rel=1e-2)
        assert s_inf == pytest.approx(
            qss_steady_signal(2.5, -7.9e6, 37.5e6), rel=1e-6)

    def test_matches_ode_oracle_reference(self):
        times = np.linspace(0.0, 200e-9, 81)
        oracle = one_cavity_oracle(2.5, -7.9e6, 37.5e6, times)
        closed = qss_signal(2.5, -7.9e6, 37.5e6, times)
        assert np.allclose(closed[1:], oracle[1:], rtol=1e-6, atol=1e-8 * oracle[-1])

    def test_matches_ode_oracle_random_sets(self):
        rng = np.random.default_rng(42)
        times = np.linspace(0.0, 500e-9, 26)
        for _ in range(20):
            chi = rng.choice([-1, 1]) * rng.uniform(2e6, 15e6)
            kappa = abs(chi) * rng.uniform(1.0, 6.0)
            n = rng.uniform(0.5, 8.0)
            oracle = one_cavity_oracle(n, chi, kappa, times)
            closed = qss_signal(n, chi, kappa, times)
            scale = float(np.max(oracle))
            assert np.allclose(closed, oracle, rtol=1e-6, atol=1e-6 * scale)

    def test_equals_the_closed_form_bit_for_bit(self):
        # qss_signal is _qss_from_phases of _qss_phases: the same bits as
        # the expression written out in one piece, for a scalar kappa and a
        # (K, 1) row of them against t of shape (N,) and (K, N)
        def closed_form(n_drive, chi, kappa, t):
            t = np.asarray(t, dtype=float)
            r = chi / kappa
            sss = qss_steady_signal(n_drive, chi, kappa)
            damp = np.exp(-math.pi * kappa * t)
            bracket = np.abs(2.0 * r - damp * (np.sin(TWOPI * chi * t)
                                               + 2.0 * r * np.cos(TWOPI * chi * t)))
            return sss / (2.0 * abs(r)) * bracket

        rng = np.random.default_rng(29)
        for _ in range(10):
            n = rng.uniform(0.5, 8.0)
            chi = rng.choice([-1, 1]) * rng.uniform(2e6, 15e6)
            kappas = abs(chi) / rng.uniform(0.02, 3.0, size=(4, 1))
            t = np.linspace(0.0, rng.uniform(50e-9, 500e-9), 1501)
            rows = np.linspace(0.0, rng.uniform(50e-9, 500e-9, size=4), 1501,
                               axis=-1)
            for kappa, times in [(kappas[0, 0], t), (kappas[0, 0], rows),
                                 (kappas, t), (kappas, rows)]:
                got = qss_signal(n, chi, kappa, times)
                assert got.tobytes() == closed_form(n, chi, kappa, times).tobytes()

    def test_no_late_ringing(self):
        kappa = 37.5e6
        t = np.linspace(3.0 / kappa, 500e-9, 400)
        s = qss_signal(2.5, -7.9e6, kappa, t)
        s_ss = qss_steady_signal(2.5, -7.9e6, kappa)
        assert np.all(np.abs(s - s_ss) < 0.01 * s_ss)
        assert np.all(s >= 0.0)


class TestPulseEnvelope:
    def test_gated_forces_unit_boost(self):
        p = PulseEnvelope(kind="gated", boost_factor=3.0, total_duration=100e-9)
        assert p.boost_factor == 1.0

    def test_two_step_segments(self):
        p = PulseEnvelope(kind="two_step", amplitude=1.0, boost_factor=2.5,
                          boost_duration=4e-9, total_duration=100e-9)
        segs = p.segments()
        assert len(segs) == 2
        assert segs[0][2] == pytest.approx(2.5)
        assert segs[1][2] == pytest.approx(1.0)
        assert p.envelope(2e-9) == pytest.approx(2.5)
        assert p.envelope(50e-9) == pytest.approx(1.0)
        assert p.envelope(200e-9) == 0.0

    def test_invalid_kind_and_durations(self):
        with pytest.raises(ConfigError):
            PulseEnvelope(kind="ramp")
        with pytest.raises(ConfigError):
            PulseEnvelope(kind="two_step", boost_duration=200e-9,
                          total_duration=100e-9)

    @pytest.mark.parametrize("key,value", [
        ("amplitude", math.nan), ("amplitude", math.inf),
        ("boost_factor", math.nan), ("boost_factor", math.inf),
        ("total_duration", math.inf),
    ])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            PulseEnvelope(kind="two_step", **{key: value})


class TestFullModel:
    def test_steady_state_is_exact_nullspace(self, device):
        model = TwoCavityModel(device)
        for s in (-1, +1):
            xss = model.steady_state(s, model.eps0)
            resid = model._A[s] @ xss + model._b * model.eps0
            assert np.max(np.abs(resid)) < 1e-9 * np.max(np.abs(xss)) * abs(
                model.kappa_pa)

    def test_drive_normalization(self, device):
        # mean steady-state resonator photon number over both qubit states
        model = TwoCavityModel(device)
        n_mean = 0.5 * sum(abs(model.steady_state(s, model.eps0)[0]) ** 2
                           for s in (-1, +1))
        assert n_mean == pytest.approx(device.n_drive, rel=1e-9)

    def test_exact_matches_rk4(self, device, gated_pulse, fine_times):
        a = full_model_signal(device, gated_pulse, fine_times)
        model = TwoCavityModel(device)
        beta_g, beta_e = (rk4_switching_fields(model, s, [], gated_pulse,
                                               fine_times)[:, 1] for s in (-1, +1))
        b = math.sqrt(model.kappa_pa) * np.abs(beta_e - beta_g)
        scale = float(np.max(b))
        assert np.allclose(a.values, b, rtol=1e-7, atol=1e-7 * scale)

    def test_steady_state_matches_qss_within_2pct(self, device, gated_pulse):
        times = np.arange(0.0, 300e-9, 0.5e-9)
        pulse = PulseEnvelope(kind="gated", total_duration=400e-9)
        trace = full_model_signal(device, pulse, times)
        s_qss = qss_steady_signal(device.n_drive, device.chi, device.kappa_eff)
        assert trace.values[-1] == pytest.approx(s_qss, rel=0.02)

    def test_undriven_gives_zero(self, device, fine_times):
        pulse = PulseEnvelope(kind="gated", amplitude=0.0, total_duration=200e-9)
        trace = full_model_signal(device, pulse, fine_times)
        assert np.all(trace.values == 0.0)

    def test_signal_starts_at_zero(self, device, gated_pulse, fine_times):
        trace = full_model_signal(device, gated_pulse, fine_times)
        assert trace.values[0] <= 1e-9 * np.max(trace.values)
        assert np.all(trace.values >= 0.0)

    def test_two_step_reaches_steady_state_faster(self, device):
        times = np.arange(0.0, 200e-9, 0.5e-9)
        gated = PulseEnvelope(kind="gated", total_duration=250e-9)
        boosted = PulseEnvelope(kind="two_step", total_duration=250e-9)
        s_g = full_model_signal(device, gated, times).values
        s_b = full_model_signal(device, boosted, times).values
        target = 0.95 * s_g[-1]
        t95_g = times[np.argmax(s_g >= target)]
        t95_b = times[np.argmax(s_b >= target)]
        assert t95_g - t95_b >= 5e-9

    def test_linearity_in_amplitude(self, device, fine_times):
        p1 = PulseEnvelope(kind="gated", amplitude=1.0, total_duration=200e-9)
        p2 = PulseEnvelope(kind="gated", amplitude=0.5, total_duration=200e-9)
        s1 = full_model_signal(device, p1, fine_times).values
        s2 = full_model_signal(device, p2, fine_times).values
        assert np.allclose(s1, 2.0 * s2, rtol=1e-9, atol=1e-12)

    def test_exact_is_the_default_method(self, device, gated_pulse, fine_times):
        assert np.array_equal(
            full_model_signal(device, gated_pulse, fine_times).values,
            full_model_signal(device, gated_pulse, fine_times, method="exact").values)
        for method in ("rk4", "euler"):
            with pytest.raises(ConfigError):
                full_model_signal(device, gated_pulse, fine_times, method=method)

    def test_coarse_grid_rejected(self, device, gated_pulse):
        with pytest.raises(ConfigError, match="grid_step = 1e-09 s is coarser"):
            full_model_signal(device, gated_pulse, np.arange(0, 100e-9, 1e-9))
        with pytest.raises(ConfigError, match="at least two points"):
            full_model_signal(device, gated_pulse, np.zeros(1))

    def test_photon_ceiling(self, gated_pulse, fine_times):
        hot = make_device(n_drive=500.0)
        with pytest.raises(PhotonCeilingError):
            full_model_signal(hot, gated_pulse, fine_times)

    def test_non_finite_photon_number(self, device, gated_pulse, fine_times):
        # NaN compares false with the ceiling, so it is checked on its own
        model = TwoCavityModel(device)
        fields = model.trace([-1, +1], gated_pulse, fine_times)
        for bad in (math.nan, math.inf):
            fields[1, -1, 0] = bad
            with pytest.raises(PhotonCeilingError, match="not finite"):
                model.check_ceiling(fields)


class TestExactTrace:
    """TwoCavityModel.trace: one array expression for every sample."""

    @pytest.fixture
    def boosted(self):
        return PulseEnvelope(kind="two_step", boost_duration=4e-9,
                             total_duration=100e-9)

    @staticmethod
    def assert_close(got, ref, rtol):
        scale = float(np.max(np.abs(ref)))
        assert np.allclose(got, ref, rtol=rtol, atol=rtol * scale)

    def test_samples_on_drive_edges(self, device, boosted):
        # the 0.5 ns grid has samples on the pulse start, the end of the
        # boost (4 ns) and the pulse end (100 ns)
        model = TwoCavityModel(device)
        times = np.arange(0.0, 160e-9, 0.5e-9)
        for edge in (0.0, 4e-9, 100e-9):
            assert np.min(np.abs(times - edge)) <= 1e-15
        for s in (-1, +1):
            got = model.trace(s, boosted, times)
            assert np.all(np.isfinite(got))
            self.assert_close(got, loop_trace(model, s, boosted, times), 1e-13)
            ode = rk4_switching_fields(model, s, [], boosted, times)
            self.assert_close(got, ode, 1e-7)

    def test_single_sample_grid(self, device, boosted):
        model = TwoCavityModel(device)
        times = np.arange(0.0, 160e-9, 0.5e-9)
        for s in (-1, +1):
            full = model.trace(s, boosted, times)
            atol = 1e-12 * float(np.max(np.abs(full)))
            for k in (0, 8, 9, 100, 200, 250):
                one = model.trace(s, boosted, times[k:k + 1])
                assert one.shape == (1, 2)
                assert np.allclose(one[0], full[k], rtol=1e-12, atol=atol)
                ref = loop_trace(model, s, boosted, times[k:k + 1])
                assert np.allclose(one, ref, rtol=1e-13, atol=0.1 * atol)
        assert model.trace(-1, boosted, np.empty(0)).shape == (0, 2)

    def test_both_states_in_one_call(self, device, boosted):
        model = TwoCavityModel(device)
        times = np.arange(0.0, 160e-9, 0.5e-9)
        both = model.trace([-1, +1], boosted, times)
        assert both.shape == (2, len(times), 2)
        for row, s in enumerate((-1, +1)):
            assert np.array_equal(both[row], model.trace(s, boosted, times))

    def test_unsorted_times_rejected(self, device, boosted):
        # a sample past times[-1] would never be written
        with pytest.raises(ValueError, match="ascending"):
            TwoCavityModel(device).trace(-1, boosted, np.array([10e-9, 120e-9, 50e-9]))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_rk4_on_random_devices(self, seed):
        rng = np.random.default_rng(seed)
        model = TwoCavityModel(random_device(rng))
        duration = rng.uniform(40e-9, 100e-9)
        boost = rng.uniform(2e-9, 12e-9)
        pulses = [PulseEnvelope(kind="gated", total_duration=duration),
                  PulseEnvelope(kind="two_step", total_duration=duration,
                                boost_factor=rng.uniform(1.5, 3.0),
                                boost_duration=boost)]
        # random samples past the pulse end, plus samples on its edges
        times = np.sort(np.concatenate([rng.uniform(0.0, duration + 40e-9, 30),
                                        [0.0, boost, duration]]))
        for pulse in pulses:
            for s in (-1, +1):
                got = model.trace(s, pulse, times)
                self.assert_close(got, rk4_switching_fields(model, s, [], pulse, times),
                                  1e-7)


class TestStackedModel:
    """TwoCavityModel(device, J=couplings): one model per coupling, each
    equal bit for bit to the model of replace(device, J=J_k)."""

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_entries_equal_single_models(self, seed):
        device = make_device() if seed is None else \
            random_device(np.random.default_rng(seed))
        J = np.random.default_rng(seed).uniform(5e6, 60e6, 7)
        stack = TwoCavityModel(device, J)
        assert stack.shape == (7,) and stack.eps0.shape == (7,)
        pulse = PulseEnvelope(kind="two_step", boost_duration=4e-9,
                              total_duration=100e-9)
        times = np.arange(0.0, 160e-9, 0.5e-9)
        fields = stack.trace([-1, +1], pulse, times)
        assert fields.shape == (7, 2, len(times), 2)
        for k, j in enumerate(J.tolist()):
            one = TwoCavityModel(replace(device, J=j))
            assert stack.eps0[k] == one.eps0
            for name in ("_lam", "_V", "_Vi", "_x_unit"):
                assert np.array_equal(getattr(stack, name)[k], getattr(one, name))
            assert np.array_equal(stack._A[-1][k], one._A[-1])
            assert fields[k].tobytes() == one.trace([-1, +1], pulse, times).tobytes()

    def test_ceiling_per_model_prefix(self):
        # each model of a stack meets the ceiling on its first n[k] samples
        hot = make_device(n_drive=150.0)
        stack = TwoCavityModel(hot, [25e6, 25e6])
        times = np.arange(0.0, 30e-9, 0.5e-9)
        fields = stack.trace([-1, +1], PulseEnvelope(total_duration=40e-9), times)
        n = np.max(np.abs(fields[0, :, :, 0]) ** 2, axis=0)
        first = int(np.argmax(n > 100.0))
        assert 0 < first < len(times) - 1
        stack.check_ceiling(fields, [first, first])
        for counts in ([first + 1, first], [first, len(times)]):
            with pytest.raises(PhotonCeilingError, match="exceeds ceiling"):
                stack.check_ceiling(fields, counts)
        fields[1, 0, 3, 0] = math.nan
        with pytest.raises(PhotonCeilingError, match="not finite"):
            stack.check_ceiling(fields, [first, 4])


class TestMeanQuadratures:
    def test_contrast_matches_signal(self, device, gated_pulse, fine_times):
        # at the symmetric drive point the difference lies (almost) along a
        # single quadrature, so sqrt(kappa_pa)|Qe - Qg| reproduces S(t); the
        # residual 1e-3 slack covers the slight transient phase rotation
        qt = mean_quadrature_traces(device, gated_pulse, fine_times)
        trace = full_model_signal(device, gated_pulse, fine_times)
        model = TwoCavityModel(device)
        s_from_q = math.sqrt(model.kappa_pa) * np.abs(qt.q_e - qt.q_g)
        scale = float(np.max(trace.values))
        assert np.allclose(s_from_q, trace.values, rtol=1e-3, atol=1e-3 * scale)

    def test_excited_on_high_side(self, device, gated_pulse, fine_times):
        qt = mean_quadrature_traces(device, gated_pulse, fine_times)
        assert np.sum(qt.q_e - qt.q_g) > 0.0

    def test_mirror_symmetry_at_degenerate_point(self, fine_times):
        dev = make_device(omega_p=4.754e9)
        pulse = PulseEnvelope(kind="gated", total_duration=200e-9)
        beta_g, beta_e = TwoCavityModel(dev).trace([-1, +1], pulse, fine_times)[..., 1]
        # +-chi symmetry: the two responses are complex conjugate mirrors
        assert np.allclose(beta_e, np.conj(beta_g), rtol=1e-9, atol=1e-12)

    def test_settled_by_150ns(self, device):
        times = np.arange(0.0, 150.5e-9, 0.5e-9)
        pulse = PulseEnvelope(kind="gated", total_duration=300e-9)
        qt = mean_quadrature_traces(device, pulse, times)
        model = TwoCavityModel(device)
        for s, q in ((-1, qt.q_g), (+1, qt.q_e)):
            xss = model.steady_state(s, model.eps0)
            scale = abs(xss[1])
            assert abs(q[-1]) == pytest.approx(
                abs(np.real(np.exp(-1j * qt.phi_lo) * xss[1])), abs=0.01 * scale)


class TestIntegratedRate:
    def test_constant_signal(self):
        times = np.linspace(0.0, 100e-9, 201)
        trace = SignalTrace(times=times, values=np.full_like(times, 3.0))
        tau = 64e-9
        assert integrated_rate(trace, tau) == pytest.approx(
            3.0 * math.sqrt(tau), rel=1e-9)

    def test_small_ratio_wins_at_short_tau(self):
        chi = -7.9e6
        times = np.linspace(0.0, 50e-9, 2001)
        tau = 50e-9
        s = {}
        for ratio in (0.2, 0.5):
            trace = SignalTrace(times=times,
                                values=qss_signal(2.5, chi, abs(chi) / ratio,
                                                  times))
            s[ratio] = integrated_rate(trace, tau)
        assert s[0.2] > s[0.5]

    def test_asymptotic_slope_is_steady_state(self):
        chi, kappa = -7.9e6, 37.5e6
        times = np.linspace(0.0, 2e-6, 8001)
        trace = SignalTrace(times=times, values=qss_signal(2.5, chi, kappa, times))
        s_ss = qss_steady_signal(2.5, chi, kappa)
        # slope of the accumulated integral s(tau) sqrt(tau) between 1 and
        # 2 us equals the steady-state signal once the transient has passed
        area = {tau: integrated_rate(trace, tau) * math.sqrt(tau)
                for tau in (1e-6, 2e-6)}
        slope = (area[2e-6] - area[1e-6]) / 1e-6
        assert slope == pytest.approx(s_ss, rel=0.01)

    def test_tau_out_of_range(self, device, gated_pulse, fine_times):
        trace = full_model_signal(device, gated_pulse, fine_times)
        for tau, shown in ((1e-6, "1e-06"), (0.0, "0"),
                           (np.array([10e-9, 1e-6]), "1e-06")):
            with pytest.raises(ConfigError, match=f"^tau = {shown} s lies"):
                integrated_rate(trace, tau)

    def test_array_matches_per_point_trapezoid(self, device, gated_pulse,
                                               fine_times):
        # taus on, between and within 1e-15 s of the grid points, up to the
        # last one: each row equals the scalar call and a per-point
        # np.trapezoid over the points up to tau plus the interpolated end
        trace = full_model_signal(device, gated_pulse, fine_times)
        times, values = trace.times, trace.values
        rng = np.random.default_rng(12)
        taus = np.concatenate([times[1:], rng.uniform(0.0, times[-1], 200),
                               times[1::7] + 5e-16, times[1::7] - 5e-16])
        rates = integrated_rate(trace, taus)
        assert rates.shape == taus.shape
        for tau, rate in zip(taus.tolist(), rates.tolist()):
            t = times[times <= tau + 1e-15]
            v = values[:len(t)]
            if t[-1] < tau - 1e-15:
                t = np.append(t, tau)
                v = np.append(v, np.interp(tau, times, values))
            oracle = np.trapezoid(v, t) / math.sqrt(tau)
            assert rate == pytest.approx(oracle, rel=1e-12, abs=0.0)
            assert rate == pytest.approx(integrated_rate(trace, tau), rel=1e-12,
                                         abs=0.0)


    def test_stacked_signals_equal_single_calls(self, device, gated_pulse,
                                                fine_times):
        # one cumulative sum for a stack of signals: each row, at a scalar
        # tau and at an array, equals the call on that signal alone
        base = full_model_signal(device, gated_pulse, fine_times).values
        values = np.stack([base, 0.5 * base, base[::-1].copy()])
        trace = SignalTrace(times=fine_times, values=values)
        taus = np.array([3.2e-9, 50e-9, fine_times[-1]])
        rows = integrated_rate(trace, taus)
        assert rows.shape == (3, 3)
        assert integrated_rate(trace, 50e-9).shape == (3,)
        for v, row in zip(values, rows):
            one = SignalTrace(times=fine_times, values=v)
            assert row.tolist() == integrated_rate(one, taus).tolist()
            assert row[1] == integrated_rate(one, 50e-9)


class TestLoPhase:
    def test_recovers_known_phase(self):
        rng = np.random.default_rng(3)
        for phi_true in (0.1, 0.7, 1.5, 2.9):
            mags = rng.uniform(0.5, 2.0, 64)
            delta = mags * np.exp(1j * phi_true)
            phi = optimal_lo_phase(delta)
            assert phi == pytest.approx(phi_true % math.pi, abs=1e-6)

    def test_rotation_puts_excited_on_high_side(self):
        rng = np.random.default_rng(4)
        for phi_true in (0.1, 0.7, 1.5, 2.9):
            for sign in (1.0, -1.0):
                delta = sign * rng.uniform(0.5, 2.0, 64) * np.exp(1j * phi_true)
                phi, rot = lo_rotation(delta)
                assert phi == optimal_lo_phase(delta)
                assert rot == pytest.approx(sign * np.exp(-1j * phi_true), abs=1e-6)
                assert np.sum(np.real(rot * delta)) > 0.0

    @staticmethod
    def contrast(phi, delta):
        phi = np.asarray(phi, dtype=float)[..., None]
        return np.sum(np.abs(np.real(np.exp(-1j * phi) * delta)), axis=-1)

    def test_no_scanned_phase_beats_closed_form(self):
        # the closed form is the exact maximum: no phase of a dense scan gives
        # more contrast, also with zero entries, one entry or all zeros
        rng = np.random.default_rng(5)
        cases = [rng.normal(size=n) + 1j * rng.normal(size=n)
                 for n in rng.integers(1, 40, 60)]
        for z in cases[::3]:
            z[rng.random(len(z)) < 0.3] = 0.0
        cases += [np.array([0.3 - 2j]), np.array([-1j]), np.array([0j]),
                  np.zeros(5, dtype=complex)]
        phis = np.linspace(0.0, math.pi, 20001)
        for delta in cases:
            phi = optimal_lo_phase(delta)
            assert 0.0 <= phi <= math.pi
            best = float(np.max(self.contrast(phis, delta)))
            assert self.contrast(phi, delta) >= best * (1.0 - 1e-13)
        assert optimal_lo_phase(np.zeros(5, dtype=complex)) == 0.0

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])
    def test_stable_under_last_bit_changes(self, seed, gated_pulse):
        # a 1e-15 relative change of the fields moves the phase by rounding
        # only, so a refactor that moves fields in the last bit keeps phi_LO
        dev = make_device() if seed is None else \
            random_device(np.random.default_rng(seed))
        centers = (np.arange(20) + 0.5) * DT_BIN
        beta = TwoCavityModel(dev).trace([-1, +1], gated_pulse, centers)[..., 1]
        delta = beta[1] - beta[0]
        phi = optimal_lo_phase(delta)
        rng = np.random.default_rng(11)
        for _ in range(20):
            nudge = 1.0 + 1e-15 * rng.uniform(-1.0, 1.0, len(delta))
            moved = optimal_lo_phase(delta * nudge)
            # distance modulo pi, so a wrap at 0 / pi counts as a small move
            assert abs((moved - phi + 0.5 * math.pi) % math.pi - 0.5 * math.pi) <= 1e-13
