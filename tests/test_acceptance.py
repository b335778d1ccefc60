"""End-to-end acceptance gate.

Each test checks one release criterion at its stated tolerance and prints a
single PASS/FAIL line. The criteria are ordered from pure arithmetic to full
Monte Carlo pipelines; the slowest (3 and 8) run about 10^5 shots each.
"""

import math
import time

import numpy as np
import pytest

from conftest import (DT_BIN, bin_grid, make_device, noisy_spectrum_pairs,
                      rk4_switching_fields, spectrum_fit_errors)
from fastreadout.analysis import (FilterConfig, build_weights, error_budget,
                                  fit_shot_histograms, integrate_batch,
                                  overlap_model)
from fastreadout.calib import (fit_transmission, phase_sensitive_efficiency,
                               total_efficiency)
from fastreadout.dynamics import (PulseEnvelope, TwoCavityModel,
                                  full_model_signal, mean_quadrature_traces)
from fastreadout.optimize import optimal_ratio_vs_tau
from fastreadout.shots import (ReadoutChain, ShotConfig, run_preselection,
                               simulate_batch)


@pytest.fixture
def report(capsys):
    """Emit one uncaptured PASS/FAIL line per criterion, then assert."""

    def _report(num: int, ok: bool, detail: str):
        with capsys.disabled():
            print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, detail

    return _report


@pytest.fixture(scope="module")
def reference():
    dev = make_device()
    pulse = PulseEnvelope(kind="gated", total_duration=160e-9)
    times = np.arange(0.0, 160e-9, 0.5e-9)
    trace = full_model_signal(dev, pulse, times)
    qt = mean_quadrature_traces(dev, pulse, times)
    return dev, pulse, times, trace, qt


def test_criterion_1_derived_parameters(report):
    t0 = time.perf_counter()
    dev = make_device()
    ok = (abs(dev.chi / -7.71e6 - 1.0) < 0.05
          and abs(dev.n_crit / 14.1 - 1.0) < 0.10
          and abs(dev.kappa_eff / 38.8e6 - 1.0) < 0.05
          and time.perf_counter() - t0 < 1.0)
    report(1, ok, f"chi={dev.chi/1e6:.3f} MHz, n_crit={dev.n_crit:.2f}, "
                  f"kappa_eff={dev.kappa_eff/1e6:.2f} MHz")


def test_criterion_2_overlap_error_model(reference, report):
    t0 = time.perf_counter()
    dev, _, _, trace, _ = reference
    eps = overlap_model(trace, dev.eta, 56e-9, FilterConfig())
    taus = np.arange(24e-9, 137e-9, 8e-9)
    curve = [overlap_model(trace, dev.eta, tau, FilterConfig()) for tau in taus]
    ok = (abs(eps - 0.0039) < 0.0015
          and bool(np.all(np.diff(curve) < 0))
          and time.perf_counter() - t0 < 10.0)
    report(2, ok, f"eps_o(56 ns)={100*eps:.3f}%, curve monotone decreasing")


def test_criterion_3_monte_carlo_vs_analytic(reference, report):
    t0 = time.perf_counter()
    _, pulse, _, _, _ = reference
    dev = make_device(T1=1.0)  # transitions disabled
    cfg = ShotConfig(n_shots=100000, master_seed=101, p_thermal=0.0)
    recs = simulate_batch(dev, pulse, cfg)
    times = np.arange(0.0, 160e-9, 0.5e-9)
    trace = full_model_signal(dev, pulse, times)
    qt = mean_quadrature_traces(dev, pulse, times)
    centers, idx = bin_grid(17)
    filt = FilterConfig(amp_bandwidth=None, bin_mode="center")
    n_class = cfg.n_shots // 2
    details, ok = [], True
    for tau in (24e-9, 48e-9, 64e-9, 136e-9):
        w = build_weights(centers, qt.q_g[idx], qt.q_e[idx], tau, DT_BIN)
        q = integrate_batch(recs.samples, w, dev.kappa_p)
        fit, *_ = fit_shot_histograms(q, recs.excited)
        bud = error_budget(q, recs.excited, fit)
        eps_mc = bud.eps_g + bud.eps_e
        eps_th = overlap_model(trace, dev.eta, tau, filt)
        se = math.sqrt(2.0 * max(eps_th * (1 - eps_th), 1.0 / n_class) / n_class)
        ok = ok and abs(eps_mc - eps_th) <= 3 * se
        details.append(f"{tau*1e9:.0f}ns {100*eps_mc:.2f}/{100*eps_th:.2f}%")
    ok = ok and time.perf_counter() - t0 < 120.0
    report(3, ok, "MC/analytic " + ", ".join(details))


def test_criterion_4_t1_error_budget(reference, report):
    # mixing during measurement is off; the thermal preparation population
    # stays at its default and is part of the excited-state budget
    dev, pulse, _, _, qt = reference
    cfg = ShotConfig(n_shots=100000, master_seed=55)
    recs = simulate_batch(dev, pulse, cfg)
    centers, idx = bin_grid(17)
    w = build_weights(centers, qt.q_g[idx], qt.q_e[idx], 56e-9, DT_BIN)
    q = integrate_batch(recs.samples, w, dev.kappa_p)
    fit, *_ = fit_shot_histograms(q, recs.excited)
    bud = error_budget(q, recs.excited, fit)
    expected = 1.0 - math.exp(-56e-9 / dev.T1)
    se = math.sqrt(expected * (1 - expected) / (cfg.n_shots // 2))
    ok = (abs(bud.eps_t_e - expected) <= 3 * se and bud.fidelity >= 0.975)
    report(4, ok, f"eps_t_e={100*bud.eps_t_e:.3f}% vs {100*expected:.3f}%, "
                  f"fidelity={100*bud.fidelity:.2f}%")


def test_criterion_5_optimal_ratio(report):
    t0 = time.perf_counter()
    dev = make_device()
    chi_a = 2.0 * math.pi * abs(dev.chi)
    r_long = optimal_ratio_vs_tau(dev, [20.0 / chi_a], model="qss")[0]
    r_short = optimal_ratio_vs_tau(dev, [2.0 / chi_a], model="qss")[0]
    taus = [4.5 / chi_a, 12.0 / chi_a]
    r_qss = optimal_ratio_vs_tau(dev, taus, model="qss")
    r_full = optimal_ratio_vs_tau(dev, taus, model="full")
    ok = (abs(r_long - 0.5) <= 0.005 and r_short < 0.45
          and bool(np.all(r_full < r_qss))
          and time.perf_counter() - t0 < 60.0)
    report(5, ok, f"ratio(chi*tau=20)={r_long:.3f}, ratio(2)={r_short:.3f}, "
                  f"full<qss on transient window")


def test_criterion_6_efficiency_calculus(report):
    eta_26 = phase_sensitive_efficiency(10 ** 1.97, 19.78)
    eta_35 = phase_sensitive_efficiency(10 ** (1.97 + 0.9), 19.78)  # +9 dB
    tot_26 = total_efficiency(eta_26, 0.75)
    tot_35 = total_efficiency(eta_35, 0.75)
    ok = (0.90 <= eta_26 <= 0.92 and 0.98 <= eta_35 <= 0.99
          and 0.66 <= tot_26 <= 0.69 and 0.74 <= tot_35 <= 0.75)
    report(6, ok, f"eta_amp={eta_26:.3f}/{eta_35:.3f}, "
                  f"eta_total={tot_26:.3f}/{tot_35:.3f}")


def test_criterion_7_spectrum_fit_round_trip(report):
    t0 = time.perf_counter()
    worst = 0.0
    for truth, omega, s_g, s_e in noisy_spectrum_pairs(23, 20):
        fit = fit_transmission(omega, s_g, s_e)
        worst = max(worst, max(spectrum_fit_errors(fit, truth)))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.01 and elapsed < 30.0
    report(7, ok, f"worst recovery error {100*worst:.2f}% over 20 noisy sets, "
                  f"{elapsed:.1f} s")


def test_criterion_8_preselection(reference, report):
    dev, pulse, _, _, _ = reference
    cfg = ShotConfig(n_shots=100000, master_seed=61, p_thermal=0.003,
                     preselect=True, measure_duration=160e-9)
    recs = simulate_batch(dev, pulse, cfg)
    _, rejected = run_preselection(recs)
    fracs = []
    for gamma_up in (0.0, 4e5):
        cfg_m = ShotConfig(n_shots=20000, master_seed=62, p_thermal=0.003,
                           gamma_mix_up=gamma_up, preselect=True,
                           measure_duration=160e-9)
        recs_m = simulate_batch(dev, pulse, cfg_m)
        fracs.append(run_preselection(recs_m)[1])
    ok = abs(rejected - 0.013) <= 0.0015 and fracs[1] > fracs[0]
    report(8, ok, f"rejection {100*rejected:.2f}% (target 1.3+-0.15%), "
                  f"monotone in mixing")


def test_criterion_9_property_suites(report):
    dev = make_device()
    pulse = PulseEnvelope(kind="gated", total_duration=160e-9)
    times = np.arange(0.0, 160e-9, 0.5e-9)

    # QSS closed form against a direct ODE solve
    exact = full_model_signal(dev, pulse, times)
    model = TwoCavityModel(dev)
    beta_g, beta_e = (rk4_switching_fields(model, s, [], pulse, times)[:, 1]
                      for s in (-1, +1))
    ode = math.sqrt(model.kappa_pa) * np.abs(beta_e - beta_g)
    qss_ode_ok = np.max(np.abs(exact.values - ode)) \
        <= 1e-6 * np.max(exact.values)

    # noise variance calibration 1/(4 eta)
    dev0 = make_device(n_drive=0.0, T1=1.0)
    cfg = ShotConfig(n_shots=40000, master_seed=9, p_thermal=0.0)
    recs = ReadoutChain(dev0, pulse, cfg).run(range(cfg.n_shots),
                                              np.zeros(cfg.n_shots, bool))
    centers, _ = bin_grid(17)
    w = build_weights(centers, np.zeros(17), np.ones(17), 136e-9, DT_BIN)
    q = integrate_batch(recs.samples, w, dev.kappa_p)
    var_ok = abs(np.var(q) * 4 * dev.eta - 1.0) < 0.05

    # mixture-fit round trip and affine threshold invariance
    rng = np.random.default_rng(3)
    qs = np.concatenate([rng.normal(-1, 0.3, 15000), rng.normal(1, 0.3, 15000)])
    excited = np.repeat([False, True], 15000)
    fit, *_ = fit_shot_histograms(qs, excited)
    fit2, *_ = fit_shot_histograms(2.0 * qs + 3.0, excited)
    mix_ok = (abs(fit.mu_g + 1.0) < 0.02 and abs(fit.mu_e - 1.0) < 0.02
              and abs(fit2.threshold - (2.0 * fit.threshold + 3.0)) < 0.05)

    # bit reproducibility
    a = simulate_batch(dev, pulse, ShotConfig(n_shots=10, master_seed=4))
    b = simulate_batch(dev, pulse, ShotConfig(n_shots=10, master_seed=4))
    det_ok = all(np.array_equal(x.samples, y.samples) for x, y in zip(a, b))

    ok = qss_ode_ok and var_ok and mix_ok and det_ok
    report(9, ok, f"ode={qss_ode_ok}, variance={var_ok}, mixture={mix_ok}, "
                  f"determinism={det_ok}")
