"""Parameter-space sweeps: the optimal |chi/kappa_eff| ratio versus
integration time (`optimize --mode ratio`) and the drive-power tradeoff
(`optimize --mode power`).

Convention for the ratio sweeps: chi is held fixed and kappa_eff is varied.
In the full two-cavity model kappa_eff is steered through the coupling J at
fixed Q_p and filter frequency, J = sqrt(kappa_eff (omega_p
+ 4 delta_p^2 Q_p^2 / omega_p) / (4 Q_p)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import error_budget, fit_shot_histograms, overlap_vs_power
from .dynamics import GRID_STEP, PulseEnvelope, full_model_signal, \
    integrated_rate, qss_signal
from .errors import ConfigError
from .params import DeviceParams
from .shots import ReadoutChain, ShotConfig, check_jumps, sample_count, \
    window_bins

#: mixing-rate coefficient (Hz): gamma_mix = MIX_COEFF * lambda * n_drive,
#: tuned so the simulated excess ground-state error is about 0.23% at the
#: reference operating point (n_drive = 2.5, tau = 56 ns)
DEFAULT_MIX_COEFF = 6.0e5

#: |chi/kappa_eff| interval searched by optimal_ratio_vs_tau
RATIO_BOUNDS = (0.02, 3.0)
#: trapezoid steps of the closed-form rate
_QSS_STEPS = 1500
#: points of the pre-scan, and of the dense scan that replaces it when it
#: finds several separated maxima
_N_SCAN, _N_FALLBACK = 17, 400
#: golden-section stop: bracket width relative to the start, and most steps
_TOL, _MAX_ITER = 1e-5, 200

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(f, lo: float, hi: float):
    """Golden-section search for the argmax of a unimodal function on
    [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    width0 = b - a
    for _ in range(_MAX_ITER):
        if b - a <= _TOL * width0:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return c if fc > fd else d


def _maximize(f, lo: float, hi: float):
    """Argmax of f on [lo, hi]: a pre-scan, then golden-section refinement
    around its best point."""
    for n in (_N_SCAN, _N_FALLBACK):
        xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
        fs = [f(x) for x in xs]
        peaks = [i for i in range(1, n - 1)
                 if fs[i] >= fs[i - 1] and fs[i] >= fs[i + 1]]
        if len(peaks) <= 1:
            break
    best = max(range(n), key=fs.__getitem__)
    return _golden_section_max(f, xs[max(best - 1, 0)], xs[min(best + 1, n - 1)])


def _j_for_kappa_eff(kappa_eff: float, Q_p: float, omega_p: float,
                     delta_p: float) -> float:
    """Invert the kappa_eff formula for the resonator-filter coupling J."""
    return math.sqrt(kappa_eff * (omega_p + 4.0 * delta_p ** 2 * Q_p ** 2 / omega_p)
                     / (4.0 * Q_p))


def _qss_rate(n_drive: float, chi: float, kappa_eff: float, tau: float) -> float:
    t = np.linspace(0.0, tau, _QSS_STEPS + 1)
    return float(np.trapezoid(qss_signal(n_drive, chi, kappa_eff, t), t)
                 / math.sqrt(tau))


def _full_rate(device: DeviceParams, kappa_eff: float, tau: float) -> float:
    J = _j_for_kappa_eff(kappa_eff, device.Q_p, device.omega_p, device.delta_p)
    dev = replace(device, J=J)
    times = np.arange(0.0, tau + GRID_STEP, GRID_STEP)
    pulse = PulseEnvelope(kind="gated", total_duration=tau + 10e-9)
    trace = full_model_signal(dev, pulse, times)
    return integrated_rate(trace, tau)


def optimal_ratio_vs_tau(device: DeviceParams, tau_grid,
                         model: str = "qss") -> np.ndarray:
    """|chi/kappa_eff| in RATIO_BOUNDS maximizing s(tau), per tau, at fixed
    chi.

    model 'qss' uses the closed-form single-cavity signal; 'full' re-solves
    the two-cavity model with J adjusted to realize each candidate
    kappa_eff.
    """
    if model not in ("qss", "full"):
        raise ConfigError(f"unknown model {model!r}")
    chi = device.chi
    tau_grid = np.asarray(tau_grid, dtype=float)
    out = np.empty(len(tau_grid))
    for i, tau in enumerate(tau_grid):
        if model == "qss":
            def objective(r):
                return _qss_rate(device.n_drive, chi, abs(chi) / r, tau)
        else:
            def objective(r):
                return _full_rate(device, abs(chi) / r, tau)
        out[i] = _maximize(objective, *RATIO_BOUNDS)
    return out


@dataclass
class PowerPoint:
    """One row of the drive-power tradeoff table."""

    n_drive: float
    eps_o: float
    fidelity_mc: float
    gamma_mix: float


def power_tradeoff(device: DeviceParams, n_grid, tau: float,
                   mix_coeff: float | None = DEFAULT_MIX_COEFF,
                   n_shots: int = 20000, master_seed: int = 0) -> list[PowerPoint]:
    """Analytic overlap error and Monte Carlo fidelity versus drive power,
    with a gated pulse of max(160 ns, tau + 24 ns). Each power's chain
    draws its shots' q in q space (ReadoutChain.sample_q).

    Mixing rates scale as mix_coeff * lambda(n) * n; pass mix_coeff=None to
    disable mixing. The eps_o column is overlap_vs_power's, which checks
    the drive powers; the mean qubit jumps of every power are checked
    before any chain is built.
    """
    n_grid = np.asarray(n_grid, dtype=float)
    mix = 0.0 if mix_coeff is None else mix_coeff
    if mix < 0.0:
        raise ConfigError("mix_coeff must be non-negative")
    pulse = PulseEnvelope(kind="gated", total_duration=max(160e-9, tau + 24e-9))
    sample_count(np.ceil(pulse.total_duration / GRID_STEP), f"tau = {tau:g} s",
                 f"points of the {GRID_STEP:g} s grid")
    times = np.arange(0.0, pulse.total_duration, GRID_STEP)
    trace = full_model_signal(device, pulse, times)
    eps_curve = overlap_vs_power(trace, device.eta, tau, device.n_drive, n_grid)
    cfgs = []
    for n in n_grid:
        dev_n = replace(device, n_drive=float(n))
        g_mix = mix * dev_n.lambda_mix * float(n)
        cfg = ShotConfig(n_shots=n_shots, master_seed=master_seed,
                         gamma_mix_up=g_mix, gamma_mix_down=g_mix)
        check_jumps(dev_n, cfg,
                    {"measurement window": window_bins(pulse, cfg) * cfg.dt_bin},
                    f"mix_coeff = {mix:g} Hz at n_drive = {n:g} of power_grid: ")
        cfgs.append((dev_n, cfg))

    out = []
    for n, eps_o, (dev_n, cfg) in zip(n_grid, eps_curve, cfgs):
        chain = ReadoutChain(dev_n, pulse, cfg)
        q, excited = chain.sample_q(range(n_shots), tau)
        fit, *_ = fit_shot_histograms(q, excited)
        budget = error_budget(q, excited, fit)
        out.append(PowerPoint(n_drive=float(n), eps_o=float(eps_o),
                              fidelity_mc=budget.fidelity,
                              gamma_mix=cfg.gamma_mix_up))
    return out
