"""Parameter-space sweeps: the optimal |chi/kappa_eff| ratio versus
integration time, signal families over (chi, ratio), the drive-power
tradeoff, and a design-constraint report.

Convention for the ratio sweeps: chi is held fixed and kappa_eff is varied.
In the full two-cavity model kappa_eff is steered through the coupling J at
fixed Q_p and filter frequency, J = sqrt(kappa_eff (omega_p
+ 4 delta_p^2 Q_p^2 / omega_p) / (4 Q_p)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import error_budget, fit_shot_histograms, integrate_batch, \
    overlap_vs_power
from .dynamics import TWOPI, PulseEnvelope, SignalTrace, full_model_signal, \
    integrated_rate, qss_signal
from .errors import ConfigError
from .params import DeviceParams
from .search import maximize_unimodal
from .shots import ReadoutChain, ShotConfig

#: mixing-rate coefficient (Hz): gamma_mix = MIX_COEFF * lambda * n_drive,
#: tuned so the simulated excess ground-state error is about 0.23% at the
#: reference operating point (n_drive = 2.5, tau = 56 ns)
DEFAULT_MIX_COEFF = 6.0e5


def _j_for_kappa_eff(kappa_eff: float, Q_p: float, omega_p: float,
                     delta_p: float) -> float:
    """Invert the kappa_eff formula for the resonator-filter coupling J."""
    return math.sqrt(kappa_eff * (omega_p + 4.0 * delta_p ** 2 * Q_p ** 2 / omega_p)
                     / (4.0 * Q_p))


def _qss_rate(n_drive: float, chi: float, kappa_eff: float, tau: float,
              n_steps: int = 1500) -> float:
    t = np.linspace(0.0, tau, n_steps + 1)
    return float(np.trapezoid(qss_signal(n_drive, chi, kappa_eff, t), t)
                 / math.sqrt(tau))


def _full_rate(device: DeviceParams, kappa_eff: float, tau: float) -> float:
    J = _j_for_kappa_eff(kappa_eff, device.Q_p, device.omega_p, device.delta_p)
    dev = replace(device, J=J)
    dt = 0.5e-9
    times = np.arange(0.0, tau + dt, dt)
    pulse = PulseEnvelope(kind="gated", total_duration=tau + 10e-9)
    trace = full_model_signal(dev, pulse, times)
    return integrated_rate(trace, tau)


def optimal_ratio_vs_tau(device: DeviceParams, tau_grid, model: str = "qss",
                         ratio_bounds=(0.02, 3.0)) -> np.ndarray:
    """|chi/kappa_eff| maximizing s(tau), per tau, at fixed chi.

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
        r_opt, _ = maximize_unimodal(objective, ratio_bounds[0], ratio_bounds[1],
                                     tol=1e-5)
        out[i] = r_opt
    return out


def signal_family(chi_list, ratio_list, t_grid, n_crit: float = 14.0,
                  drive_fraction: float = 0.2):
    """QSS signal traces S(t) for each (chi, ratio) pair.

    Drive power is tied to the dispersive scale as n_drive = drive_fraction
    * n_crit, keeping every family member at the same validity margin.
    Returns a dict keyed by (chi, ratio).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    n_drive = drive_fraction * n_crit
    out = {}
    for chi in chi_list:
        for ratio in ratio_list:
            kappa = abs(chi) / ratio
            out[(chi, ratio)] = SignalTrace(
                times=t_grid,
                values=qss_signal(n_drive, chi, kappa, t_grid),
                model="QSS",
            )
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
                   n_shots: int = 20000, master_seed: int = 0,
                   pulse: PulseEnvelope | None = None) -> list[PowerPoint]:
    """Analytic overlap error and Monte Carlo fidelity versus drive power.

    Mixing rates scale as mix_coeff * lambda(n) * n; pass mix_coeff=None to
    disable mixing. The eps_o column shares its code path with
    overlap_vs_power.
    """
    n_grid = np.asarray(n_grid, dtype=float)
    if np.any(n_grid <= 0.0):
        raise ConfigError("drive powers must be positive")
    if pulse is None:
        pulse = PulseEnvelope(kind="gated", total_duration=max(160e-9, tau + 24e-9))
    times = np.arange(0.0, pulse.total_duration, 0.5e-9)
    trace = full_model_signal(device, pulse, times)
    eps_curve = overlap_vs_power(trace, device.eta, tau, device.n_drive, n_grid)

    out = []
    for n, eps_o in zip(n_grid, eps_curve):
        dev_n = replace(device, n_drive=float(n))
        g_mix = 0.0 if mix_coeff is None else \
            mix_coeff * dev_n.lambda_mix * float(n)
        cfg = ShotConfig(n_shots=n_shots, master_seed=master_seed,
                         gamma_mix_up=g_mix, gamma_mix_down=g_mix)
        chain = ReadoutChain(dev_n, pulse, cfg)
        batch = chain.run(np.arange(n_shots))
        q, prep = integrate_batch(batch, chain.weights(tau), chain.device.kappa_p)
        fit, *_ = fit_shot_histograms(q, prep)
        budget = error_budget(q, prep, fit)
        out.append(PowerPoint(n_drive=float(n), eps_o=float(eps_o),
                              fidelity_mc=budget.fidelity,
                              gamma_mix=g_mix))
    return out


@dataclass
class ConstraintReport:
    """Pass/fail judgement of a design; the device owns chi, n_crit,
    kappa_eff and lambda_mix."""

    ratio_chi_kappa: float
    drive_fraction: float
    dispersive_ok: bool
    drive_ok: bool
    signal_ok: bool
    advice: str


def constraint_report(device: DeviceParams, target_tau: float | None = None,
                      n_crit_min: float = 10.0,
                      drive_fraction_max: float = 0.25) -> ConstraintReport:
    """Check a parameter set against the standard design constraints."""
    chi, n_crit, kappa_eff = device.chi, device.n_crit, device.kappa_eff
    frac = device.n_drive / n_crit if n_crit > 0 else math.inf
    ratio = abs(chi / kappa_eff) if kappa_eff > 0 else math.inf
    if target_tau is None:
        advice = "no target integration time given"
    elif TWOPI * abs(chi) * target_tau < 4.5:
        advice = ("short integration window (|chi| tau < 4.5): a larger "
                  "kappa_eff (ratio below 0.5) gains signal")
    else:
        advice = "long integration window: |chi/kappa_eff| = 0.5 is optimal"
    return ConstraintReport(
        ratio_chi_kappa=ratio, drive_fraction=frac,
        dispersive_ok=n_crit >= n_crit_min, drive_ok=frac <= drive_fraction_max,
        # advisory: chi below 1 kHz gives no contrast
        signal_ok=abs(chi) > 1e3, advice=advice,
    )
