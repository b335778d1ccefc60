"""Calibration mathematics: transmission-spectrum model and fit, ac-Stark
photon-number calibration, and the measurement-efficiency calculus.

All frequencies are ordinary frequencies in Hz. The transmission expression
is homogeneous in the frequency unit, so ordinary and angular evaluation
give identical magnitudes up to the free overall scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._scipy import least_squares
from .errors import ConfigError, FitError


@dataclass
class SpectrumParams:
    """Shared parameters of the two-mode transmission model."""

    omega_p: float
    omega_r: float
    J: float
    chi: float
    Q_p: float
    gamma: float
    scale: float = 1.0

    @property
    def kappa_p(self) -> float:
        return self.omega_p / self.Q_p


def transmission(omega, p: SpectrumParams, qubit_state: str = "g"):
    """|S21| of the resonator/filter pair conditioned on the qubit state.

    |S21|_± = scale * | kappa_p / [ (gamma+kappa_p)/2 + i(omega_p - omega)
                                    + 2 J^2 / (gamma + 2i(omega_r ± chi - omega)) ] |

    with + for the excited and - for the ground state.
    """
    if qubit_state not in ("g", "e"):
        raise ConfigError(f"qubit_state must be 'g' or 'e', got {qubit_state!r}")
    if p.gamma < 0.0:
        raise ConfigError("gamma must be non-negative")
    sign = +1.0 if qubit_state == "e" else -1.0
    omega = np.asarray(omega, dtype=float)
    kappa_p = p.kappa_p
    denom = (
        0.5 * (p.gamma + kappa_p)
        + 1j * (p.omega_p - omega)
        + 2.0 * p.J ** 2 / (p.gamma + 2j * (p.omega_r + sign * p.chi - omega))
    )
    return p.scale * np.abs(kappa_p / denom)


def fit_transmission(omega, s21_g, s21_e,
                     p0: SpectrumParams | None = None) -> SpectrumParams:
    """Joint least-squares fit of both spectra to the shared two-mode model.

    The two spectra share (omega_p, omega_r, J, Q_p, gamma, scale) and differ
    only through ±chi. Raises FitError on non-convergence or when a
    parameter lands on a search bound.

    The default start takes omega_r and chi from the two notches: |S21|_g
    is smallest at omega_r - chi and |S21|_e at omega_r + chi.
    """
    omega = np.asarray(omega, dtype=float)
    s21_g = np.asarray(s21_g, dtype=float)
    s21_e = np.asarray(s21_e, dtype=float)
    if len(omega) < 10:
        raise FitError("need at least 10 frequency points")

    if p0 is None:
        mean = 0.5 * (s21_g + s21_e)
        center = float(np.sum(omega * mean) / np.sum(mean))
        span = float(omega[-1] - omega[0])
        notch_g = float(omega[np.argmin(s21_g)])
        notch_e = float(omega[np.argmin(s21_e)])
        p0 = SpectrumParams(
            omega_p=center, omega_r=0.5 * (notch_g + notch_e), J=0.1 * span,
            chi=0.5 * (notch_e - notch_g),
            Q_p=center / (0.25 * span), gamma=1e-4 * span,
            scale=float(np.max(mean)),
        )

    # internal vector scaled to O(1) for conditioning
    f0 = p0.omega_p
    u = f0 * 1e-2  # frequency unit for the small parameters

    def pack(p: SpectrumParams):
        return np.array([p.omega_p / f0, p.omega_r / f0, p.J / u, p.chi / u,
                         p.Q_p / 100.0, p.gamma / u, p.scale])

    def unpack(x) -> SpectrumParams:
        return SpectrumParams(omega_p=x[0] * f0, omega_r=x[1] * f0, J=x[2] * u,
                              chi=x[3] * u, Q_p=100.0 * x[4], gamma=x[5] * u,
                              scale=x[6])

    lo = np.array([0.5, 0.5, 1e-6, -50.0, 1e-3, 0.0, 1e-12])
    hi = np.array([1.5, 1.5, 50.0, 50.0, 1e3, 50.0, 1e12])

    def resid_abs(x):
        p = unpack(x)
        return np.concatenate([
            transmission(omega, p, "g") - s21_g,
            transmission(omega, p, "e") - s21_e,
        ])

    # relative residuals: the right weighting for multiplicative noise and
    # the only way the deep qubit-mode notch (which pins gamma) is not
    # swamped by the pass-band points
    floor_g = 1e-6 * float(np.max(s21_g))
    floor_e = 1e-6 * float(np.max(s21_e))

    def resid_rel(x):
        p = unpack(x)
        rg = (transmission(omega, p, "g") - s21_g) / np.maximum(s21_g, floor_g)
        re = (transmission(omega, p, "e") - s21_e) / np.maximum(s21_e, floor_e)
        return np.concatenate([rg, re])

    # stage 1 (absolute) pins the global shape from a rough start; stage 2
    # (relative) refines gamma via the notch depth. x_scale="jac": omega_p/f0
    # and omega_r/f0 move by ~1e-3 while the other entries move by O(1), so
    # unscaled trust-region steps crawl along the two frequencies
    pre = least_squares(resid_abs, np.clip(pack(p0), lo, hi), bounds=(lo, hi),
                        x_scale="jac", xtol=1e-14, ftol=1e-14, gtol=1e-14,
                        max_nfev=5000)
    if not pre.success:
        raise FitError(f"transmission fit did not converge: {pre.message}")
    sol = least_squares(resid_rel, pre.x, bounds=(lo, hi), x_scale="jac",
                        xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=5000)
    if not sol.success:
        raise FitError(f"transmission fit did not converge: {sol.message}")
    at_bound = np.any(np.isclose(sol.x, lo, rtol=0, atol=1e-12) |
                      np.isclose(sol.x, hi, rtol=0, atol=1e-12))
    if at_bound:
        raise FitError("transmission fit parameter landed on a search bound")
    return unpack(sol.x)


# ---------------------------------------------------------------------------
# ac-Stark photon-number calibration
# ---------------------------------------------------------------------------

@dataclass
class StarkFit:
    """Linear Stark-shift fit nu_q(P) = nu_q0 + 2 chi k P."""

    photons_per_watt: float
    nu_q0: float
    degenerate: bool


def stark_calibration(powers, qubit_freqs, chi: float,
                      max_rel_residual: float = 0.05) -> StarkFit:
    """Fit the linear qubit-frequency-vs-power law; slope per photon is 2 chi.

    Raises FitError when the residuals exceed max_rel_residual of the total
    frequency excursion (saturation / nonlinear regime). A zero fitted slope
    is returned with degenerate=True.
    """
    powers = np.asarray(powers, dtype=float)
    freqs = np.asarray(qubit_freqs, dtype=float)
    if len(powers) < 3:
        raise FitError("need at least 3 points for the Stark calibration")
    if chi == 0.0:
        raise ConfigError("chi must be nonzero")
    span = float(np.max(freqs) - np.min(freqs))
    if span == 0.0:
        return StarkFit(photons_per_watt=0.0, nu_q0=float(freqs[0]),
                        degenerate=True)
    slope, nu0 = np.polyfit(powers, freqs, 1)
    resid = freqs - (nu0 + slope * powers)
    if float(np.max(np.abs(resid))) > max_rel_residual * span:
        raise FitError("residuals too large: data outside the linear Stark regime")
    k = float(slope / (2.0 * chi))
    return StarkFit(photons_per_watt=k, nu_q0=float(nu0), degenerate=False)


# ---------------------------------------------------------------------------
# efficiency calculus
# ---------------------------------------------------------------------------

def phase_sensitive_efficiency(G0: float, n_hemt: float) -> float:
    """eta_phi_amp = (1 + n_hemt / (2 G0))^-1 for a phase-sensitive preamp."""
    if G0 < 1.0:
        raise ConfigError("G0 must be at least 1 (linear gain)")
    if n_hemt < 0.0:
        raise ConfigError("n_hemt must be non-negative")
    return 1.0 / (1.0 + n_hemt / (2.0 * G0))


def output_power(chi: float, J: float, kappa_p: float, n_drive: float) -> float:
    """Emitted readout power P_out = (chi/J)^2 kappa_p n_drive (photon flux)."""
    if J == 0.0:
        raise ConfigError("J must be nonzero")
    return (chi / J) ** 2 * kappa_p * n_drive


def total_efficiency(eta_phi_amp: float, eta_loss: float) -> float:
    """Total measurement efficiency eta = eta_phi_amp * eta_loss."""
    for name, v in (("eta_phi_amp", eta_phi_amp), ("eta_loss", eta_loss)):
        if not (0.0 < v <= 1.0):
            raise ConfigError(f"{name} must lie in (0, 1]")
    return eta_phi_amp * eta_loss


@dataclass
class EfficiencyReport:
    """Gain/noise inputs and the resulting efficiency chain."""

    G0: float
    n_hemt: float
    eta_phi_amp: float
    eta_loss: float
    eta_total: float


def efficiency_report(G0: float, n_hemt: float, eta_loss: float) -> EfficiencyReport:
    eta_amp = phase_sensitive_efficiency(G0, n_hemt)
    return EfficiencyReport(G0=G0, n_hemt=n_hemt, eta_phi_amp=eta_amp,
                            eta_loss=eta_loss,
                            eta_total=total_efficiency(eta_amp, eta_loss))
