"""Calibration mathematics: transmission-spectrum model and fit, ac-Stark
photon-number calibration, and the phase-sensitive amplifier efficiency.

All frequencies are ordinary frequencies in Hz. The transmission expression
is homogeneous in the frequency unit, so ordinary and angular evaluation
give identical magnitudes up to the free overall scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lsq import least_squares
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


def _denominator(omega, sign, p: SpectrumParams):
    """D and E of |S21| = scale kappa_p / |D|, with sign = -1 for g and
    +1 for e (a scalar or one sign per frequency):

    D = (gamma + kappa_p)/2 + i(omega_p - omega) + 2 J^2 / E,
    E = gamma + 2i(omega_r + sign chi - omega).
    """
    e = p.gamma + 2j * (p.omega_r + sign * p.chi - omega)
    d = 0.5 * (p.gamma + p.kappa_p) + 1j * (p.omega_p - omega) + 2.0 * p.J ** 2 / e
    return d, e


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
    denom, _ = _denominator(np.asarray(omega, dtype=float), sign, p)
    return p.scale * np.abs(p.kappa_p / denom)


def fit_transmission(omega, s21_g, s21_e) -> SpectrumParams:
    """Joint least-squares fit of both spectra to the shared two-mode model.

    The two spectra share (omega_p, omega_r, J, Q_p, gamma, scale) and differ
    only through ±chi: seven parameters in all. The points are taken in
    order of frequency (a stable sort), so a sweep from high to low
    frequency fits as the same rows in ascending order do. One
    relative-residual fit runs from a start that takes omega_r and chi from
    the two notches: |S21|_g is smallest at omega_r - chi and |S21|_e at
    omega_r + chi.
    Raises ConfigError for a non-finite frequency or |S21| and for a
    spectrum with no positive value, and FitError on non-convergence or
    when a parameter lands on a search bound.
    """
    omega = np.asarray(omega, dtype=float)
    s21_g = np.asarray(s21_g, dtype=float)
    s21_e = np.asarray(s21_e, dtype=float)
    if len(omega) < 10:
        raise FitError("need at least 10 frequency points")
    if not np.all(np.isfinite(omega)):
        raise ConfigError("a frequency is not a finite number")
    for state, s21 in (("g", s21_g), ("e", s21_e)):
        if not np.all(np.isfinite(s21)):
            raise ConfigError(f"an |S21| of the {state} spectrum is not a "
                              "finite number")
        if not np.any(s21 > 0.0):
            raise ConfigError(f"the {state} spectrum has no positive |S21|")
    order = np.argsort(omega, kind="stable")
    omega, s21_g, s21_e = omega[order], s21_g[order], s21_e[order]

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

    # relative residuals: the right weighting for multiplicative noise and
    # the only way the deep qubit-mode notch (which pins gamma) is not
    # swamped by the pass-band points; both spectra in one array, g first
    n = len(omega)
    omega2 = np.concatenate([omega, omega])
    sign = np.repeat([-1.0, 1.0], n)
    data = np.concatenate([s21_g, s21_e])
    weight = np.concatenate([np.maximum(s21_g, 1e-6 * float(np.max(s21_g))),
                             np.maximum(s21_e, 1e-6 * float(np.max(s21_e)))])
    # d(parameter)/d(x) of each packed entry
    units = np.array([f0, f0, u, u, 100.0, u, 1.0])

    def model(x):
        p = unpack(x)
        denom, e = _denominator(omega2, sign, p)

        def jac():
            # d|S21|/dθ = |S21| (dln kappa_p/dθ + dln scale/dθ - Re(dD/dθ / D))
            # with dD/d(omega_p) = 1/(2 Q_p) + i, dD/dQ_p = -kappa_p/(2 Q_p),
            # dD/dJ = 4J/E, dD/d(omega_r) = sign dD/dchi = -4i J^2/E^2 and
            # dD/dgamma = 1/2 - 2 J^2/E^2; one row per parameter, returned
            # as the (2n, 7) transpose
            g = 1.0 / denom
            h = g / e                        # 1 / (D E)
            k = h / e                        # 1 / (D E^2)
            rows = np.empty((7, 2 * n))
            rows[0] = 1.0 / p.omega_p - 0.5 / p.Q_p * g.real + g.imag
            rows[1] = -4.0 * p.J ** 2 * k.imag
            rows[2] = -4.0 * p.J * h.real
            rows[3] = sign * rows[1]
            rows[4] = 0.5 * p.kappa_p / p.Q_p * g.real - 1.0 / p.Q_p
            rows[5] = 2.0 * p.J ** 2 * k.real - 0.5 * g.real
            rows[6] = 1.0 / p.scale
            rows *= units[:, None]
            rows *= p.scale * p.kappa_p * np.abs(g) / weight
            return rows.T

        return (p.scale * np.abs(p.kappa_p / denom) - data) / weight, jac

    # omega_p/f0 and omega_r/f0 move by ~1e-3 while the other entries move
    # by O(1); Marquardt's diagonal scaling in _lsq keeps the steps along
    # the two frequencies from crawling
    sol = least_squares(model, pack(p0), bounds=(lo, hi), max_nfev=5000)
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


def stark_calibration(powers, qubit_freqs, chi: float) -> StarkFit:
    """Fit the linear qubit-frequency-vs-power law; slope per photon is 2 chi.

    Raises FitError when a residual exceeds 5 % of the total frequency
    excursion (saturation / nonlinear regime), and ConfigError for a power
    or frequency that is not finite and for powers that are all equal. Data
    with no excursion is returned with degenerate=True.
    """
    powers = np.asarray(powers, dtype=float)
    freqs = np.asarray(qubit_freqs, dtype=float)
    if len(powers) < 3:
        raise FitError("need at least 3 points for the Stark calibration")
    if chi == 0.0:
        raise ConfigError("chi must be nonzero")
    for name, values in (("power", powers), ("qubit frequency", freqs)):
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"a {name} is not a finite number")
    if np.max(powers) == np.min(powers):
        raise ConfigError(f"every power is {powers[0]:g} W; the fit needs "
                          "powers that differ")
    span = float(np.max(freqs) - np.min(freqs))
    if span == 0.0:
        return StarkFit(photons_per_watt=0.0, nu_q0=float(freqs[0]),
                        degenerate=True)
    slope, nu0 = np.polyfit(powers, freqs, 1)
    resid = freqs - (nu0 + slope * powers)
    if float(np.max(np.abs(resid))) > 0.05 * span:
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


def total_efficiency(eta_phi_amp: float, eta_loss: float) -> float:
    """Total measurement efficiency eta = eta_phi_amp * eta_loss."""
    for name, v in (("eta_phi_amp", eta_phi_amp), ("eta_loss", eta_loss)):
        if not (0.0 < v <= 1.0):
            raise ConfigError(f"{name} must lie in (0, 1]")
    return eta_phi_amp * eta_loss
