"""Single-shot discrimination pipeline and the analytic overlap-error model.

The integrated readout quadrature is q_tau = sqrt(kappa_pa) * sum_k Q_k w_k dt
with the mode-matched weight w propto |<Q_e> - <Q_g>| normalized to
sum_k w_k^2 dt = 1 (discrete L2 norm, matching the discrete sum used for
q_tau). With the shot generator's per-bin noise this makes Var[q_tau] =
1/(4 eta) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TWOPI, SignalTrace
from ._scipy import least_squares
from .errors import FitError, NoSignalError, TauRangeError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _normal_pdf(q, mu, sigma):
    """Density of N(mu, sigma^2) at q."""
    z = (np.asarray(q, dtype=float) - mu) / sigma
    return np.exp(-z ** 2 / 2.0) / _SQRT_2PI / sigma


def _normal_sf(z: float) -> float:
    """Upper tail P(Z > z) of the standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# weights and integration
# ---------------------------------------------------------------------------

@dataclass
class WeightFunction:
    """Mode-matched integration weight on a uniform grid of step dt, unit L2 norm."""

    times: np.ndarray
    w: np.ndarray
    dt: float


def build_weights(times, mean_g, mean_e, tau: float, dt: float) -> WeightFunction:
    """w(t) = |<Q_e> - <Q_g>| on [0, tau], rescaled to unit discrete L2 norm.

    `times` is a uniform grid of step dt; a single sample is allowed.
    """
    times = np.asarray(times, dtype=float)
    diff = np.abs(np.asarray(mean_e, dtype=float) - np.asarray(mean_g, dtype=float))
    if tau > times[-1] + dt:
        raise TauRangeError(f"tau = {tau:g} s beyond trace support")
    mask = times <= tau + 1e-15
    w = diff[mask]
    norm2 = float(np.sum(w * w) * dt)
    if norm2 <= 0.0:
        raise NoSignalError("ground and excited mean traces are identical")
    return WeightFunction(times=times[mask], w=w / math.sqrt(norm2), dt=float(dt))


def integrate_batch(batch, weights: WeightFunction, kappa_p: float):
    """q_tau = sqrt(2 pi kappa_p) * sum Q_k w_k dt for every row of a
    ShotBatch, as one matrix-vector product; returns (q values, preparation
    labels)."""
    n = len(weights.w)
    if batch.n_bins < n:
        raise TauRangeError("shot record does not cover the weight support")
    scale = math.sqrt(TWOPI * kappa_p) * weights.dt
    return scale * (batch.samples[:, :n] @ weights.w), batch.prep


# ---------------------------------------------------------------------------
# double-Gaussian mixture fit
# ---------------------------------------------------------------------------

@dataclass
class MixtureFit:
    """Shared two-Gaussian model of the prepared-g and prepared-e histograms.

    C_g(q) = A_gg N(mu_g, sigma_g) + A_eg N(mu_e, sigma_e)
    C_e(q) = A_ge N(mu_g, sigma_g) + A_ee N(mu_e, sigma_e)
    """

    mu_g: float
    mu_e: float
    sigma_g: float
    sigma_e: float
    A_gg: float
    A_eg: float
    A_ge: float
    A_ee: float
    threshold: float

    def counts_g(self, q):
        return (self.A_gg * _normal_pdf(q, self.mu_g, self.sigma_g)
                + self.A_eg * _normal_pdf(q, self.mu_e, self.sigma_e))

    def counts_e(self, q):
        return (self.A_ge * _normal_pdf(q, self.mu_g, self.sigma_g)
                + self.A_ee * _normal_pdf(q, self.mu_e, self.sigma_e))


def histogram_bins(q: np.ndarray, min_bins: int = 60) -> np.ndarray:
    """Freedman-Diaconis bin edges on pooled data, at least `min_bins` bins."""
    q = np.asarray(q, dtype=float)
    lo, hi = float(np.min(q)), float(np.max(q))
    if hi <= lo:
        hi = lo + 1.0
    iqr = float(np.subtract(*np.percentile(q, [75, 25])))
    width = 2.0 * iqr / len(q) ** (1.0 / 3.0) if iqr > 0 else 0.0
    n_bins = int(np.ceil((hi - lo) / width)) if width > 0 else min_bins
    n_bins = max(n_bins, min_bins)
    return np.linspace(lo, hi, n_bins + 1)


def fit_mixture(centers, counts_g, counts_e, max_nfev: int = 2000) -> MixtureFit:
    """Simultaneous least-squares fit of both histograms to the shared model."""
    centers = np.asarray(centers, dtype=float)
    counts_g = np.asarray(counts_g, dtype=float)
    counts_e = np.asarray(counts_e, dtype=float)
    n_g = float(np.sum(counts_g))
    n_e = float(np.sum(counts_e))
    if n_g < 1000 or n_e < 1000:
        raise FitError("need at least 1000 counts per prepared state")
    binw = float(centers[1] - centers[0])

    def robust_center(counts):
        cdf = np.cumsum(counts) / np.sum(counts)
        med = float(np.interp(0.5, cdf, centers))
        q25 = float(np.interp(0.25, cdf, centers))
        q75 = float(np.interp(0.75, cdf, centers))
        sig = max((q75 - q25) / 1.349, binw / 2.0)
        return med, sig

    mu_g0, sig_g0 = robust_center(counts_g)
    mu_e0, sig_e0 = robust_center(counts_e)
    p0 = np.array([mu_g0, mu_e0, sig_g0, sig_e0,
                   0.99 * n_g * binw, 0.01 * n_g * binw,
                   0.01 * n_e * binw, 0.99 * n_e * binw])
    span = float(centers[-1] - centers[0])
    lo = [centers[0] - span, centers[0] - span, binw / 10.0, binw / 10.0,
          0.0, 0.0, 0.0, 0.0]
    hi = [centers[-1] + span, centers[-1] + span, span, span,
          2 * n_g * binw, 2 * n_g * binw, 2 * n_e * binw, 2 * n_e * binw]

    def model(p):
        mg, me, sg, se, agg, aeg, age, aee = p
        pdf_g = _normal_pdf(centers, mg, sg)
        pdf_e = _normal_pdf(centers, me, se)
        return agg * pdf_g + aeg * pdf_e, age * pdf_g + aee * pdf_e

    def resid(p):
        cg, ce = model(p)
        return np.concatenate([cg - counts_g, ce - counts_e])

    sol = least_squares(resid, p0, bounds=(lo, hi), max_nfev=max_nfev)
    if not sol.success:
        raise FitError(f"mixture fit did not converge: {sol.message}")
    mg, me, sg, se, agg, aeg, age, aee = sol.x
    if max(sg, se) / min(sg, se) > 1e3:
        raise FitError("degenerate mixture fit (sigma ratio > 1e3)")
    fit = MixtureFit(mu_g=mg, mu_e=me, sigma_g=sg, sigma_e=se,
                     A_gg=agg, A_eg=aeg, A_ge=age, A_ee=aee, threshold=0.0)
    fit.threshold = _intersection_threshold(fit)
    return fit


def _intersection_threshold(fit: MixtureFit) -> float:
    """Decision boundary where C_g and C_e cross between the means.

    C_g - C_e = w_g N(mu_g, sigma_g) - w_e N(mu_e, sigma_e) with
    w_g = A_gg - A_ge and w_e = A_ee - A_eg changes sign only if both
    weights share a strict sign. Then its sign is that of a quadratic in
    x = q - mu_g whose vertex d sigma_g^2 / (sigma_g^2 - sigma_e^2),
    d = mu_e - mu_g, lies outside [0, d]: only the root of smaller
    magnitude can fall between the means a < b. It is the threshold if it
    lies within [a + eps, b - eps], eps = 1e-9 (b - a); otherwise C_g - C_e
    keeps its sign there and the midpoint is.
    """
    a, b = sorted((fit.mu_g, fit.mu_e))
    if b - a <= 0.0:
        return a
    midpoint = 0.5 * (a + b)
    w_g, w_e = fit.A_gg - fit.A_ge, fit.A_ee - fit.A_eg
    if not (w_g > 0.0 and w_e > 0.0 or w_g < 0.0 and w_e < 0.0):
        return midpoint
    d = fit.mu_e - fit.mu_g
    vg, ve = fit.sigma_g ** 2, fit.sigma_e ** 2
    log_ratio = math.log(w_g / w_e * fit.sigma_e / fit.sigma_g)
    # (vg - ve) x^2 + c1 x + c0 = 0; linear for vg = ve, where disc = c1^2
    c1, c0 = -2.0 * d * vg, vg * (d * d + 2.0 * ve * log_ratio)
    disc = c1 * c1 - 4.0 * (vg - ve) * c0
    if disc < 0.0:
        return midpoint
    q = fit.mu_g + c0 / (-0.5 * (c1 + math.copysign(math.sqrt(disc), c1)))
    eps = 1e-9 * (b - a)
    return float(q) if a + eps <= q <= b - eps else midpoint


def fit_shot_histograms(q: np.ndarray, prep: np.ndarray, min_bins: int = 60):
    """Bin pooled q values and run the mixture fit; returns (fit, centers, hg, he)."""
    q = np.asarray(q, dtype=float)
    prep = np.asarray(prep)
    q_g = q[prep == "g"]
    q_e = q[prep == "e"]
    if len(q_g) == 0 or len(q_e) == 0:
        raise FitError("need shots for both preparations")
    # degenerate (noise-free) batches bypass the histogram fit
    if np.std(q_g) == 0.0 and np.std(q_e) == 0.0 and np.mean(q_g) != np.mean(q_e):
        mg, me = float(np.mean(q_g)), float(np.mean(q_e))
        sig = abs(me - mg) * 1e-9
        fit = MixtureFit(mu_g=mg, mu_e=me, sigma_g=sig, sigma_e=sig,
                         A_gg=float(len(q_g)), A_eg=0.0,
                         A_ge=0.0, A_ee=float(len(q_e)),
                         threshold=0.5 * (mg + me))
        return fit, np.array([mg, me]), np.array([len(q_g), 0]), np.array([0, len(q_e)])
    edges = histogram_bins(q, min_bins=min_bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    hg, _ = np.histogram(q_g, bins=edges)
    he, _ = np.histogram(q_e, bins=edges)
    fit = fit_mixture(centers, hg, he)
    return fit, centers, hg, he


# ---------------------------------------------------------------------------
# error budget
# ---------------------------------------------------------------------------

@dataclass
class ErrorBudget:
    """Fidelity and its decomposition into overlap and transition errors."""

    fidelity: float
    eps_g: float
    eps_e: float
    eps_o: float
    eps_o_g: float
    eps_o_e: float
    eps_t_g: float
    eps_t_e: float

    @property
    def avg_assignment_fidelity(self) -> float:
        """1 - (eps_g + eps_e)/2; definition inferred, not standardized."""
        return 1.0 - 0.5 * (self.eps_g + self.eps_e)


def error_budget(q: np.ndarray, prep: np.ndarray, fit: MixtureFit) -> ErrorBudget:
    """Empirical misassignment fractions plus fitted-Gaussian overlap errors."""
    q = np.asarray(q, dtype=float)
    prep = np.asarray(prep)
    q_g = q[prep == "g"]
    q_e = q[prep == "e"]
    if len(q_g) == 0 or len(q_e) == 0:
        raise FitError("empty preparation class")
    thr = fit.threshold
    e_high = fit.mu_e >= fit.mu_g  # excited state on the high-q side?
    eps_g = float(np.mean((q_g >= thr) == e_high))
    eps_e = float(np.mean((q_e >= thr) != e_high))
    # tail of each fitted Gaussian on the far side of the threshold
    side = 1.0 if e_high else -1.0
    eps_o_g = _normal_sf(side * (thr - fit.mu_g) / fit.sigma_g)
    eps_o_e = _normal_sf(side * (fit.mu_e - thr) / fit.sigma_e)
    # dominant-component tail mass, weighted by the component's class fraction
    wg = fit.A_gg / (fit.A_gg + fit.A_eg) if fit.A_gg + fit.A_eg > 0 else 1.0
    we = fit.A_ee / (fit.A_ee + fit.A_ge) if fit.A_ee + fit.A_ge > 0 else 1.0
    eps_o_g = float(wg * eps_o_g)
    eps_o_e = float(we * eps_o_e)
    return ErrorBudget(
        fidelity=1.0 - eps_g - eps_e,
        eps_g=eps_g,
        eps_e=eps_e,
        eps_o=eps_o_g + eps_o_e,
        eps_o_g=eps_o_g,
        eps_o_e=eps_o_e,
        eps_t_g=eps_g - eps_o_g,
        eps_t_e=eps_e - eps_o_e,
    )


# ---------------------------------------------------------------------------
# analytic overlap-error model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterConfig:
    """Composed response applied to the mean signal before weighting.

    amp_bandwidth: 3 dB cutoff of the single-pole amplifier model (Hz),
        None disables the pole. The integration window is advanced by the
        pole's group delay 1/(2 pi B) so that tau counts integration of the
        delayed record.
    dt_bin: boxcar/sampling bin of the digitizer (s); None keeps the fine grid.
    bin_mode: 'mean' boxcar-averages each bin, 'center' samples bin centers
        (the white-noise shot generator corresponds to 'center' with
        amp_bandwidth=None).
    """

    amp_bandwidth: float | None = 27e6
    dt_bin: float | None = 8e-9
    bin_mode: str = "mean"


def _filtered_binned_signal(trace: SignalTrace, tau: float, filt: FilterConfig):
    """Composed-filter mean signal on the integration grid; returns (s, dt)."""
    t = trace.times
    s = np.asarray(trace.values, dtype=float)
    dt = trace.dt
    shift = 0
    if filt.amp_bandwidth is not None:
        tc = 1.0 / (TWOPI * filt.amp_bandwidth)
        h = np.exp(-t / tc)
        h /= h.sum() * dt
        s = np.convolve(s, h)[: len(s)] * dt
        shift = int(round(tc / dt))
    n_tau = int(round(tau / dt))
    if shift + n_tau > len(s):
        pad = np.full(shift + n_tau - len(s), s[-1])
        s = np.concatenate([s, pad])
    s = s[shift: shift + n_tau]
    if filt.dt_bin is None:
        return s, dt
    per = int(round(filt.dt_bin / dt))
    n_bins = n_tau // per
    if n_bins < 1:
        raise TauRangeError("tau shorter than one digitizer bin")
    s = s[: n_bins * per]
    if filt.bin_mode == "mean":
        binned = s.reshape(n_bins, per).mean(axis=1)
    elif filt.bin_mode == "center":
        binned = s[per // 2:: per][:n_bins]
    else:
        raise FitError(f"unknown bin_mode {filt.bin_mode!r}")
    return binned, float(filt.dt_bin)


def overlap_model(trace: SignalTrace, eta: float, tau: float,
                  filt: FilterConfig | None = None) -> float:
    """Analytic overlap error for Gaussian q distributions.

    eps_o(tau) = erfc[ sqrt(1/8) * mu / sigma ] with sigma^2 = 1/(4 eta),
    mu the mode-matched weighted integral of the composed-filter signal.
    With no filtering this is erfc(sqrt(eta/2) * integral S W dt).
    """
    if filt is None:
        filt = FilterConfig()
    s, dt = _filtered_binned_signal(trace, tau, filt)
    norm2 = float(np.sum(s * s) * dt)
    if norm2 <= 0.0:
        return 1.0
    w = s / math.sqrt(norm2)
    mu = float(np.sum(s * w) * dt)
    sigma = math.sqrt(1.0 / (4.0 * eta))
    return math.erfc(math.sqrt(1.0 / 8.0) * mu / sigma)


def overlap_vs_power(trace: SignalTrace, eta: float, tau: float,
                     n_ref: float, n_grid, filt: FilterConfig | None = None):
    """Overlap error versus drive power; S scales as sqrt(n_drive/n_ref)."""
    n_grid = np.asarray(n_grid, dtype=float)
    if np.any(n_grid <= 0.0):
        raise ValueError("drive powers must be positive")
    out = np.empty(len(n_grid))
    for i, n in enumerate(n_grid):
        scaled = SignalTrace(times=trace.times,
                             values=trace.values * math.sqrt(n / n_ref),
                             model=trace.model)
        out[i] = overlap_model(scaled, eta, tau, filt)
    return out
