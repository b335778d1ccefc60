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
from ._lsq import least_squares
from .errors import ConfigError, FitError, NoSignalError

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
    ConfigError unless tau lies from times[0] to one step past times[-1].
    """
    times = np.asarray(times, dtype=float)
    diff = np.abs(np.asarray(mean_e, dtype=float) - np.asarray(mean_g, dtype=float))
    if tau + 1e-15 < times[0] or tau > times[-1] + dt:
        raise ConfigError(f"tau = {tau:g} s lies outside [{times[0]:g}, "
                          f"{times[-1] + dt:g}] s, from the first bin centre "
                          "to one bin past the last")
    mask = times <= tau + 1e-15
    w = diff[mask]
    norm2 = float(np.sum(w * w) * dt)
    if norm2 <= 0.0:
        raise NoSignalError("ground and excited mean traces are identical")
    return WeightFunction(times=times[mask], w=w / math.sqrt(norm2), dt=float(dt))


def integrate_batch(samples, weights: WeightFunction, kappa_p: float):
    """q_tau = sqrt(2 pi kappa_p) * sum Q_k w_k dt for every row of the
    (m, n_bins) record array `samples`, over the first len(weights.w) bins.
    Each row is summed on its own, so a row's q does not depend on the
    rows around it: chunks of any size give the q of one batch."""
    n = len(weights.w)
    if samples.shape[1] < n:
        raise ConfigError(f"tau needs {n} bins, more than the shot record's "
                          f"{samples.shape[1]}")
    return math.sqrt(TWOPI * kappa_p) * weights.dt * np.einsum(
        "ij,j->i", samples[:, :n], weights.w)


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


#: fewest histogram bins the mixture fit is given
_MIN_BINS = 60
#: most histogram bins: 10^5 - 10^6 reference shots take a few hundred, and
#: a q far from all others (a corrupted sample) would take millions
_MAX_BINS = 10**5
#: fewest counts per prepared state the mixture fit takes
MIN_COUNTS = 1000


def histogram_bins(q: np.ndarray) -> np.ndarray:
    """Freedman-Diaconis bin edges on pooled data, at least `_MIN_BINS` bins;
    FitError if the range of q is not finite or needs over `_MAX_BINS`."""
    q = np.asarray(q, dtype=float)
    lo, hi = float(np.min(q)), float(np.max(q))
    if not math.isfinite(hi - lo):
        raise FitError(f"q ranges over [{lo:g}, {hi:g}], not a finite interval")
    if hi <= lo:
        hi = lo + 1.0
    iqr = float(np.subtract(*np.percentile(q, [75, 25])))
    width = 2.0 * iqr / len(q) ** (1.0 / 3.0) if iqr > 0 else 0.0
    n_bins = (hi - lo) / width if width > 0 else _MIN_BINS
    if n_bins > _MAX_BINS:
        raise FitError(f"q ranges over [{lo:g}, {hi:g}], {n_bins:.3g} "
                       f"histogram bins of width {width:g}, more than {_MAX_BINS}")
    n_bins = max(math.ceil(n_bins), _MIN_BINS)
    return np.linspace(lo, hi, n_bins + 1)


class NormalColumns:
    """Histograms as non-negative combinations of k normal densities, for
    one problem or a stack of them.

    counts (..., n, m) holds m histograms over the bin centres (..., n); a
    leading axis stacks problems of n bins each. At the parameters theta
    (..., 2k) = (mu_1..mu_k, sigma_1..sigma_k), k <= 2, one row per
    problem, the amplitudes (..., k, m) solve a non-negative least-squares
    problem in closed form, so a fit sees only theta (variable projection;
    Golub and Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)). Called at
    theta, the model returns model - counts (..., m n), histogram after
    histogram, and a function that gives its Jacobian (..., m n, 2k) in
    Kaufman's form, whose J^T r is the exact gradient of the cost, from
    that evaluation's densities, amplitudes and Gram matrix: the
    least_squares model contract. Every product and solve is stacked, so
    a problem's values are those it has alone.
    """

    def __init__(self, centers, counts):
        self.centers = np.asarray(centers, dtype=float)
        self.counts = np.asarray(counts, dtype=float).reshape(*self.centers.shape, -1)

    def densities(self, theta):
        """phi (..., n, k) and its derivatives (..., n, 2k) in theta's order."""
        theta = np.asarray(theta, dtype=float)
        k = theta.shape[-1] // 2
        mu, sigma = theta[..., None, :k], theta[..., None, k:]
        centers = self.centers[..., None]
        z = (centers - mu) / sigma
        phi = _normal_pdf(centers, mu, sigma)
        dphi = np.empty(z.shape[:-1] + (2 * k,))
        dphi[..., :k] = phi * z / sigma
        dphi[..., k:] = phi * (z * z - 1.0) / sigma
        return phi, dphi

    def __call__(self, theta):
        phi, dphi = self.densities(theta)
        phi_t = np.swapaxes(phi, -1, -2)
        gram = phi_t @ phi
        amps = self._amplitudes(gram, phi_t @ self.counts)
        resid = np.swapaxes(phi @ amps - self.counts, -1, -2)
        return resid.reshape(*resid.shape[:-2], -1), \
            lambda: self._jac(phi, dphi, amps, gram)

    @staticmethod
    def _amplitudes(gram, proj):
        """The non-negative amplitudes (..., k, m) that fit each histogram
        best with the columns of phi, from gram = phi^T phi and proj = phi^T
        counts: the normal equations' solution, or where a sign fails or
        the Gram matrix is singular, the better one-column fit (the optimum
        for k <= 2)."""
        try:
            amps = np.linalg.solve(gram, proj)
        except np.linalg.LinAlgError:
            # one singular Gram matrix fails the stacked solve: each
            # problem is solved alone, and the singular ones have no solution
            amps = np.full_like(proj, np.nan)
            for i in np.ndindex(gram.shape[:-2]):
                try:
                    amps[i] = np.linalg.solve(gram[i], proj[i])
                except np.linalg.LinAlgError:
                    pass
        norm2 = np.diagonal(gram, axis1=-2, axis2=-1)[..., None]
        one = np.divide(np.maximum(proj, 0.0), norm2,
                        out=np.zeros_like(proj), where=norm2 > 0.0)
        # the column that removes the most squared residual, b^2 / |phi|^2
        best = np.arange(gram.shape[-1])[:, None] \
            == np.argmax(one * proj, axis=-2)[..., None, :]
        return np.where(np.all(amps >= 0.0, axis=-2, keepdims=True), amps,
                        one * best)

    def amplitudes(self, theta):
        """The non-negative amplitudes (..., k, m) at theta (_amplitudes)."""
        phi, _ = self.densities(theta)
        phi_t = np.swapaxes(phi, -1, -2)
        return self._amplitudes(phi_t @ phi, phi_t @ self.counts)

    @staticmethod
    def _jac(phi, dphi, amps, gram):
        """(I - P) dphi a per histogram, P the projection onto the columns
        with a non-zero amplitude, in one stacked solve: v - phi_h
        solve(gram_h, phi_h^T v), where phi_h zeroes the unused columns
        and gram_h gives them the identity's rows and columns."""
        amps = np.swapaxes(amps, -1, -2)
        used = amps > 0.0
        v = dphi[..., None, :, :] * np.tile(amps, 2)[..., :, None, :]
        cols = phi[..., None, :, :] * used[..., :, None, :]
        grams = np.where(used[..., :, None] & used[..., None, :],
                         gram[..., None, :, :], np.eye(gram.shape[-1]))
        v -= cols @ np.linalg.solve(grams, np.swapaxes(cols, -1, -2) @ v)
        return v.reshape(*v.shape[:-3], -1, v.shape[-1])


def _mixture_start(centers, counts_g, counts_e):
    """The start (mu_g, mu_e, sigma_g, sigma_e) and the bounds of the
    mixture fit of one pair of histograms: each median and quartile spread,
    and means within a span of the centres, widths from a tenth of a bin
    to the span."""
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
    span = float(centers[-1] - centers[0])
    lo = [centers[0] - span, centers[0] - span, binw / 10.0, binw / 10.0]
    hi = [centers[-1] + span, centers[-1] + span, span, span]
    return [mu_g0, mu_e0, sig_g0, sig_e0], lo, hi


def _fit_mixtures(hists) -> list:
    """fit_mixture of each (centers, counts_g, counts_e) of hists: its
    MixtureFit, or the FitError that fit_mixture raises for it. The fits
    of one bin count share one least_squares call on a stack of
    NormalColumns problems, solved in lockstep; each stacked problem
    iterates as it would alone, so every fit is fit_mixture's bit for bit.
    """
    out = [None] * len(hists)
    groups = {}
    for i, (centers, counts_g, counts_e) in enumerate(hists):
        centers = np.asarray(centers, dtype=float)
        counts_g = np.asarray(counts_g, dtype=float)
        counts_e = np.asarray(counts_e, dtype=float)
        if float(np.sum(counts_g)) < MIN_COUNTS or float(np.sum(counts_e)) < MIN_COUNTS:
            out[i] = FitError(f"need at least {MIN_COUNTS} counts per prepared state")
            continue
        groups.setdefault(len(centers), []).append(
            (i, centers, np.column_stack([counts_g, counts_e]),
             *_mixture_start(centers, counts_g, counts_e)))
    for group in groups.values():
        index, centers, counts, x0, lo, hi = (np.array(v) for v in zip(*group))
        model = NormalColumns(centers, counts)
        sol = least_squares(model, x0, bounds=(lo, hi), max_nfev=2000)
        for i, x, amps, status, message in zip(
                index.tolist(), sol.x.tolist(), model.amplitudes(sol.x).tolist(),
                sol.statuses.tolist(), sol.messages):
            out[i] = _mixture(x, amps, status, message)
    return out


def _mixture(x, amps, status, message):
    """The MixtureFit of the fitted (mu_g, mu_e, sigma_g, sigma_e) x and
    amplitudes [[A_gg, A_ge], [A_eg, A_ee]], or the FitError of a fit that
    did not converge (status) or whose widths differ over 1e3 times."""
    if status <= 0:
        return FitError(f"mixture fit did not converge: {message}")
    mg, me, sg, se = x
    if max(sg, se) / min(sg, se) > 1e3:
        return FitError("degenerate mixture fit (sigma ratio > 1e3)")
    (agg, age), (aeg, aee) = amps
    fit = MixtureFit(mu_g=mg, mu_e=me, sigma_g=sg, sigma_e=se,
                     A_gg=agg, A_eg=aeg, A_ge=age, A_ee=aee, threshold=0.0)
    fit.threshold = _intersection_threshold(fit)
    return fit


def fit_mixture(centers, counts_g, counts_e) -> MixtureFit:
    """Simultaneous least-squares fit of both histograms to the shared
    model: (mu_g, mu_e, sigma_g, sigma_e) by `least_squares`, the four
    amplitudes, each >= 0, in closed form (NormalColumns); a stack of one
    of _fit_mixtures."""
    (fit,) = _fit_mixtures([(centers, counts_g, counts_e)])
    if isinstance(fit, FitError):
        raise fit
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


def _bool_labels(excited) -> np.ndarray:
    """The prepared labels `excited` (true for e) as an array; TypeError
    unless they are boolean, since text labels cast to bool are all true."""
    excited = np.asarray(excited)
    if excited.dtype != bool:
        raise TypeError(f"prepared labels must be boolean, not {excited.dtype}")
    return excited


def fit_shot_histograms(q: np.ndarray, excited: np.ndarray):
    """Bin pooled q values and run the mixture fit; returns (fit, centers, hg, he).

    excited: the boolean prepared labels, true for e (TypeError for any
    other dtype). A class's q values are copied out one class at a time, so
    the peak is q, the labels and the bin edges' percentile copy of q. A
    stack of one of fit_shot_histogram_stack.
    """
    return fit_shot_histogram_stack(np.asarray(q, dtype=float)[None], excited)[0]


def fit_shot_histogram_stack(qs, excited) -> list:
    """fit_shot_histograms of every row of qs (P, N), the q of the same N
    shots under P settings, as a list of P tuples (fit, centers, hg, he).
    The rows are binned one after the other, and their mixture fits are
    solved together (_fit_mixtures). The FitError of the first row that
    fails is raised, as a loop of fit_shot_histograms over the rows would.
    """
    excited = _bool_labels(excited)
    n_e = int(np.count_nonzero(excited))
    if n_e == 0 or n_e == np.shape(qs)[-1]:
        raise FitError("need shots for both preparations")
    rows = [_shot_histograms(np.asarray(q, dtype=float), excited) for q in qs]
    todo = [i for i, row in enumerate(rows)
            if not isinstance(row, FitError) and row[0] is None]
    for i, fit in zip(todo, _fit_mixtures([rows[i][1:] for i in todo])):
        rows[i] = fit if isinstance(fit, FitError) else (fit, *rows[i][1:])
    for row in rows:
        if isinstance(row, FitError):
            raise row
    return rows


def _shot_histograms(q, excited):
    """(fit, centers, hg, he) of fit_shot_histograms, fit None where the
    mixture fit is still to be solved; or the FitError of histogram_bins."""
    (mg, spread_g), (me, spread_e) = (
        (float(np.mean(v)), float(np.ptp(v)))
        for v in (q[excited == side] for side in (False, True)))
    # degenerate (noise-free) batches bypass the histogram fit
    if spread_g == spread_e == 0.0 and mg != me:
        n_e = int(np.count_nonzero(excited))
        n_g = len(q) - n_e
        sig = abs(me - mg) * 1e-9
        fit = MixtureFit(mu_g=mg, mu_e=me, sigma_g=sig, sigma_e=sig,
                         A_gg=float(n_g), A_eg=0.0, A_ge=0.0, A_ee=float(n_e),
                         threshold=0.5 * (mg + me))
        return fit, np.array([mg, me]), np.array([n_g, 0]), np.array([0, n_e])
    try:
        edges = histogram_bins(q)
    except FitError as exc:
        return exc
    centers = 0.5 * (edges[:-1] + edges[1:])
    hg, _ = np.histogram(q[~excited], bins=edges)
    he, _ = np.histogram(q[excited], bins=edges)
    return None, centers, hg, he


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


def error_budget(q: np.ndarray, excited: np.ndarray, fit: MixtureFit) -> ErrorBudget:
    """Empirical misassignment fractions plus fitted-Gaussian overlap errors;
    excited as for fit_shot_histograms."""
    q = np.asarray(q, dtype=float)
    excited = _bool_labels(excited)
    n_e = int(np.count_nonzero(excited))
    n_g = len(q) - n_e
    if n_g == 0 or n_e == 0:
        raise FitError("empty preparation class")
    thr = fit.threshold
    e_high = fit.mu_e >= fit.mu_g  # excited state on the high-q side?
    wrong = ((q >= thr) == e_high) != excited  # assigned to the other class
    wrong_e = int(np.count_nonzero(wrong & excited))
    eps_g = (int(np.count_nonzero(wrong)) - wrong_e) / n_g
    eps_e = wrong_e / n_e
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
        amp_bandwidth=None); any other value raises ValueError.
    """

    amp_bandwidth: float | None = 27e6
    dt_bin: float | None = 8e-9
    bin_mode: str = "mean"

    def __post_init__(self):
        if self.bin_mode not in ("mean", "center"):
            raise ValueError(f"unknown bin_mode {self.bin_mode!r}")


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
        raise ConfigError(f"tau = {tau:g} s is shorter than one "
                          f"{filt.dt_bin:g} s digitizer bin")
    s = s[: n_bins * per]
    if filt.bin_mode == "mean":
        binned = s.reshape(n_bins, per).mean(axis=1)
    else:
        binned = s[per // 2:: per][:n_bins]
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
    with np.errstate(over="ignore"):
        norm2 = float(np.sum(s * s) * dt)
    if norm2 <= 0.0:
        return 1.0
    if math.isinf(norm2):
        # mu would be above 1e154 sigma, where erfc is 0 in double precision
        return 0.0
    w = s / math.sqrt(norm2)
    mu = float(np.sum(s * w) * dt)
    sigma = math.sqrt(1.0 / (4.0 * eta))
    return math.erfc(math.sqrt(1.0 / 8.0) * mu / sigma)


def overlap_vs_power(trace: SignalTrace, eta: float, tau: float,
                     n_ref: float, n_grid):
    """Overlap error versus drive power; S scales as sqrt(n_drive/n_ref),
    n_ref the drive power of `trace`. ConfigError unless n_ref and every
    power are positive."""
    n_grid = np.asarray(n_grid, dtype=float)
    if not n_ref > 0.0:
        raise ConfigError(f"n_drive = {n_ref:g} gives no signal to scale to "
                          "other drive powers; it must be positive")
    if np.any(n_grid <= 0.0):
        raise ConfigError("drive powers must be positive")
    out = np.empty(len(n_grid))
    for i, n in enumerate(n_grid):
        scaled = SignalTrace(times=trace.times,
                             values=trace.values * math.sqrt(n / n_ref))
        out[i] = overlap_model(scaled, eta, tau)
    return out
