"""Monte Carlo generator of single-shot readout records.

Each shot draws a hidden qubit trajectory (a two-state continuous-time Markov
chain: e -> g at rate 1/T1 + gamma_mix_down, g -> e at rate gamma_mix_up),
solves the deterministic cavity response conditioned on that trajectory, and
samples the amplified quadrature in dt_bin time bins with white Gaussian
noise of variance sigma_bin^2 = 1/(4 eta * 2 pi kappa_p * dt_bin). That
variance is the unique choice for which the mode-matched integral
q_tau = sqrt(2 pi kappa_p) * sum Q_k w_k dt has Var[q_tau] = 1/(4 eta).

Shots are mutually independent and bit-reproducible: shot i draws from a
Philox generator keyed by (master_seed, i) at counter 0, so batches are
identical for any execution order or parallel split. A batch is held
columnar (ShotBatch); the per-shot loop only draws, and the conditioned
means of all shots are computed on arrays afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scipy import least_squares
from .analysis import WeightFunction, build_weights
from .dynamics import TWOPI, PulseEnvelope, TwoCavityModel, lo_rotation
from .config import require_finite
from .errors import ConfigError, FitError, GridError
from .params import DeviceParams

#: one-sided z score of the 99% Gaussian CDF point
Z99 = 2.3263478740408408

#: rows per step when adding the mean quadratures in place; bounds the
#: temporaries of the batched jump path
_CHUNK = 256


def noise_sigma_bin(eta: float, kappa_p: float, dt_bin: float) -> float:
    """Per-bin quadrature noise standard deviation; kappa_p in ordinary Hz."""
    return 1.0 / math.sqrt(4.0 * eta * TWOPI * kappa_p * dt_bin)


@dataclass(frozen=True)
class ShotConfig:
    """Knobs of the stochastic part of the experiment."""

    n_shots: int
    master_seed: int = 0
    dt_bin: float = 8e-9
    p_thermal: float = 0.003
    gamma_mix_up: float = 0.0
    gamma_mix_down: float = 0.0
    preselect: bool = False
    prep_error: float = 0.0
    measure_duration: float | None = None
    premeasure_duration: float = 152e-9
    premeasure_window: float = 48e-9
    premeasure_amplitude: float = 1.0
    reset_gap: float = 100e-9

    def __post_init__(self):
        require_finite(self)
        if self.n_shots <= 0:
            raise ConfigError("n_shots must be positive")
        if self.dt_bin <= 0.0:
            raise ConfigError("dt_bin must be positive")
        for name in ("p_thermal", "prep_error"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.gamma_mix_up < 0.0 or self.gamma_mix_down < 0.0:
            raise ConfigError("mixing rates must be non-negative")
        if not (0.0 < self.premeasure_window <= self.premeasure_duration):
            raise ConfigError("need 0 < premeasure_window <= premeasure_duration")


def window_bins(pulse: PulseEnvelope, cfg: ShotConfig) -> int:
    """Number of dt_bin bins in the measurement window (measure_duration,
    or the whole pulse)."""
    duration = cfg.measure_duration
    if duration is None:
        duration = pulse.total_duration
    return int(math.floor(duration / cfg.dt_bin + 1e-9))


@dataclass(frozen=True)
class ShotRecord:
    """One repetition: preparation label, binned samples, hidden diagnostics."""

    prep: str
    samples: np.ndarray
    jump_times: tuple = ()
    preselect_value: float | None = None


def _read_only(a: np.ndarray) -> np.ndarray:
    a = a.view()
    a.flags.writeable = False
    return a


class ShotBatch:
    """Columnar shot data: one row per shot, hidden jumps held sparsely.

    prep (N,) holds the labels 'g'/'e'; samples (N, n_bins) the binned
    quadratures; preselect (N,) the premeasurement values, NaN without
    preselection. jump_shot, jump_time and jump_kind (J,) list every
    qubit jump of the measurement window by row ('eg' decay, 'ge'
    excitation), rows ascending and times ascending within a row. All
    arrays are read-only; len, batch[i] and iteration give read-only
    ShotRecord views.
    """

    def __init__(self, prep, samples, preselect=None, jump_shot=(), jump_time=(),
                 jump_kind=()):
        self.samples = _read_only(np.asarray(samples, dtype=float))
        n = len(self.samples)
        self.prep = _read_only(np.asarray(prep, dtype="U1"))
        if preselect is None:
            preselect = np.full(n, np.nan)
        self.preselect = _read_only(np.asarray(preselect, dtype=float))
        self.jump_shot = _read_only(np.asarray(jump_shot, dtype=np.int64))
        self.jump_time = _read_only(np.asarray(jump_time, dtype=float))
        self.jump_kind = _read_only(np.asarray(jump_kind, dtype="U2"))
        if self.samples.ndim != 2 or self.prep.shape != (n,) \
                or self.preselect.shape != (n,):
            raise ValueError("prep, samples and preselect need one row per shot")
        # jumps of row i: [_jump_start[i], _jump_start[i + 1])
        self._jump_start = np.searchsorted(self.jump_shot, np.arange(n + 1))

    @property
    def n_bins(self) -> int:
        return self.samples.shape[1]

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, i) -> ShotRecord:
        i = range(len(self))[i]
        a, b = self._jump_start[i], self._jump_start[i + 1]
        pre = float(self.preselect[i])
        jumps = () if a == b else tuple(zip(self.jump_time[a:b].tolist(),
                                            self.jump_kind[a:b].tolist()))
        return ShotRecord(prep=str(self.prep[i]), samples=self.samples[i],
                          jump_times=jumps,
                          preselect_value=None if math.isnan(pre) else pre)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def select(self, keep) -> ShotBatch:
        """The shots where the boolean mask `keep` is true, renumbered."""
        keep = np.asarray(keep, dtype=bool)
        row = np.cumsum(keep) - 1
        jumps = keep[self.jump_shot]
        return ShotBatch(self.prep[keep], self.samples[keep], self.preselect[keep],
                         row[self.jump_shot[jumps]], self.jump_time[jumps],
                         self.jump_kind[jumps])


class ReadoutChain:
    """The deterministic readout chain of one device, pulse and ShotConfig.

    It owns the model, the LO rotation, the noise-free bin-centre means
    (mean_bins[-1] for g, mean_bins[+1] for e) and the matched weights
    built from them; the shot batches it runs are rotated and binned the
    same way.
    """

    def __init__(self, device: DeviceParams, pulse: PulseEnvelope, cfg: ShotConfig):
        self.device = device
        self.cfg = cfg
        self.model = TwoCavityModel(device)

        self.n_bins = window_bins(pulse, cfg)
        if self.n_bins < 1:
            raise GridError("sampling window shorter than one bin")
        if pulse.total_duration < self.n_bins * cfg.dt_bin - 1e-12:
            raise GridError("pulse does not cover the sampling window")
        self.pulse = pulse
        self.bin_centers = (np.arange(self.n_bins) + 0.5) * cfg.dt_bin
        self.sigma_bin = noise_sigma_bin(device.eta, device.kappa_p, cfg.dt_bin)

        fields = self.model.trace([-1, +1], pulse, self.bin_centers)
        self.model.check_ceiling(fields)
        beta = fields[..., 1]
        self.phi_lo, self.rot = lo_rotation(beta[1] - beta[0])
        self.mean_bins = dict(zip((-1, +1), np.real(self.rot * beta)))

        if cfg.preselect:
            self.pre_pulse = PulseEnvelope(
                kind="gated",
                amplitude=pulse.amplitude * cfg.premeasure_amplitude,
                total_duration=cfg.premeasure_duration,
            )
            self.n_pre = int(round(cfg.premeasure_duration / cfg.dt_bin))
            self.n_win = max(1, int(round(cfg.premeasure_window / cfg.dt_bin)))
            self.pre_centers = (np.arange(self.n_pre) + 0.5) * cfg.dt_bin
            # only the last n_win bins enter the premeasurement value
            beta = self.model.trace([-1, +1], self.pre_pulse,
                                    self.pre_centers[-self.n_win:])[..., 1]
            self.pre_bins = dict(zip((-1, +1), np.real(self.rot * beta)))
            self.p_reset = 1.0 - math.exp(-cfg.reset_gap / device.T1)

        self.down_rate = 1.0 / device.T1 + cfg.gamma_mix_down
        self.up_rate = cfg.gamma_mix_up

    def weights(self, tau: float) -> WeightFunction:
        """Mode-matched weights over [0, tau] from the bin-centre means."""
        return build_weights(self.bin_centers, self.mean_bins[-1],
                             self.mean_bins[+1], tau, self.cfg.dt_bin)

    # -- random draws of one shot ----------------------------------------------

    def _jumps(self, rng, row: int, s: int, t1: float, out: list) -> int:
        """Append the Markov-chain jumps in [0, t1) to out as (row, time,
        kind); returns the final state."""
        t = 0.0
        while True:
            rate = self.down_rate if s == +1 else self.up_rate
            if rate <= 0.0:
                return s
            t = t + rng.exponential(1.0 / rate)
            if t >= t1:
                return s
            out.append((row, t, "eg" if s == +1 else "ge"))
            s = -s

    # -- noise-free means, all shots at once ------------------------------------

    def _add_means(self, out, s0, jumps, pulse, times, mean_bins):
        """out += noise-free quadratures at `times` per row, conditioned on
        the row's jumps; in place, so out = mean + noise bit for bit."""
        rows = np.array([r for r, _, _ in jumps], dtype=int)
        jump_rows, first, counts = np.unique(rows, return_index=True,
                                             return_counts=True)
        jump_noise = out[jump_rows]
        for a in range(0, len(out), _CHUNK):
            out[a:a + _CHUNK] += np.where(s0[a:a + _CHUNK, None] > 0,
                                          mean_bins[+1], mean_bins[-1])
        times_of = np.array([t for _, t, _ in jumps])
        for a in range(0, len(jump_rows), _CHUNK):
            # jump times of these rows, padded with +inf
            n_jumps, start = counts[a:a + _CHUNK], first[a:a + _CHUNK]
            switch = np.full((len(n_jumps), n_jumps.max()), np.inf)
            row_of = np.repeat(np.arange(len(n_jumps)), n_jumps)
            index = np.arange(len(row_of)) + start[0]
            switch[row_of, index - start[row_of]] = times_of[index]
            chunk = jump_rows[a:a + _CHUNK]
            fields = self.model.trace(s0[chunk], pulse, times, switch)
            out[chunk] = np.real(self.rot * fields[..., 1]) + jump_noise[a:a + _CHUNK]

    # -- a batch of shots --------------------------------------------------------

    def run(self, indices, prep=None) -> ShotBatch:
        """Shots `indices` with labels `prep` (None: g, e, g, e, ... by index
        parity); shot i depends only on (master_seed, i).

        The draws of shot i come from a Philox generator keyed by
        (master_seed, i) at counter 0, in the order: thermal state,
        premeasurement jumps and noise, reset, preparation, jumps, noise.
        One generator is re-keyed per shot; the means are computed for all
        shots afterwards.
        """
        cfg = self.cfg
        indices = np.asarray(indices)
        if prep is None:
            prep = np.where(indices % 2 == 0, "g", "e")
        prep = np.asarray(prep, dtype="U1")
        n = len(prep)
        bits = np.random.Philox(key=[cfg.master_seed & 0xFFFFFFFFFFFFFFFF, 0])
        rng = np.random.Generator(bits)
        fresh = bits.state  # counter 0, empty buffer
        key = fresh["state"]["key"]

        s_main = np.empty(n, dtype=int)
        noise = np.empty((n, self.n_bins))
        jumps: list = []
        if cfg.preselect:
            s_pre = np.empty(n, dtype=int)
            pre_noise = np.empty((n, self.n_win))
            pre_draw = np.empty(self.n_pre)
            pre_jumps: list = []
        excite = prep == "e"
        window = self.n_bins * cfg.dt_bin
        for row, index in enumerate(indices.tolist()):
            key[1] = index
            bits.state = fresh
            s = +1 if rng.random() < cfg.p_thermal else -1
            if cfg.preselect:
                s_pre[row] = s
                s = self._jumps(rng, row, s, cfg.premeasure_duration, pre_jumps)
                rng.standard_normal(out=pre_draw)
                pre_noise[row] = pre_draw[-self.n_win:]
                # reset gap: cavity returns to vacuum, qubit only decays
                if s == +1 and rng.random() < self.p_reset:
                    s = -1
            if excite[row] and rng.random() >= cfg.prep_error:
                s = -s
            s_main[row] = s
            self._jumps(rng, row, s, window, jumps)
            rng.standard_normal(out=noise[row])

        # samples = mean + noise * sigma, as in a per-shot loop
        noise *= self.sigma_bin
        self._add_means(noise, s_main, jumps, self.pulse, self.bin_centers,
                        self.mean_bins)
        preselect = None
        if cfg.preselect:
            pre_noise *= self.sigma_bin
            self._add_means(pre_noise, s_pre, pre_jumps, self.pre_pulse,
                            self.pre_centers[-self.n_win:], self.pre_bins)
            preselect = np.mean(pre_noise, axis=1)
        return ShotBatch(prep, noise, preselect,
                         jump_shot=[r for r, _, _ in jumps],
                         jump_time=[t for _, t, _ in jumps],
                         jump_kind=[k for _, _, k in jumps])


def _check_prep(prep: str):
    if prep not in ("g", "e"):
        raise ConfigError(f"preparation must be 'g' or 'e', got {prep!r}")


def simulate_shot(device: DeviceParams, pulse: PulseEnvelope, cfg: ShotConfig,
                  prep: str, index: int = 0) -> ShotRecord:
    """Generate one shot; deterministic given (cfg.master_seed, index)."""
    _check_prep(prep)
    return ReadoutChain(device, pulse, cfg).run([index], [prep])[0]


def simulate_batch(device: DeviceParams, pulse: PulseEnvelope, cfg: ShotConfig,
                   prep: str | None = None) -> ShotBatch:
    """Generate cfg.n_shots shots as a ShotBatch.

    prep None alternates g, e, g, e, ... (shot index parity); 'g' or 'e'
    prepares a single class. Order-independent: shot i depends only on
    (master_seed, i).
    """
    if prep is not None:
        _check_prep(prep)
        prep = np.full(cfg.n_shots, prep)
    return ReadoutChain(device, pulse, cfg).run(np.arange(cfg.n_shots), prep)


# ---------------------------------------------------------------------------
# preselection
# ---------------------------------------------------------------------------

def run_preselection(batch: ShotBatch):
    """Reject shots whose premeasurement flags an initially excited qubit.

    Fits a single Gaussian to the q_p histogram, thresholds at the 99% point
    of the fitted CDF (mu + 2.326 sigma) and drops shots above it. Returns
    (surviving ShotBatch, rejected fraction).
    """
    if len(batch) < 100:
        raise FitError("preselection needs at least 100 records")
    q_p = batch.preselect
    if np.any(~np.isfinite(q_p)):
        raise FitError("records lack preselection values")

    med = float(np.median(q_p))
    iqr = float(np.subtract(*np.percentile(q_p, [75, 25])))
    sig0 = max(iqr / 1.349, 1e-12 * (1.0 + abs(med)))
    core = q_p[np.abs(q_p - med) < 4.0 * sig0]
    edges = np.histogram_bin_edges(core, bins=max(40, int(math.sqrt(len(core)))))
    counts, _ = np.histogram(core, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])

    def resid(p):
        a, mu, sigma = p
        return a * np.exp(-0.5 * ((centers - mu) / sigma) ** 2) - counts

    sol = least_squares(resid, [float(np.max(counts)), med, sig0], max_nfev=5000)
    if not sol.success:
        raise FitError(f"preselection Gaussian fit failed: {sol.message}")
    mu, sigma = float(sol.x[1]), abs(float(sol.x[2]))
    threshold = mu + Z99 * sigma
    kept = batch.select(q_p <= threshold)
    rejected = 1.0 - len(kept) / len(batch)
    return kept, rejected
