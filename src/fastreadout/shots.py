"""Monte Carlo generator of single-shot readout records.

Each shot draws a hidden qubit trajectory (a two-state continuous-time Markov
chain: e -> g at rate 1/T1 + gamma_mix_down, g -> e at rate gamma_mix_up),
solves the deterministic cavity response conditioned on that trajectory, and
samples the amplified quadrature in dt_bin time bins with white Gaussian
noise of variance sigma_bin^2 = 1/(4 eta * 2 pi kappa_p * dt_bin). That
variance is the unique choice for which the mode-matched integral
q_tau = sqrt(2 pi kappa_p) * sum Q_k w_k dt has Var[q_tau] = 1/(4 eta).

Random stream. All draws of a record come from one counter-based Philox4x64
stream keyed by (master_seed, 0). Shot i owns the 64-bit words
[i W, (i + 1) W), where W (ReadoutChain.n_words) is padded to a multiple of
4, the words per counter step; a run of shots is one advance() and one
random_raw() per chunk, and shot i depends only on (master_seed, i). A word
k becomes u = ((k >> 12) + 0.5) 2^-52, exact in float64, so u is never 0
or 1. The words of one shot, in order:

    thermal word                         initial state e when u < p_thermal
    with preselection only:
      K jump words                       premeasurement window
      n_win noise words, padded to even  last n_win premeasurement bins
      reset word                         e decays in the gap when u < p_reset
    prep word                            e labels flip s when u >= prep_error
    K jump words                         measurement window
    n_bins noise words, padded to even   measurement bins

One word per draw: a Bernoulli draw is u < p; a waiting time is -log(u)
times the mean wait 1/rate of the state left (+inf at rate 0); normals are
Box-Muller pairs of consecutive words, z_2j = r cos(theta) and
z_2j+1 = r sin(theta) with r = sqrt(-2 log u_2j), theta = 2 pi u_2j+1. The
jump times of a window are the cumulative sums of its waits, drawn in
rounds of K = 4 words. Round 0 is the window's K jump words above. A shot
whose K-th jump of round r - 1 still falls inside the window goes on to
round r >= 1, the words [i K, (i + 1) K) of Philox(key=(master_seed,
2 r - 1 + w)), w = 0 for the premeasurement and 1 for the measurement
window; the round's sums start at the previous round's K-th jump time, in
the state the previous round started in (K is even). Shots that need
round 1 in either window are overflow shots.

q-space stream. When only q_tau is needed (ReadoutChain.sample_q), shot i
owns the 8 words [8 i, 8 i + 8) of Philox(key=(master_seed, Q_STREAM)),
Q_STREAM = 2^63 - 1, a key that no jump round reaches:

    thermal word                         initial state e when u < p_thermal
    prep word                            e labels flip s when u >= prep_error
    K jump words                         [0, len(w) dt_bin), the weighted bins
    one normal pair                      z = r cos(theta) of its two words

Later jump rounds come from the measurement window's round streams above.
Given its jumps, q = q(noise-free conditioned means) + z / (2 sqrt(eta)).
These words do not depend on the chain: q_draws draws each block of shots
once, and ReadoutChain.map_q maps a block to the q of one chain, so the
chains of one master seed can share the draw (optimize.power_tradeoff).

A batch is held columnar (ShotBatch). The draws of a chunk of shots are
array operations, one per round for the jump waits, and the conditioned
means of all shots are computed on arrays afterwards.

Conditioned means. A shot whose qubit does not jump gets the bin-centre
means of its state (ReadoutChain.mean_bins). Between jumps the field of a
shot and the no-jump field X_s of its current state s obey the same driven
linear equation, so their difference evolves freely: after a jump into s
at t_j the field is X_s(t) + V_s exp(lambda_s (t - t_j)) c_j, with lambda_s
and V_s the eigenvalues and eigenvectors of the system matrix of s. The
2-vector c_j follows from continuity at t_j, and one 2 x 2 recurrence
carries it from jump to jump. X_g and X_e are therefore solved only at the
jump times, and a sample after a jump is the no-jump mean of its state
plus a decaying transient (ReadoutChain._add_means).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._lsq import least_squares
from .analysis import (NormalColumns, WeightFunction, _bool_labels,
                       build_weights, integrate_batch)
from .dynamics import TWOPI, PulseEnvelope, TwoCavityModel, _apply, lo_rotation
from .config import require_finite
from .errors import ConfigError, FitError
from .params import DeviceParams

#: one-sided z score of the 99% Gaussian CDF point
Z99 = 2.3263478740408408

#: largest chance 0.99^n of an empty tail above the fitted 99% point that
#: preselection_threshold takes for bad luck rather than a failed fit
EMPTY_TAIL_P = 1e-6

#: fewest premeasurement values preselection_threshold fits
MIN_PRESELECT = 100

#: rows per step when drawing; bounds the temporaries of the draws
_CHUNK = 256

#: jump rows per step when adding the jump-conditioned means; bounds the
#: temporaries of the transients, a few hundred bytes per row and bin
_JUMP_CHUNK = 1024

#: jump words per window and round; even, so a round starts in the state
#: its previous one started in, and 4 words are one Philox counter step
K_JUMPS = 4

#: second key word of the q-space stream (ReadoutChain.sample_q): the
#: largest that numpy builds through int64; a jump round's key 2 r - 1 +
#: window reaches it only at round 2**62
Q_STREAM = 2**63 - 1

#: words per shot of the q-space stream: thermal, prep, K_JUMPS jump words
#: and one normal pair
_Q_WORDS = 2 + K_JUMPS + 2

#: shots per draw of sample_q; bounds its temporaries, about 200 bytes a shot
_Q_CHUNK = 65536

#: most mean qubit jumps per window, 2 T / (1/rate_g + 1/rate_e); checked
#: before anything is drawn
MAX_MEAN_JUMPS = 100

#: most samples per state a window may hold (bins of a shot window, points
#: of a fine time grid); checked before anything is allocated
MAX_BINS = 10**7


def _unit(words):
    """64-bit words to u = ((k >> 12) + 0.5) 2^-52 in (0, 1), exactly."""
    u = (words >> np.uint64(12)).astype(float)
    u += 0.5
    u *= 2.0**-52
    return u


def _box_muller(u, out):
    """Standard normals into out (m, n) from the word pairs of u
    (m, n rounded up to even): z_2j = r cos(theta), z_2j+1 = r sin(theta)."""
    r = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    theta = TWOPI * u[:, 1::2]
    np.multiply(r, np.cos(theta), out=out[:, 0::2])
    half = out.shape[1] // 2
    np.multiply(r[:, :half], np.sin(theta[:, :half]), out=out[:, 1::2])


def _even(n: int) -> int:
    return n + n % 2


def _runs(ids):
    """The first index and the length of each run of equal values of the
    sorted array ids."""
    start = np.ones(len(ids), dtype=bool)
    start[1:] = ids[1:] != ids[:-1]
    first = np.flatnonzero(start)
    return first, np.diff(np.append(first, len(ids)))


def _labels(shots: range, excited):
    """The boolean prepared labels of the range `shots`: `excited`, or
    g, e, g, e, ... by index parity when it is None."""
    if not isinstance(shots, range) or shots.step != 1:
        raise ValueError("shots must be a range of consecutive shot indices")
    if excited is None:
        excited = np.arange(shots.start, shots.stop) % 2 == 1
    excited = _bool_labels(excited)
    if excited.shape != (len(shots),):
        raise ValueError("excited needs one label per shot")
    return excited


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
        # the Philox key word is a uint64 that numpy builds through int64
        if not 0 <= self.master_seed < 2**63:
            raise ConfigError("seed must lie in [0, 2**63)")
        for name in ("dt_bin", "measure_duration"):
            if getattr(self, name) is not None and getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        for name in ("p_thermal", "prep_error"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1]")
        for name in ("gamma_mix_up", "gamma_mix_down", "reset_gap",
                     "premeasure_amplitude"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be non-negative")
        if not (0.0 < self.premeasure_window <= self.premeasure_duration):
            raise ConfigError("need 0 < premeasure_window <= premeasure_duration")


def sample_count(n: float, setting: str, noun: str, least: int = 1) -> int:
    """The whole float n, a count of samples per state, as an int.
    ConfigError "<setting> gives <n> <noun>, ..." unless least <= n <=
    MAX_BINS (NaN and inf too); setting names the keys, "dt_bin = 8e-09 s"."""
    if not least <= n <= MAX_BINS:
        bound = f"fewer than {least}" if n < least else f"more than {MAX_BINS}"
        raise ConfigError(f"{setting} gives {n:.3g} {noun}, {bound}")
    return int(n)


def bin_count(duration: float, dt_bin: float, window: str) -> int:
    """Number of whole dt_bin bins in `duration`, the value of the key
    `window`; ConfigError unless 1 to MAX_BINS."""
    return sample_count(np.floor(duration / dt_bin + 1e-9),
                        f"dt_bin = {dt_bin:g} s", f"bins per {window}")


def window_bins(pulse: PulseEnvelope, cfg: ShotConfig) -> int:
    """Number of dt_bin bins in the measurement window (measure_duration,
    or the whole pulse); ConfigError unless 1 to MAX_BINS and the pulse
    covers them."""
    if cfg.measure_duration is None:
        return bin_count(pulse.total_duration, cfg.dt_bin, "pulse_duration")
    n = bin_count(cfg.measure_duration, cfg.dt_bin, "measure_duration")
    if pulse.total_duration < n * cfg.dt_bin - 1e-12:
        raise ConfigError(
            f"measure_duration = {cfg.measure_duration:g} s gives {n} bins, "
            f"which pulse_duration = {pulse.total_duration:g} s does not cover")
    return n


def mean_waits(device: DeviceParams, cfg: ShotConfig) -> dict:
    """Mean waiting time in qubit state s (-1 g, +1 e): the inverse of the
    rate of leaving it, +inf where it cannot be left."""
    rates = {+1: 1.0 / device.T1 + cfg.gamma_mix_down, -1: cfg.gamma_mix_up}
    # +inf set here, not divided by 0 in numpy
    return {s: 1.0 / r if r > 0.0 else math.inf for s, r in rates.items()}


def check_jumps(device: DeviceParams, cfg: ShotConfig, windows: dict,
                prefix: str = ""):
    """ConfigError, its message led by `prefix`, where a window of
    `windows` ({name: duration in s}) holds more than MAX_MEAN_JUMPS mean
    qubit jumps at the stationary jump rate, 2 duration / (mean wait in g +
    mean wait in e); checked before anything is drawn."""
    wait = mean_waits(device, cfg)
    for window, duration in windows.items():
        jumps = 2.0 * duration / (wait[-1] + wait[+1])
        if jumps > MAX_MEAN_JUMPS:
            raise ConfigError(
                f"{prefix}gamma_mix_up = {cfg.gamma_mix_up:g} 1/s, "
                f"gamma_mix_down = {cfg.gamma_mix_down:g} 1/s and T1 = "
                f"{device.T1:g} s give {jumps:.3g} mean qubit jumps per "
                f"{window}, more than {MAX_MEAN_JUMPS}")


@dataclass(frozen=True)
class ShotRecord:
    """One repetition: prepared label (true for e), binned samples, hidden
    diagnostics (jump_times: (t, decay) pairs, decay true for e -> g)."""

    excited: bool
    samples: np.ndarray
    jump_times: tuple = ()
    preselect_value: float | None = None


def _read_only(a: np.ndarray) -> np.ndarray:
    a = a.view()
    a.flags.writeable = False
    return a


class ShotBatch:
    """Columnar shot data: one row per shot, hidden jumps held sparsely.

    excited (N,) holds the boolean prepared labels, true for e (TypeError
    for another dtype); samples (N, n_bins) the binned quadratures;
    preselect (N,) the premeasurement values, NaN without preselection;
    overflow (N,) marks the shots that drew a second round of K_JUMPS waits
    in a window (all false for data read from a file). jump_shot, jump_time
    and jump_decay (J,) list every qubit jump of the measurement window by
    row (decay true for e -> g), rows then times ascending. All arrays are
    read-only; len, batch[i] and iteration give read-only ShotRecord views.
    """

    def __init__(self, excited, samples, preselect=None, jump_shot=(),
                 jump_time=(), jump_decay=(), overflow=None):
        self.samples = _read_only(np.asarray(samples, dtype=float))
        n = len(self.samples)
        self.excited = _read_only(_bool_labels(excited))
        if preselect is None:
            preselect = np.full(n, np.nan)
        self.preselect = _read_only(np.asarray(preselect, dtype=float))
        if overflow is None:
            overflow = np.zeros(n, dtype=bool)
        self.overflow = _read_only(np.asarray(overflow, dtype=bool))
        self.jump_shot = _read_only(np.asarray(jump_shot, dtype=np.int64))
        self.jump_time = _read_only(np.asarray(jump_time, dtype=float))
        self.jump_decay = _read_only(np.asarray(jump_decay, dtype=bool))
        if self.samples.ndim != 2 or self.excited.shape != (n,) \
                or self.preselect.shape != (n,) or self.overflow.shape != (n,):
            raise ValueError("excited, samples, preselect, overflow: one row per shot")
        # jumps of row i: [_jump_start[i], _jump_start[i + 1])
        self._jump_start = np.searchsorted(self.jump_shot, np.arange(n + 1))

    @property
    def n_bins(self) -> int:
        return self.samples.shape[1]

    @property
    def n_overflow(self) -> int:
        """Number of overflow shots."""
        return int(np.count_nonzero(self.overflow))

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, i) -> ShotRecord:
        i = range(len(self))[i]
        a, b = self._jump_start[i], self._jump_start[i + 1]
        pre = float(self.preselect[i])
        jumps = () if a == b else tuple(zip(self.jump_time[a:b].tolist(),
                                            self.jump_decay[a:b].tolist()))
        return ShotRecord(excited=bool(self.excited[i]), samples=self.samples[i],
                          jump_times=jumps,
                          preselect_value=None if math.isnan(pre) else pre)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def select(self, keep) -> ShotBatch:
        """The shots where the boolean mask `keep` is true, renumbered."""
        keep = np.asarray(keep, dtype=bool)
        row = np.cumsum(keep) - 1
        jumps = keep[self.jump_shot]
        return ShotBatch(self.excited[keep], self.samples[keep], self.preselect[keep],
                         row[self.jump_shot[jumps]], self.jump_time[jumps],
                         self.jump_decay[jumps], self.overflow[keep])


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
        self.n_bins = window_bins(pulse, cfg)
        windows = {"measurement window": self.n_bins * cfg.dt_bin}
        if cfg.preselect:
            self.n_pre = bin_count(cfg.premeasure_duration, cfg.dt_bin,
                                   "premeasure_duration")
            self.n_win = bin_count(cfg.premeasure_window, cfg.dt_bin,
                                   "premeasure_window")
            windows["premeasure_duration"] = cfg.premeasure_duration
        check_jumps(device, cfg, windows)
        self.model = TwoCavityModel(device)
        self.pulse = pulse
        self.bin_centers = (np.arange(self.n_bins) + 0.5) * cfg.dt_bin
        self.sigma_bin = noise_sigma_bin(device.eta, device.kappa_p, cfg.dt_bin)

        beta = self.model.filter_fields(pulse, self.bin_centers)
        _, self.rot = lo_rotation(beta[1] - beta[0])
        self.mean_bins = dict(zip((-1, +1), np.real(self.rot * beta)))

        pre_words = 0
        if cfg.preselect:
            self.pre_pulse = PulseEnvelope(
                kind="gated",
                amplitude=pulse.amplitude * cfg.premeasure_amplitude,
                total_duration=cfg.premeasure_duration,
            )
            self.pre_centers = (np.arange(self.n_pre) + 0.5) * cfg.dt_bin
            # every bin centre meets the photon ceiling, as in the measurement
            # window; only the last n_win bins enter the premeasurement value
            beta = self.model.filter_fields(self.pre_pulse,
                                            self.pre_centers)[:, -self.n_win:]
            self.pre_bins = dict(zip((-1, +1), np.real(self.rot * beta)))
            self.p_reset = 1.0 - math.exp(-cfg.reset_gap / device.T1)
            pre_words = K_JUMPS + _even(self.n_win) + 1
        #: words per shot in the stream (see the module docstring)
        self.n_words = -(-(2 + pre_words + K_JUMPS + _even(self.n_bins)) // 4) * 4

        # the mean waits of the K jump words of a window started in state s
        mean_wait = mean_waits(device, cfg)
        self._waits = {s: np.array([mean_wait[s * (-1) ** k]
                                    for k in range(K_JUMPS)]) for s in (-1, +1)}
        self._key = cfg.master_seed

    def weights(self, tau: float) -> WeightFunction:
        """Mode-matched weights over [0, tau] from the bin-centre means."""
        return build_weights(self.bin_centers, self.mean_bins[-1],
                             self.mean_bins[+1], tau, self.cfg.dt_bin)

    # -- random draws -------------------------------------------------------------

    def _jumps(self, e, s, t1, first, window):
        """Jumps in [0, t1) of the shots first, first + 1, ... (one per row)
        from states s and the standard exponentials e = -log(u) (m, K) of
        their round-0 jump words u; e is left as it is, so the draws of one
        block can serve several chains.

        A row whose first wait already reaches t1 cannot jump and is
        dropped before any sum. A row stays open while its round's K-th sum
        is below t1; round r >= 1 sums on from there shot i's words [i K,
        (i + 1) K) of Philox(key=(master_seed, 2 r - 1 + window)), window 0
        premeasurement and 1 measurement, read as one random_raw over the
        open rows' span. Returns the final states, the overflow mask (rows
        that needed round 1) and the (row, time, decay) jumps, rows then
        times ascending: round 0 lists them so, and later rounds are sorted
        in.
        """
        s = s.copy()
        over = np.zeros(len(s), dtype=bool)
        rows = np.flatnonzero(
            e[:, 0] * np.where(s > 0, self._waits[+1][0], self._waits[-1][0]) < t1)
        waits, t0, found = e[rows], np.zeros(len(rows)), []
        for r in itertools.count():
            if r:
                bits = np.random.Philox(key=[self._key, 2 * r - 1 + window])
                bits.advance(int(first + rows[0]))
                words = bits.random_raw((rows[-1] + 1 - rows[0]) * K_JUMPS)
                waits = -np.log(_unit(words.reshape(-1, K_JUMPS)[rows - rows[0]]))
            s_r = s[rows]
            waits *= np.where(s_r[:, None] > 0, self._waits[+1], self._waits[-1])
            waits[:, 0] += t0
            times = np.cumsum(waits, axis=1)
            inside = times < t1
            row, k = np.nonzero(inside)
            found.append((rows[row], times[row, k], (s_r[row] > 0) == (k % 2 == 0)))
            s[rows] = np.where(np.count_nonzero(inside, axis=1) % 2 == 1, -s_r, s_r)
            still = inside[:, -1]
            if r == 0:
                over[rows] = still
            rows, t0 = rows[still], times[still, -1]
            if not len(rows):
                break
        if len(found) == 1:
            return s, over, found[0]
        row, time, decay = map(np.concatenate, zip(*found))
        order = np.argsort(row, kind="stable")
        return s, over, (row[order], time[order], decay[order])

    # -- noise-free means, all shots at once ------------------------------------

    def _add_means(self, out, s0, jump_shot, jump_time, pulse, times, mean_bins):
        """out += noise-free quadratures at `times` (a uniform grid) per row,
        conditioned on the row's jumps (jump_shot rows ascending, jump_time
        ascending within a row); in place, so out = mean + noise bit for bit.

        Every row first gets the no-jump means mean_bins[s0]; the samples
        before a row's first jump keep them. After the row's jump into
        state s at t_j its field is x(t) = X_s(t) + V_s exp(lambda_s (t -
        t_j)) c_j (module docstring), where continuity at t_j gives c_j =
        Vi_s (x(t_j) - X_s(t_j)) and x(t_j) = X_s'(t_j) + V_s' exp(lambda_s'
        (t_j - t_j-1)) c_j-1 in the state s' left (the second term is absent
        at a row's first jump). Jump rows are taken _JUMP_CHUNK at a time:
        one trace of both states at the chunk's jump times, then c_j for
        all first jumps, all second jumps, and so on. A sample k belongs to
        the last jump it passes by more than 1e-15 s (the rule of trace)
        and becomes mean_bins[s][k] + Re(rot V_s[1] exp(lambda_s (t_k -
        t_j)) c_j); the exponential is a per-state table of exp(lambda_s m
        dt) at m = k - k_j, k_j the jump's first sample, times the per-jump
        factor exp(lambda_s (t_k_j - t_j)).
        """
        n = out.shape[1]
        first, counts = _runs(jump_shot)
        jump_rows = jump_shot[first]
        jump_noise = out[jump_rows]
        excited = (s0 > 0)[:, None]
        np.add(out, mean_bins[+1], out=out, where=excited)
        np.add(out, mean_bins[-1], out=out, where=~excited)
        lam, V, Vi = self.model._lam, self.model._V, self.model._Vi
        means = np.array([mean_bins[-1], mean_bins[+1]])
        # (state, m, mode): rot V_s[1] exp(lambda_s m dt), state 0 g and 1 e
        table = self.rot * V[:, None, 1] \
            * np.exp(lam[:, None] * (times - times[0])[:, None])
        # Vi_s V_s' for the state s entered and the state s' left
        basis = Vi @ V[::-1]
        # per jump: its row's place in jump_rows, its rank in the row and
        # its first sample
        pos = np.repeat(np.arange(len(jump_rows)), counts)
        rank = np.arange(len(jump_shot)) - first[pos]
        k0 = np.searchsorted(times, jump_time + 1e-15, side="right")
        bounds = np.append(first, len(jump_shot))
        for a in range(0, len(jump_rows), _JUMP_CHUNK):
            j = slice(bounds[a], bounds[min(a + _JUMP_CHUNK, len(jump_rows))])
            # jumps after the last sample end their rows and change nothing
            keep = k0[j] < n
            row, p, q, t, k = (x[j][keep] for x in (jump_shot, pos, rank,
                                                     jump_time, k0))
            if not len(t):
                continue
            after = ((s0[row] > 0) + q + 1) % 2

            # X_g and X_e at the jump times, then c_j: all first jumps, then
            # all second jumps, ...
            order = np.argsort(t, kind="stable")
            X = np.empty((2, len(t), 2), dtype=complex)
            X[:, order] = self.model.trace([-1, +1], pulse, t[order])
            at = np.arange(len(t))
            c = _apply(Vi[after], X[1 - after, at] - X[after, at])
            later = np.flatnonzero(q > 0)
            step = basis[after[later]] * np.exp(
                lam[1 - after[later]] * (t[later] - t[later - 1])[:, None])[:, None]
            by_rank = np.argsort(q[later], kind="stable")
            rank_end = np.cumsum(np.bincount(q[later]))
            for lo, hi in zip(rank_end[:-1], rank_end[1:]):
                i = by_rank[lo:hi]
                c[later[i]] += _apply(step[i], c[later[i] - 1])

            # jump j sets the samples k_j + m of its row up to the next jump,
            # or to n after the row's last jump; computed in place, so a
            # chunk holds few temporaries of one value per sample
            last = np.append(row[1:] != row[:-1], True)
            length = np.where(last, n, np.append(k[1:], n)) - k
            w = np.exp(lam[after] * (times[k] - t)[:, None]) * c
            seg = np.repeat(at, length)
            m = np.arange(len(seg))
            m -= (np.cumsum(length) - length)[seg]
            state, kk = after[seg], k[seg]
            kk += m
            z = table[state, m]
            z *= w[seg]
            mean = z[:, 0].real + z[:, 1].real
            del z
            mean += means[state, kk]
            mean += jump_noise[p[seg], kk]
            out[row[seg], kk] = mean

    # -- a batch of shots --------------------------------------------------------

    def run(self, shots: range, excited=None) -> ShotBatch:
        """The shots of the range `shots` with the boolean prepared labels
        `excited`, true for e (None: g, e, g, e, ... by index parity); shot i
        depends only on (master_seed, i).

        Shot i reads the words [i W, (i + 1) W), W = n_words, of
        Philox(key=(master_seed, 0)): thermal, then with preselection K
        premeasurement jump words, n_win noise words (padded to even) and
        the reset word, then prep, K jump words and n_bins noise words
        (padded to even). Normals are Box-Muller pairs of words, waits
        -log(u) times the mean wait, K = K_JUMPS; further rounds of K waits
        come from Philox(key=(master_seed, 2 r - 1 + window)) (_jumps). The
        module docstring gives every rule. Each chunk of _CHUNK shots is one
        random_raw draw; samples are filled in place with the noise, scaled
        by sigma_bin, and the conditioned means are added for all shots
        at the end.
        """
        excited = _labels(shots, excited)
        cfg = self.cfg
        n = len(shots)
        bits = np.random.Philox(key=[self._key, 0])
        bits.advance(shots.start * self.n_words // 4)
        n_pre_noise = _even(self.n_win) if cfg.preselect else 0

        samples = np.empty((n, self.n_bins))
        s_main = np.empty(n, dtype=int)
        overflow = np.zeros(n, dtype=bool)
        no_jumps = (np.empty(0, dtype=int), np.empty(0), np.empty(0, dtype=bool))
        jumps = [no_jumps]
        if cfg.preselect:
            s_pre = np.empty(n, dtype=int)
            pre = np.empty((n, self.n_win))
            pre_jumps = [no_jumps]
        for a in range(0, n, _CHUNK):
            b = min(a + _CHUNK, n)
            u = _unit(bits.random_raw((b - a) * self.n_words)).reshape(b - a, -1)
            s = np.where(u[:, 0] < cfg.p_thermal, 1, -1)
            c = 1
            if cfg.preselect:
                s_pre[a:b] = s
                s, over, (row, time, decay) = self._jumps(
                    -np.log(u[:, c:c + K_JUMPS]), s, cfg.premeasure_duration,
                    shots.start + a, 0)
                overflow[a:b] |= over
                pre_jumps.append((row + a, time, decay))
                c += K_JUMPS
                _box_muller(u[:, c:c + n_pre_noise], pre[a:b])
                pre[a:b] *= self.sigma_bin
                c += n_pre_noise
                # reset gap: cavity returns to vacuum, qubit only decays
                s = np.where((s > 0) & (u[:, c] < self.p_reset), -1, s)
                c += 1
            s = np.where(excited[a:b] & (u[:, c] >= cfg.prep_error), -s, s)
            s_main[a:b] = s
            c += 1
            _, over, (row, time, decay) = self._jumps(
                -np.log(u[:, c:c + K_JUMPS]), s, self.n_bins * cfg.dt_bin,
                shots.start + a, 1)
            overflow[a:b] |= over
            jumps.append((row + a, time, decay))
            c += K_JUMPS
            _box_muller(u[:, c:c + _even(self.n_bins)], samples[a:b])
            samples[a:b] *= self.sigma_bin

        row, time, decay = map(np.concatenate, zip(*jumps))
        self._add_means(samples, s_main, row, time, self.pulse, self.bin_centers,
                        self.mean_bins)
        preselect = None
        if cfg.preselect:
            pre_row, pre_time, _ = map(np.concatenate, zip(*pre_jumps))
            self._add_means(pre, s_pre, pre_row, pre_time, self.pre_pulse,
                            self.pre_centers[-self.n_win:], self.pre_bins)
            preselect = np.mean(pre, axis=1)
        return ShotBatch(excited, samples, preselect, row, time, decay, overflow)

    def _mean_q(self, s0, jump_shot, jump_time, w: WeightFunction):
        """q_tau of the noise-free means of rows that start in states s0 and
        jump at jump_time (jump_shot rows ascending), over the len(w) bins
        of the weights w: integrate_batch of mean_bins[s0] for a row without
        jumps, of _add_means on a zero record for the others."""
        n, kappa_p = len(w.w), self.device.kappa_p
        means = {s: m[:n] for s, m in self.mean_bins.items()}
        still = integrate_batch(np.array([means[-1], means[+1]]), w, kappa_p)
        q = np.where(s0 > 0, still[1], still[0])
        first, counts = _runs(jump_shot)
        rows = jump_shot[first]
        if len(rows):
            jump_row = np.repeat(np.arange(len(rows)), counts)
            mean = np.zeros((len(rows), n))
            self._add_means(mean, s0[rows], jump_row, jump_time, self.pulse,
                            self.bin_centers[:n], means)
            q[rows] = integrate_batch(mean, w, kappa_p)
        return q

    def map_q(self, draw: QDraw, excited, w: WeightFunction):
        """q_tau of the block of shots `draw` (one item of q_draws) with the
        boolean prepared labels `excited` (one per row), over the weights
        w: the map of sample_q, which leaves `draw` as it is."""
        cfg = self.cfg
        s = np.where(draw.thermal < cfg.p_thermal, 1, -1)
        s = np.where(excited & (draw.prep >= cfg.prep_error), -s, s)
        _, _, (row, time, _) = self._jumps(draw.unit_waits, s,
                                           len(w.w) * cfg.dt_bin, draw.first, 1)
        q = self._mean_q(s, row, time, w)
        # the spread 1/(2 sqrt(eta)) of q for unit-norm weights
        q += draw.z * (0.5 / math.sqrt(self.device.eta))
        return q

    def sample_q(self, shots: range, tau: float, excited=None):
        """q_tau of the shots of the range `shots` with the boolean prepared
        labels `excited` (None: g, e, g, e, ... by index parity), drawn in q
        space; returns (q, excited). Shot i depends only on (master_seed, i).

        q is linear in the white noise of the bins, so given a shot's jumps
        it is Gaussian with variance 1/(4 eta) about the q of its noise-free
        conditioned means, integrated by integrate_batch: mean_bins[s] for a
        shot without jumps, _add_means on the first len(w) bins for the others.
        Shot i reads the words [i Q, (i + 1) Q), Q = _Q_WORDS, of
        Philox(key=(master_seed, Q_STREAM)): thermal, prep, K jump words over
        [0, len(w) dt_bin) and one normal pair (module docstring); further
        rounds of waits come from the streams of run. The q of a shot is
        not the one run gives it. Each block of _Q_CHUNK shots is one draw
        of q_draws, mapped to q by map_q; the draws do not depend on the
        chain, so chains that share a master seed can share them
        (optimize.power_tradeoff). Preselection raises ValueError: its
        premeasurement needs run.
        """
        if self.cfg.preselect:
            raise ValueError("sample_q draws no premeasurement; use run")
        excited = _labels(shots, excited)
        w = self.weights(tau)
        q = np.empty(len(shots))
        for draw in q_draws(self._key, shots):
            q[draw.rows] = self.map_q(draw, excited[draw.rows], w)
        return q, excited


class QDraw(NamedTuple):
    """The draws of one block of shots of the q-space stream: rows, the
    block's place in its range; first, the index of its first shot; and
    per shot the thermal and prep words u, its round-0 waits in units of
    the mean wait, the standard exponentials -log(u) (m, K_JUMPS) of its
    jump words, and the standard normal z of its normal pair."""

    rows: slice
    first: int
    thermal: np.ndarray
    prep: np.ndarray
    unit_waits: np.ndarray
    z: np.ndarray


def q_draws(master_seed: int, shots: range):
    """The q-space stream's draws of the range `shots` (a range of
    consecutive indices), one QDraw per block of _Q_CHUNK shots, each block
    one random_raw of Philox(key=(master_seed, Q_STREAM)). Shot i's words
    are [i Q, (i + 1) Q), Q = _Q_WORDS, whatever the chain that maps them
    (ReadoutChain.map_q)."""
    bits = np.random.Philox(key=[master_seed, Q_STREAM])
    bits.advance(shots.start * _Q_WORDS // 4)
    for a in range(0, len(shots), _Q_CHUNK):
        b = min(a + _Q_CHUNK, len(shots))
        u = _unit(bits.random_raw((b - a) * _Q_WORDS)).reshape(b - a, -1)
        z = np.empty((b - a, 1))
        _box_muller(u[:, -2:], z)
        # the draw keeps 7 of the 8 values a shot, not the block of words
        draw = QDraw(slice(a, b), shots.start + a, u[:, 0].copy(), u[:, 1].copy(),
                     -np.log(u[:, 2:2 + K_JUMPS]), z[:, 0])
        del u
        yield draw


def simulate_batch(device: DeviceParams, pulse: PulseEnvelope, cfg: ShotConfig,
                   shots: range | None = None) -> ShotBatch:
    """Generate the shots of the range `shots` (None: all cfg.n_shots) as a
    ShotBatch, prepared g, e, g, e, ... by index parity. Shot i depends only
    on (master_seed, i), so consecutive ranges give the rows of one batch."""
    if shots is None:
        shots = range(cfg.n_shots)
    return ReadoutChain(device, pulse, cfg).run(shots)


# ---------------------------------------------------------------------------
# preselection
# ---------------------------------------------------------------------------

def preselection_threshold(q_p) -> float:
    """Threshold on the premeasurement values q_p above which a shot
    flags an initially excited qubit.

    Fits a single Gaussian to the q_p histogram, (mu, sigma) by
    least_squares and its amplitude in closed form (analysis.NormalColumns),
    and returns the 99% point of the fitted CDF, mu + 2.326 sigma. Fewer
    than MIN_PRESELECT values, values that are not finite, a histogram
    range that is zero or not finite, and a fit that does not converge
    raise FitError.
    So does a 99% point above every value of a column so long that a
    Gaussian it fits would leave that tail empty with probability 0.99^n
    below EMPTY_TAIL_P (n >= 1375): the fit then misses the column, and
    the threshold would reject no shot.
    """
    q_p = np.asarray(q_p, dtype=float)
    if len(q_p) < MIN_PRESELECT:
        raise FitError(f"preselection needs at least {MIN_PRESELECT} records")
    if np.any(~np.isfinite(q_p)):
        raise FitError("records lack preselection values")

    # one copy of q_p, partitioned for the median and the quartiles, then
    # overwritten with |q_p - med|. The core, the values within 4 sig0 of
    # med, is an interval: the histogram of q_p over [lo, hi] counts it
    dev = q_p.copy()
    med = float(np.median(dev, overwrite_input=True))
    iqr = float(np.subtract(*np.percentile(dev, [75, 25], overwrite_input=True)))
    sig0 = max(iqr / 1.349, 1e-12 * (1.0 + abs(med)))
    inside = np.abs(np.subtract(q_p, med, out=dev), out=dev) < 4.0 * sig0
    del dev
    lo = float(np.min(q_p, where=inside, initial=np.inf))
    hi = float(np.max(q_p, where=inside, initial=-np.inf))
    n_bins = max(40, int(math.sqrt(np.count_nonzero(inside))))
    # the bins of np.histogram_bin_edges, which fails on a range it cannot
    # split into n_bins increasing edges
    edges = np.linspace(lo, hi, n_bins + 1) if math.isfinite(hi - lo) else None
    if edges is None or not np.all(edges[1:] > edges[:-1]):
        raise FitError(f"preselection values spread over {hi - lo:g} around "
                       f"{med:g}, too little to histogram in {n_bins} bins")
    counts, _ = np.histogram(q_p, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    model = NormalColumns(centers, counts)
    binw = float(centers[1] - centers[0])
    sol = least_squares(model, [med, sig0],
                        bounds=([-np.inf, binw / 10.0], np.inf), max_nfev=5000)
    if not sol.success:
        raise FitError(f"preselection Gaussian fit failed: {sol.message}")
    mu, sigma = (float(v) for v in sol.x)
    threshold = mu + Z99 * sigma
    chance = 0.99 ** len(q_p)
    if chance < EMPTY_TAIL_P and float(np.max(q_p)) <= threshold:
        raise FitError(f"preselection Gaussian fit: its 99% point {threshold:g} "
                       f"lies above all {len(q_p)} premeasurement values, which "
                       f"a fitting Gaussian gives with probability {chance:.2g}")
    return threshold


def run_preselection(batch: ShotBatch):
    """Reject shots whose premeasurement flags an initially excited qubit
    (preselection_threshold). Returns (surviving ShotBatch, rejected
    fraction).
    """
    kept = batch.select(batch.preselect <= preselection_threshold(batch.preselect))
    return kept, 1.0 - len(kept) / len(batch)
