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

from .analysis import MIN_COUNTS, error_budget, fit_shot_histograms, \
    overlap_vs_power
from .dynamics import GRID_STEP, PulseEnvelope, SignalTrace, TwoCavityModel, \
    _qss_from_phases, _qss_phases, full_model_signal, integrated_rate
from .errors import ConfigError
from .params import DeviceParams, effective_linewidth
from .shots import ReadoutChain, ShotConfig, _labels, check_jumps, q_draws, \
    sample_count, window_bins

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
#: samples of one stacked solve, summed over its candidates (and the two
#: prepared states of a two-cavity candidate): about 1.3 MB of temporaries.
#: A block of a search step holds as many candidates as fit, or one alone
#: where one exceeds it, as every candidate was solved before
_STACK_SAMPLES = 2**14

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(f, lo, hi) -> np.ndarray:
    """Golden-section searches for the argmax of unimodal functions, search
    k on [lo[k], hi[k]], stepped in lockstep: f(x, k) takes arrays of
    points and of the search each belongs to, and each step makes one call
    for the searches still open."""
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    k = np.arange(len(a))
    fc, fd = np.split(f(np.concatenate((c, d)), np.concatenate((k, k))), 2)
    width0 = b - a
    for _ in range(_MAX_ITER):
        k = np.flatnonzero(~(b - a <= _TOL * width0))
        if not k.size:
            break
        left = fc[k] > fd[k]
        kl, kr = k[left], k[~left]
        b[kl], d[kl], fd[kl] = d[kl], c[kl], fc[kl]
        c[kl] = b[kl] - _INVPHI * (b[kl] - a[kl])
        a[kr], c[kr], fc[kr] = c[kr], d[kr], fd[kr]
        d[kr] = a[kr] + _INVPHI * (b[kr] - a[kr])
        fx = f(np.where(left, c[k], d[k]), k)
        fc[kl], fd[kr] = fx[left], fx[~left]
    return np.where(fc > fd, c, d)


def _maximize(f, lo: float, hi: float, m: int) -> np.ndarray:
    """Argmax on [lo, hi] of each of m functions: f(x, k) takes arrays of
    points and of the function each is for (0 <= k < m) and returns f_k(x)
    for each.

    One call scores the pre-scan of _N_SCAN points, the same points for
    every function. Functions whose scan has several separated maxima are
    scanned again on _N_FALLBACK points, in one more call. Then a
    golden-section search refines each best point within its neighbours,
    all searches in lockstep.
    """
    lo_k, hi_k = np.empty(m), np.empty(m)
    todo = np.arange(m)
    for n in (_N_SCAN, _N_FALLBACK):
        xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
        fs = f(np.tile(xs, len(todo)), np.repeat(todo, n)).reshape(len(todo), n)
        peaks = (fs[:, 1:-1] >= fs[:, :-2]) & (fs[:, 1:-1] >= fs[:, 2:])
        done = (np.count_nonzero(peaks, axis=1) <= 1) | (n == _N_FALLBACK)
        for k, row in zip(todo[done].tolist(), fs[done].tolist()):
            best = max(range(n), key=row.__getitem__)
            lo_k[k], hi_k[k] = xs[max(best - 1, 0)], xs[min(best + 1, n - 1)]
        todo = todo[~done]
        if not todo.size:
            break
    return _golden_section_max(f, lo_k, hi_k)


def _blocks(samples: np.ndarray) -> list[np.ndarray]:
    """Consecutive blocks of the candidates, in the order given, each stacked
    on the grid of its last: a block holds as many as fit _STACK_SAMPLES at
    samples[last] each, and at least one."""
    blocks, a = [], 0
    while a < len(samples):
        b = a + 1
        while b < len(samples) and (b + 1 - a) * samples[b] <= _STACK_SAMPLES:
            b += 1
        blocks.append(np.arange(a, b))
        a = b
    return blocks


def _j_for_kappa_eff(kappa_eff, Q_p: float, omega_p: float, delta_p: float):
    """Invert the kappa_eff formula for the resonator-filter coupling J."""
    return np.sqrt(kappa_eff * (omega_p + 4.0 * delta_p ** 2 * Q_p ** 2 / omega_p)
                   / (4.0 * Q_p))


def _qss_objective(device: DeviceParams, taus: np.ndarray):
    """f(r, k): s(taus[k]) of the closed-form signal at kappa_eff = |chi|/r,
    a trapezoid of _QSS_STEPS steps on [0, tau]; one stacked evaluation per
    block of (r, tau) pairs. Each tau's grid and its sin and cos rows are
    computed once, for every call."""
    chi = device.chi
    grid = np.ascontiguousarray(np.linspace(0.0, taus, _QSS_STEPS + 1, axis=-1))
    sin_t, cos_t = _qss_phases(chi, grid)

    def f(r, k):
        out = np.empty(len(r))
        for block in _blocks(np.full(len(r), _QSS_STEPS + 1)):
            rows = k[block]
            t = grid[rows]
            values = _qss_from_phases(device.n_drive, chi,
                                      (abs(chi) / r[block])[:, None], t,
                                      sin_t[rows], cos_t[rows])
            out[block] = np.trapezoid(values, t, axis=-1) / np.sqrt(taus[rows])
        return out
    return f


def _full_objective(device: DeviceParams, taus: np.ndarray):
    """f(r, k): s(taus[k]) of the two-cavity signal under a gated pulse of
    tau + 10 ns, from GRID_STEP samples, with J set to realize kappa_eff =
    |chi|/r.

    On [0, tau] the field does not depend on how long the pulse lasts past
    tau, and the grids of all tau are prefixes of the longest one. So each
    distinct r of a call is solved once, up to the longest tau it is scored
    at (its reach), and one cumulative trapezoid gives its rate at every
    tau. The candidates are stacked in blocks of similar reach, each solved
    on the grid of its longest reach, and each candidate meets
    PHOTON_CEILING on the grid of its own reach only, as when every tau had
    its own solve.
    """
    chi = abs(device.chi)

    def f(r, k):
        cands, inv = np.unique(r, return_inverse=True)
        tau_k, tau_inv = np.unique(taus[k], return_inverse=True)
        reach = np.zeros(len(cands))
        np.maximum.at(reach, inv, tau_k[tau_inv])
        with np.errstate(over="ignore", invalid="ignore"):
            J = _j_for_kappa_eff(chi / cands, device.Q_p, device.omega_p,
                                 device.delta_p)
            kappa = effective_linewidth(J, device.Q_p, device.omega_p, device.delta_p)
        for j in J[~(np.isfinite(kappa) & (kappa != 0.0))].tolist()[:1]:
            replace(device, J=j)  # raises the ConfigError of that coupling
        # the sample count of np.arange(0.0, reach + GRID_STEP, GRID_STEP)
        n_own = np.ceil((reach + GRID_STEP) / GRID_STEP).astype(int)
        order = np.argsort(reach, kind="stable")
        rates = np.empty((len(cands), len(tau_k)))
        for block in _blocks(2 * n_own[order]):
            block = order[block]
            within = np.searchsorted(tau_k, reach[block[-1]], side="right")
            rates[block, :within] = _stacked_rates(device, J[block], n_own[block],
                                                   tau_k[:within])
        return rates[inv, tau_inv]
    return f


def _stacked_rates(device: DeviceParams, J: np.ndarray, n_own: np.ndarray,
                   taus: np.ndarray) -> np.ndarray:
    """Rates (len(J), len(taus)) of the couplings J, stacked in one solve on
    the GRID_STEP grid of [0, taus[-1]] under a gated pulse of taus[-1] +
    10 ns; coupling k meets PHOTON_CEILING on its first n_own[k] samples.
    Its arrays are freed on return, before the next block is solved."""
    times = np.arange(0.0, taus[-1] + GRID_STEP, GRID_STEP)
    pulse = PulseEnvelope(kind="gated", total_duration=taus[-1] + 10e-9)
    model = TwoCavityModel(device, J)
    fields = model.trace([-1, +1], pulse, times)
    model.check_ceiling(fields, n_own)
    return integrated_rate(SignalTrace(times, model.signal(fields[..., 1])), taus)


def optimal_ratio_vs_tau(device: DeviceParams, tau_grid,
                         model: str = "qss") -> np.ndarray:
    """|chi/kappa_eff| in RATIO_BOUNDS maximizing s(tau), per tau, at fixed
    chi.

    model 'qss' uses the closed-form single-cavity signal; 'full' re-solves
    the two-cavity model with J adjusted to realize each candidate
    kappa_eff. The searches of all tau share each step's solve (_maximize).
    """
    if model not in ("qss", "full"):
        raise ConfigError(f"unknown model {model!r}")
    taus = np.asarray(tau_grid, dtype=float)
    if not np.all(taus > 0.0):
        raise ConfigError("tau_grid entries must be positive")
    objective = _qss_objective if model == "qss" else _full_objective
    return _maximize(objective(device, taus), *RATIO_BOUNDS, len(taus))


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
    with a gated pulse of max(160 ns, tau + 24 ns). The shots' q are drawn
    in q space: every power reads the same words of the master seed's
    q-space stream, so each block of shots is drawn once (shots.q_draws)
    and mapped to q by the chain of every power (ReadoutChain.map_q), bit
    for bit the q of one sample_q per power. The q of all powers are held
    at once, len(n_grid) x 8 bytes a shot, and fitted after the last block.

    Mixing rates scale as mix_coeff * lambda(n) * n; pass mix_coeff=None to
    disable mixing. The eps_o column is overlap_vs_power's, which checks
    the drive powers; the mean qubit jumps of every power are checked
    before any chain is built, and n_shots // 2 against the mixture fit's
    MIN_COUNTS before any shot is drawn.
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

    chains = [ReadoutChain(dev_n, pulse, cfg) for dev_n, cfg in cfgs]
    weights = [chain.weights(tau) for chain in chains]
    if n_shots // 2 < MIN_COUNTS:
        raise ConfigError(f"n_shots = {n_shots} prepares {n_shots // 2} shots in "
                          f"e, fewer than the fit's {MIN_COUNTS} per state")
    shots = range(n_shots)
    excited = _labels(shots, None)
    qs = np.empty((len(chains), n_shots))
    for draw in q_draws(master_seed, shots):
        for chain, w, q in zip(chains, weights, qs):
            q[draw.rows] = chain.map_q(draw, excited[draw.rows], w)

    out = []
    for n, eps_o, (_, cfg), q in zip(n_grid, eps_curve, cfgs, qs):
        fit, *_ = fit_shot_histograms(q, excited)
        budget = error_budget(q, excited, fit)
        out.append(PowerPoint(n_drive=float(n), eps_o=float(eps_o),
                              fidelity_mc=budget.fidelity,
                              gamma_mix=cfg.gamma_mix_up))
    return out
