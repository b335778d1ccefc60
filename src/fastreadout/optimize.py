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

from .analysis import MIN_COUNTS, error_budget, fit_shot_histogram_stack, \
    overlap_vs_power
from .dynamics import GRID_STEP, PulseEnvelope, SignalTrace, TwoCavityModel, \
    _qss_from_phases, _qss_phases, full_model_signal, integrated_rate
from .errors import ConfigError, NoSignalError
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
#: search stop: bracket width relative to the start, and most steps
_TOL, _MAX_ITER = 1e-5, 200
#: samples of one stacked solve, summed over its candidates (and the two
#: prepared states of a two-cavity candidate): about 1.3 MB of temporaries.
#: A block of a search step holds as many candidates as fit, or one alone
#: where one exceeds it, as every candidate was solved before
_STACK_SAMPLES = 2**14

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0


def _brent(a: float, b: float, start=()):
    """Brent's search for the argmax of a unimodal score on [a, b] (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 5), as a
    generator: it yields each point to score, is sent that point's score,
    and returns its best point once the bracket around it is at most _TOL
    of b - a wide, or after _MAX_ITER steps.

    start is empty, or three scored points (x, score) of [a, b], best
    first, the best strictly inside: then the search takes a parabolic
    step through them first, as if its last two steps had spanned [a, b].
    """
    tol1 = 0.25 * _TOL * (b - a)  # least step; the stop leaves a bracket of 4 tol1
    if start:
        (x, fx), (w, fw), (v, fv) = ((p, -score) for p, score in start)
        d = e = b - a
    else:
        x = w = v = a + _CGOLD * (b - a)
        fx = fw = fv = -(yield x)
        d = e = 0.0
    for _ in range(_MAX_ITER):
        m = 0.5 * (a + b)
        if abs(x - m) <= 2.0 * tol1 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1:
            # the vertex of the parabola through x, w and v, at x + p / q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # accepted inside the bracket and below half the step before last
            parabolic = abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x)
        if parabolic:
            e, d = d, p / q
            if x + d - a < 2.0 * tol1 or b - (x + d) < 2.0 * tol1:
                d = tol1 if x < m else -tol1
        else:
            e = (b if x < m else a) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = -(yield u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x


def _brent_max(f, searches) -> np.ndarray:
    """The results of _brent searches, stepped in lockstep: f(x, k) takes
    arrays of points and of the search each belongs to, and each step
    scores the next point of every search still open in one call."""
    out = np.empty(len(searches))
    sent = dict.fromkeys(range(len(searches)))
    while True:
        points = {}
        for k, score in sent.items():
            try:
                points[k] = searches[k].send(score)
            except StopIteration as stop:
                out[k] = stop.value
        if not points:
            return out
        k = np.fromiter(points, int, len(points))
        x = np.fromiter(points.values(), float, len(points))
        sent = dict(zip(points, f(x, k).tolist()))


def _maximize(f, lo: float, hi: float, m: int) -> np.ndarray:
    """Argmax on [lo, hi] of each of m scores: f(x, k) takes arrays of
    points and of the score each is for (0 <= k < m) and returns f_k(x)
    for each.

    One call scores the pre-scan of _N_SCAN points, the same points for
    every score. Scores whose scan has several separated maxima are
    scanned again on _N_FALLBACK points, in one more call; a score with
    no positive value on that scan has no signal to maximize, and raises
    NoSignalError(k). Then a Brent search refines each best point within
    its neighbours, all searches in lockstep (_brent_max); a search whose
    best point is interior starts from it and its two neighbours.
    """
    searches = [None] * m
    todo = np.arange(m)
    for n in (_N_SCAN, _N_FALLBACK):
        xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
        fs = f(np.tile(xs, len(todo)), np.repeat(todo, n)).reshape(len(todo), n)
        peaks = (fs[:, 1:-1] >= fs[:, :-2]) & (fs[:, 1:-1] >= fs[:, 2:])
        done = (np.count_nonzero(peaks, axis=1) <= 1) | (n == _N_FALLBACK)
        for k, row in zip(todo[done].tolist(), fs[done].tolist()):
            best = max(range(n), key=row.__getitem__)
            if n == _N_FALLBACK and not row[best] > 0.0:
                raise NoSignalError(k)
            around = range(max(best - 1, 0), min(best + 2, n))
            start = sorted(((xs[i], row[i]) for i in around),
                           key=lambda point: -point[1]) if len(around) == 3 else ()
            searches[k] = _brent(xs[around[0]], xs[around[-1]], start)
        todo = todo[~done]
        if not todo.size:
            break
    return _brent_max(f, searches)


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
    A tau whose rate is not positive at any scanned ratio raises
    NoSignalError, naming n_drive.
    """
    if model not in ("qss", "full"):
        raise ConfigError(f"unknown model {model!r}")
    taus = np.asarray(tau_grid, dtype=float)
    if not np.all(taus > 0.0):
        raise ConfigError("tau_grid entries must be positive")
    objective = _qss_objective if model == "qss" else _full_objective
    try:
        return _maximize(objective(device, taus), *RATIO_BOUNDS, len(taus))
    except NoSignalError as exc:
        tau = taus[exc.args[0]]
        lo, hi = RATIO_BOUNDS
        raise NoSignalError(
            f"the rate at tau = {tau:g} s is not positive at any of "
            f"{_N_FALLBACK} ratios in [{lo:g}, {hi:g}]: n_drive = "
            f"{device.n_drive:g} gives no signal") from None


@dataclass
class PowerPoint:
    """One row of the drive-power tradeoff table."""

    n_drive: float
    eps_o: float
    fidelity_mc: float
    gamma_mix: float


def power_tradeoff(device: DeviceParams, shot_cfg: ShotConfig, n_grid,
                   tau: float, mix_coeff: float | None = DEFAULT_MIX_COEFF
                   ) -> list[PowerPoint]:
    """Analytic overlap error and Monte Carlo fidelity versus drive power.
    Each power's chain is the run's `device` and `shot_cfg` with three
    things set by the sweep: n_drive, the power; both mixing rates,
    mix_coeff * lambda(n) * n (mix_coeff=None disables mixing); and a gated
    pulse of max(160 ns, tau + 24 ns), which measure_duration must not
    outlast. Preselection is refused: map_q draws no premeasurement.

    The shots' q are drawn in q space: every power reads the same words of
    the master seed's q-space stream, so each block of shots is drawn once
    (shots.q_draws) and mapped to q by the chain of every power
    (ReadoutChain.map_q), bit for bit the q of one sample_q per power. The
    q of all powers are held at once, len(n_grid) x 8 bytes a shot, and
    fitted after the last block, all powers' mixture fits in lockstep
    (analysis.fit_shot_histogram_stack).

    The eps_o column is overlap_vs_power's, which checks the drive powers;
    the mean qubit jumps of every power, n_shots // 2 against the mixture
    fit's MIN_COUNTS, and then preselect are checked before any chain is
    built.
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
        cfg = replace(shot_cfg, gamma_mix_up=g_mix, gamma_mix_down=g_mix)
        check_jumps(dev_n, cfg,
                    {"measurement window": window_bins(pulse, cfg) * cfg.dt_bin},
                    f"mix_coeff = {mix:g} Hz at n_drive = {n:g} of power_grid: ")
        cfgs.append((dev_n, cfg))
    n_shots = shot_cfg.n_shots
    if n_shots // 2 < MIN_COUNTS:
        raise ConfigError(f"n_shots = {n_shots} prepares {n_shots // 2} shots in "
                          f"e, fewer than the fit's {MIN_COUNTS} per state")
    if shot_cfg.preselect:
        raise ConfigError("preselect = true: the power sweep draws its shots "
                          "in q space, which holds no premeasurement")

    chains = [ReadoutChain(dev_n, pulse, cfg) for dev_n, cfg in cfgs]
    weights = [chain.weights(tau) for chain in chains]
    shots = range(n_shots)
    excited = _labels(shots, None)
    qs = np.empty((len(chains), n_shots))
    for draw in q_draws(shot_cfg.master_seed, shots):
        for chain, w, q in zip(chains, weights, qs):
            q[draw.rows] = chain.map_q(draw, excited[draw.rows], w)

    out = []
    fits = fit_shot_histogram_stack(qs, excited)
    for n, eps_o, (_, cfg), q, (fit, *_) in zip(n_grid, eps_curve, cfgs, qs, fits):
        budget = error_budget(q, excited, fit)
        out.append(PowerPoint(n_drive=float(n), eps_o=float(eps_o),
                              fidelity_mc=budget.fidelity,
                              gamma_mix=cfg.gamma_mix_up))
    return out
