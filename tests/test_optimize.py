import collections
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import DT_BIN, make_device, random_device
from fastreadout import optimize, shots
from fastreadout.analysis import error_budget, fit_shot_histograms, \
    overlap_vs_power
from fastreadout.errors import ConfigError, NoSignalError, PhotonCeilingError
from fastreadout.dynamics import GRID_STEP, PulseEnvelope, SignalTrace, \
    TwoCavityModel, full_model_signal, integrated_rate, qss_signal
from fastreadout.optimize import RATIO_BOUNDS, PowerPoint, _brent, _brent_max, \
    _full_objective, _maximize, _qss_objective, optimal_ratio_vs_tau, \
    power_tradeoff
from fastreadout.shots import ReadoutChain, ShotConfig


def tau_for(device, x):
    """Integration time giving the dimensionless product |chi| tau = x."""
    chi = abs(device.chi)
    return x / (2.0 * math.pi * chi)


class TestOptimalRatio:
    def test_long_window_limit(self, device):
        taus = [tau_for(device, 20.0), tau_for(device, 40.0)]
        ratios = optimal_ratio_vs_tau(device, taus, model="qss")
        assert np.allclose(ratios, 0.5, atol=0.005)

    def test_short_window_below_half(self, device):
        r = optimal_ratio_vs_tau(device, [tau_for(device, 2.0)], model="qss")[0]
        assert r < 0.45
        assert r == pytest.approx(0.194, abs=0.02)

    def test_monotone_toward_half(self, device):
        taus = [tau_for(device, x) for x in (2.0, 4.0, 8.0, 16.0, 32.0)]
        ratios = optimal_ratio_vs_tau(device, taus, model="qss")
        assert np.all(np.diff(ratios) >= -1e-6)
        assert ratios[-1] == pytest.approx(0.5, abs=0.005)

    def test_independent_of_drive_power(self, device):
        # the rate scales as sqrt(n): the argmax cannot move
        taus = [tau_for(device, 3.0)]
        r1 = optimal_ratio_vs_tau(device, taus, model="qss")[0]
        r2 = optimal_ratio_vs_tau(make_device(n_drive=0.7), taus,
                                  model="qss")[0]
        assert r1 == pytest.approx(r2, abs=1e-4)

    def test_full_model_below_qss(self, device):
        # the filter ring-up penalizes small kappa_eff harder, pulling the
        # optimum below the single-cavity answer at every window
        taus = [tau_for(device, x) for x in (4.5, 12.0)]
        r_qss = optimal_ratio_vs_tau(device, taus, model="qss")
        r_full = optimal_ratio_vs_tau(device, taus, model="full")
        assert np.all(r_full < r_qss)
        assert r_full[0] == pytest.approx(0.372, abs=0.03)

    def test_phases_computed_once_per_search(self, device, monkeypatch):
        # one (tau, time) grid of sin and cos rows serves every candidate
        # and step of the closed-form search
        calls = []
        phases = optimize._qss_phases
        monkeypatch.setattr(optimize, "_qss_phases", lambda chi, t: calls.append(
            t.shape) or phases(chi, t))
        taus = [tau_for(device, x) for x in (2.0, 4.5, 8.0)]
        optimal_ratio_vs_tau(device, taus, model="qss")
        assert calls == [(3, 1501)]

    def test_unknown_model(self, device):
        with pytest.raises(ConfigError):
            optimal_ratio_vs_tau(device, [56e-9], model="exact")


class TestSignalFamily:
    """QSS signals over (chi, ratio) at kappa_eff = |chi| / ratio, the drive
    tied to the dispersive scale: n_drive = 0.2 n_crit at n_crit = 14."""

    N_DRIVE = 0.2 * 14.0

    def test_shapes_and_keys(self):
        t = np.linspace(0.0, 400e-9, 801)
        for chi in (-4e6, -8e6):
            for ratio in (0.2, 0.5):
                values = qss_signal(self.N_DRIVE, chi, abs(chi) / ratio, t)
                assert values.shape == t.shape
                assert values[0] == pytest.approx(0.0, abs=1e-9)
                assert np.all(values >= -1e-12)

    def test_ring_up_time_scales_inversely_with_chi(self):
        # at fixed ratio the dynamics depend on t only through chi t
        t = np.linspace(0.0, 2e-6, 20001)

        def t95(chi):
            values = qss_signal(self.N_DRIVE, chi, abs(chi) / 0.5, t)
            return t[np.argmax(values >= 0.95 * values[-1])]

        assert t95(-4e6) / t95(-8e6) == pytest.approx(2.0, rel=0.05)

    def test_fast_ratio_wins_early(self):
        # over a 50 ns window the over-coupled (ratio 0.2) filter has
        # accumulated more separation: its ring-up is faster even though the
        # matched ratio 0.5 wins in steady state
        t = np.linspace(0.0, 60e-9, 601)
        chi = -7.9e6

        def rate(ratio):
            values = qss_signal(self.N_DRIVE, chi, abs(chi) / ratio, t)
            return integrated_rate(SignalTrace(times=t, values=values), 50e-9)

        assert rate(0.2) > rate(0.5)


class TestPowerTradeoff:
    def test_no_mixing_monotone(self, device):
        pts = power_tradeoff(device, ShotConfig(n_shots=8000, master_seed=7),
                             [1.0, 2.5, 5.0], 56e-9, mix_coeff=None)
        eps = [p.eps_o for p in pts]
        fid = [p.fidelity_mc for p in pts]
        assert np.all(np.diff(eps) < 0)
        assert fid[-1] >= fid[0]
        assert all(p.gamma_mix == 0.0 for p in pts)

    def test_interior_optimum_with_mixing(self, device):
        grid = [0.6, 1.2, 2.5, 5.0, 10.0]
        pts = power_tradeoff(device, ShotConfig(n_shots=20000, master_seed=7),
                             grid, 56e-9)
        infid = [1.0 - p.fidelity_mc for p in pts]
        best = int(np.argmin(infid))
        assert 0 < best < len(grid) - 1
        assert grid[best] == pytest.approx(2.5)
        # mixing rate grows superlinearly with power
        rates = [p.gamma_mix for p in pts]
        assert np.all(np.diff(rates) > 0)

    def test_eps_o_column_matches_overlap_curve(self, device, gated_pulse):
        from fastreadout.analysis import overlap_vs_power
        from fastreadout.dynamics import full_model_signal
        # gated_pulse is power_tradeoff's pulse at tau = 56 ns
        grid = np.array([1.0, 2.5])
        pts = power_tradeoff(device, ShotConfig(n_shots=2000, master_seed=1),
                             grid, 56e-9, mix_coeff=None)
        times = np.arange(0.0, gated_pulse.total_duration, 0.5e-9)
        trace = full_model_signal(device, gated_pulse, times)
        expected = overlap_vs_power(trace, device.eta, 56e-9,
                                    device.n_drive, grid)
        assert [p.eps_o for p in pts] == pytest.approx(list(expected), rel=1e-12)

    def test_one_chain_per_power(self, device, gated_pulse, monkeypatch):
        # each power's chain is the run's device and shot configuration
        # with the power's n_drive and mixing rates, under the sweep's pulse
        from fastreadout.shots import ReadoutChain
        built = []
        init = ReadoutChain.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ReadoutChain, "__init__", counting_init)
        grid = [1.0, 2.5, 5.0]
        shot_cfg = ShotConfig(n_shots=2000, master_seed=1, p_thermal=0.2,
                              prep_error=0.05, dt_bin=4e-9,
                              measure_duration=96e-9)
        pts = power_tradeoff(device, shot_cfg, grid, 56e-9)
        assert len(built) == len(grid)
        for (dev_n, pulse, cfg), n, p in zip(built, grid, pts):
            g = optimize.DEFAULT_MIX_COEFF * dev_n.lambda_mix * n
            assert dev_n == replace(device, n_drive=n)
            assert pulse == gated_pulse
            assert cfg == replace(shot_cfg, gamma_mix_up=g, gamma_mix_down=g)
            assert p.gamma_mix == g

    def test_too_many_jumps_refused_before_any_chain(self, device, monkeypatch):
        # at mix_coeff = 5e9 Hz the 160 ns window holds about 26 mean jumps
        # at n_drive = 1 and about 300 at n_drive = 5
        from fastreadout.shots import ReadoutChain
        built = []
        monkeypatch.setattr(ReadoutChain, "__init__",
                            lambda self, *args: built.append(args))
        with pytest.raises(ConfigError, match=r"mix_coeff = 5e\+09 Hz at "
                                              r"n_drive = 5 "):
            power_tradeoff(device, ShotConfig(n_shots=100), [1.0, 5.0], 56e-9,
                           mix_coeff=5e9)
        assert built == []

    def test_invalid_power(self, device):
        with pytest.raises(ConfigError, match="drive powers must be positive"):
            power_tradeoff(device, ShotConfig(n_shots=100), [0.0, 1.0], 56e-9)

    def test_too_few_shots_for_the_fit_refused_before_any_draw(self, device,
                                                              monkeypatch):
        # 1999 shots prepare 999 in e, below the mixture fit's floor of
        # 1000 counts per prepared state; 2000 prepare 1000 in each
        draws, q_draws = [], optimize.q_draws
        monkeypatch.setattr(optimize, "q_draws",
                            lambda *args: draws.append(args) or q_draws(*args))
        with pytest.raises(ConfigError, match="n_shots = 1999 "):
            power_tradeoff(device, ShotConfig(n_shots=1999), [1.0, 2.5], 56e-9)
        assert draws == []
        assert len(power_tradeoff(device, ShotConfig(n_shots=2000),
                                  [1.0, 2.5], 56e-9)) == 2
        assert len(draws) == 1


def per_power_rows(device, shot_cfg, grid, tau, mix):
    """power_tradeoff's rows from one chain and one sample_q per power, each
    drawing its own words of the q-space stream."""
    pulse = PulseEnvelope(kind="gated", total_duration=max(160e-9, tau + 24e-9))
    times = np.arange(0.0, pulse.total_duration, GRID_STEP)
    eps = overlap_vs_power(full_model_signal(device, pulse, times), device.eta,
                           tau, device.n_drive, grid)
    rows = []
    for n, eps_o in zip(grid, eps):
        dev_n = replace(device, n_drive=n)
        g_mix = mix * dev_n.lambda_mix * n
        cfg = replace(shot_cfg, gamma_mix_up=g_mix, gamma_mix_down=g_mix)
        q, excited = ReadoutChain(dev_n, pulse, cfg).sample_q(
            range(cfg.n_shots), tau)
        fit, *_ = fit_shot_histograms(q, excited)
        rows.append(PowerPoint(n_drive=n, eps_o=float(eps_o),
                               fidelity_mc=error_budget(q, excited, fit).fidelity,
                               gamma_mix=g_mix))
    return rows


class TestSharedDraw:
    """Every power maps the same drawn block of the q-space stream."""

    @pytest.mark.parametrize("chunk", [7, 4096])
    @pytest.mark.parametrize("seed", range(3))
    def test_rows_equal_one_sample_q_per_power(self, monkeypatch, chunk, seed):
        # bit for bit, over random devices, with a shot count that is not
        # a multiple of the block
        rng = np.random.default_rng(610 + seed)
        device = random_device(rng)
        grid = sorted(rng.uniform(0.5, 5.0, 3).tolist())
        tau = DT_BIN * int(rng.integers(4, 16))
        mix = rng.uniform(1e6, 3e7)
        shot_cfg = ShotConfig(n_shots=chunk + 2003, master_seed=seed)
        monkeypatch.setattr(shots, "_Q_CHUNK", chunk)
        got = power_tradeoff(device, shot_cfg, grid, tau, mix_coeff=mix)
        assert got == per_power_rows(device, shot_cfg, grid, tau, mix)

    @pytest.mark.parametrize("seed", range(2))
    def test_rows_follow_the_run_configuration(self, device, seed):
        # the sweep reads p_thermal, prep_error, dt_bin and measure_duration
        # of the run, as one sample_q per power does
        shot_cfg = ShotConfig(n_shots=4000, master_seed=seed, p_thermal=0.2,
                              prep_error=0.05, dt_bin=4e-9,
                              measure_duration=96e-9)
        grid = [1.0, 2.5, 5.0]
        got = power_tradeoff(device, shot_cfg, grid, 56e-9, mix_coeff=3e7)
        assert got == per_power_rows(device, shot_cfg, grid, 56e-9, 3e7)
        # a thermal population of 0.2 flips a fifth of each prepared state
        assert all(p.fidelity_mc < 0.7 for p in got)

    def test_one_draw_per_block_per_sweep(self, device, monkeypatch):
        # random_raw calls of the q-space stream: one per block of the
        # sweep, not one per block and power
        calls = collections.Counter()
        philox = np.random.Philox

        class Counting:
            def __init__(self, key):
                self.key, self.bits = key[1], philox(key=key)

            def advance(self, delta):
                self.bits.advance(delta)

            def random_raw(self, size):
                calls[self.key] += 1
                return self.bits.random_raw(size)

        monkeypatch.setattr(np.random, "Philox", Counting)
        monkeypatch.setattr(shots, "_Q_CHUNK", 500)
        power_tradeoff(device, ShotConfig(n_shots=2100, master_seed=1),
                       [1.0, 2.5, 5.0], 56e-9, mix_coeff=3e7)
        assert calls[shots.Q_STREAM] == 5


# ---------------------------------------------------------------------------
# the stacked search against one solve per candidate and tau
# ---------------------------------------------------------------------------

def one_full_rate(device, ratio, tau):
    """s(tau) of one candidate from its own solve: the device with J set to
    realize kappa_eff = |chi|/ratio, a gated pulse of tau + 10 ns and the
    0.5 ns grid of [0, tau]."""
    kappa_eff = abs(device.chi) / ratio
    J = math.sqrt(kappa_eff * (device.omega_p + 4.0 * device.delta_p ** 2
                               * device.Q_p ** 2 / device.omega_p)
                  / (4.0 * device.Q_p))
    times = np.arange(0.0, tau + GRID_STEP, GRID_STEP)
    pulse = PulseEnvelope(kind="gated", total_duration=tau + 10e-9)
    return integrated_rate(full_model_signal(replace(device, J=J), pulse, times),
                           tau)


def one_qss_rate(device, ratio, tau):
    t = np.linspace(0.0, tau, 1501)
    values = qss_signal(device.n_drive, device.chi, abs(device.chi) / ratio, t)
    return float(np.trapezoid(values, t) / math.sqrt(tau))


ONE_RATE = {"full": one_full_rate, "qss": one_qss_rate}
OBJECTIVE = {"full": _full_objective, "qss": _qss_objective}


def serial_scan(f, lo, hi):
    """The scalar pre-scan: 17 points, or 400 when the 17 hold several
    separated maxima. Returns the points, their scores and the index of
    the first best."""
    for n in (17, 400):
        xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
        fs = [f(x) for x in xs]
        peaks = [i for i in range(1, n - 1)
                 if fs[i] >= fs[i - 1] and fs[i] >= fs[i + 1]]
        if len(peaks) <= 1:
            break
    return xs, fs, max(range(n), key=fs.__getitem__)


def serial_maximize(f, lo, hi):
    """The scalar search the stacked one replaced: the pre-scan, then one
    Brent search around the best point, started from it and its two
    neighbours when it is interior, and driven through _brent_max one f(x)
    at a time. A dense scan with no positive score raises NoSignalError."""
    xs, fs, best = serial_scan(f, lo, hi)
    if len(xs) == 400 and not fs[best] > 0.0:
        raise NoSignalError(0)
    start = ()
    if 0 < best < len(xs) - 1:
        neighbours = sorted([(xs[best - 1], fs[best - 1]),
                             (xs[best + 1], fs[best + 1])],
                            key=lambda point: -point[1])
        start = [(xs[best], fs[best])] + neighbours
    search = _brent(xs[max(best - 1, 0)], xs[min(best + 1, len(xs) - 1)], start)
    return _brent_max(lambda x, k: np.array([f(v) for v in x.tolist()]),
                      [search])[0]


def serial_ratio_vs_tau(device, taus, model):
    one = ONE_RATE[model]
    return np.array([serial_maximize(lambda r: one(device, r, tau), *RATIO_BOUNDS)
                     for tau in taus])


def detuned_device(seed):
    """A random device whose filter sits up to 150 MHz off the resonator:
    the full-model rate then often has several maxima in kappa_eff."""
    rng = np.random.default_rng(seed)
    dev = random_device(rng)
    return replace(dev, omega_p=dev.omega_r + rng.uniform(-150e6, 150e6),
                   delta_p=None)


def case_device(case):
    return {"reference": make_device(), "random3": random_device(
        np.random.default_rng(3)), "random8": random_device(
        np.random.default_rng(8)), "detuned": detuned_device(1009)}[case]


class TestStackedRates:
    """Every rate of a stacked call equals the rate of one solve per
    candidate and tau, bit for bit."""

    @pytest.mark.parametrize("model", ["full", "qss"])
    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
    def test_prescan_and_lockstep_calls(self, model, seed):
        device = make_device() if seed is None else \
            random_device(np.random.default_rng(seed))
        taus = np.array([tau_for(device, x) for x in (2.0, 4.5, 8.0, 12.0, 20.0)])
        f = OBJECTIVE[model](device, taus)
        scan = [0.02 + 2.98 * i / 16 for i in range(17)]
        # the pre-scan: every candidate at every tau, from one call
        got = f(np.tile(scan, len(taus)), np.repeat(np.arange(len(taus)), 17))
        want = [ONE_RATE[model](device, r, tau) for tau in taus for r in scan]
        assert got.tolist() == want
        # a lockstep step: one candidate per tau, each on its own grid
        rng = np.random.default_rng(seed)
        r = rng.uniform(*RATIO_BOUNDS, len(taus))
        got = f(r, np.arange(len(taus)))
        assert got.tolist() == [ONE_RATE[model](device, x, tau)
                                for x, tau in zip(r.tolist(), taus)]

    def test_blocks_stay_within_the_budget(self, device, monkeypatch):
        # a tenth of the budget forces one candidate per block; the rates
        # do not depend on the blocking
        taus = np.array([tau_for(device, x) for x in (2.0, 20.0)])
        scan = np.linspace(0.1, 2.5, 9)
        args = (np.tile(scan, 2), np.repeat([0, 1], 9))
        whole = _full_objective(device, taus)(*args)
        shapes = []
        trace = TwoCavityModel.trace

        def spy(self, s0, pulse, times):
            shapes.append(self.shape + (len(times),))
            return trace(self, s0, pulse, times)

        monkeypatch.setattr(TwoCavityModel, "trace", spy)
        import fastreadout.optimize as optimize
        monkeypatch.setattr(optimize, "_STACK_SAMPLES", 100)
        assert _full_objective(device, taus)(*args).tolist() == whole.tolist()
        assert shapes == [(1, len(np.arange(0.0, taus[1] + GRID_STEP, GRID_STEP)))] * 9

    def test_ceiling_crossed_after_tau_does_not_raise(self):
        # at n_drive = 150 the resonator of ratio 0.05 passes 100 photons
        # after about 5.5 ns, that of ratio 2.5 after about 23.5 ns: solved
        # together on the 15 ns grid, the fast one is checked on its 4 ns
        # grid only
        device = make_device(n_drive=150.0)
        taus = np.array([4e-9, 15e-9])
        f = _full_objective(device, taus)
        got = f(np.array([0.05, 2.5]), np.array([0, 1]))
        assert got.tolist() == [one_full_rate(device, 0.05, 4e-9),
                                one_full_rate(device, 2.5, 15e-9)]
        with pytest.raises(PhotonCeilingError, match="exceeds ceiling"):
            one_full_rate(device, 0.05, 15e-9)
        with pytest.raises(PhotonCeilingError, match="exceeds ceiling"):
            f(np.array([0.05]), np.array([1]))

    def test_memory_at_most_one_solve_per_candidate(self, device):
        # at 2e5 grid points each candidate is a block of its own: the call
        # holds one candidate's solve at a time, as the scalar path does,
        # plus bookkeeping arrays of a few candidates (64 kB allowed)
        tau = 1e-4
        f = _full_objective(device, np.array([tau]))
        tracemalloc.start()
        try:
            one_full_rate(device, 0.5, tau)
            one_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            f(np.array([0.3, 0.5, 0.9]), np.zeros(3, dtype=int))
            stacked_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stacked_peak <= one_peak + 2**16


SEARCH_CASES = [
    ("reference", (2.0, 4.5, 8.0, 12.0, 20.0)),
    # the pre-scan's best ratio on the lower bound at |chi| tau = 0.5
    ("random3", (0.5, 3.0, 40.0)),
    ("random8", (1.0, 6.0)),
    # two of these four tau take the 400-point scan on the full model
    ("detuned", (4.5, 8.0, 12.0, 20.0)),
]


def objective_calls(monkeypatch):
    """The sizes of the objective calls that _maximize makes from here on."""
    calls = []
    maximize = optimize._maximize

    def spy(f, lo, hi, m):
        def g(x, k):
            calls.append(len(x))
            return f(x, k)
        return maximize(g, lo, hi, m)

    monkeypatch.setattr(optimize, "_maximize", spy)
    return calls


class TestSearchMatchesSerial:
    """optimal_ratio_vs_tau returns exactly the ratios of the scalar search,
    one objective call at a time, and each lies within the search's stop
    tolerance of an independent bounded minimizer's."""

    @pytest.mark.parametrize("model", ["full", "qss"])
    @pytest.mark.parametrize("case,xs", SEARCH_CASES)
    def test_equal_to_serial_search(self, model, case, xs):
        device = case_device(case)
        taus = [tau_for(device, x) for x in xs]
        got = optimal_ratio_vs_tau(device, taus, model)
        assert got.tolist() == serial_ratio_vs_tau(device, taus, model).tolist()

    @pytest.mark.parametrize("model", ["full", "qss"])
    @pytest.mark.parametrize("case,xs", SEARCH_CASES)
    def test_within_the_bracket_of_scipy(self, model, case, xs):
        # oracle: scipy's bounded minimizer of the scalar rate's negative on
        # the pre-scan's bracket, to 1e-12 absolute; the search stops when
        # its bracket is 1e-5 of that bracket wide
        from scipy.optimize import minimize_scalar
        device = case_device(case)
        taus = [tau_for(device, x) for x in xs]
        got = optimal_ratio_vs_tau(device, taus, model)
        for ratio, tau in zip(got.tolist(), taus):
            def rate(r):
                return ONE_RATE[model](device, r, tau)

            scan, _, best = serial_scan(rate, *RATIO_BOUNDS)
            a, b = scan[max(best - 1, 0)], scan[min(best + 1, len(scan) - 1)]
            want = minimize_scalar(lambda r: -rate(r), bounds=(a, b),
                                   method="bounded",
                                   options={"xatol": 1e-12}).x
            assert abs(ratio - want) <= 1e-5 * (b - a), (tau, ratio, want)

    def test_at_most_12_calls_per_search(self, device, monkeypatch):
        # reference.conf's five tau: the pre-scan and at most 11 lockstep
        # Brent steps per model; the golden-section refinement took 26 calls
        calls = objective_calls(monkeypatch)
        taus = [tau_for(device, x) for x in (2.0, 4.5, 8.0, 12.0, 20.0)]
        for model in ("full", "qss"):
            del calls[:]
            optimal_ratio_vs_tau(device, taus, model)
            assert calls[0] == 5 * 17
            assert len(calls) <= 12, calls

    def test_cases_reach_bound_and_fallback(self, monkeypatch):
        # the cases above take the branches they are named for: an interior
        # best point starts its search from three scored points, one on the
        # bound from none
        calls = objective_calls(monkeypatch)
        brent = optimize._brent
        starts = []
        monkeypatch.setattr(optimize, "_brent", lambda a, b, start=():
                            starts.append((a, len(start))) or brent(a, b, start))
        dev = case_device("detuned")
        optimal_ratio_vs_tau(dev, [tau_for(dev, x) for x in (4.5, 8.0, 12.0, 20.0)],
                             "full")
        assert calls[:2] == [4 * 17, 2 * 400]
        assert [n for _, n in starts] == [3] * 4
        dev = case_device("random3")
        optimal_ratio_vs_tau(dev, [tau_for(dev, 0.5)], "qss")
        assert starts[-1] == (RATIO_BOUNDS[0], 0)

    @pytest.mark.parametrize("n_drive", [0.0, 30.0, 45.0, 80.0])
    def test_flat_and_ceiling_cases(self, n_drive):
        # n_drive = 0 gives zero rates everywhere, so every tau takes the
        # 400-point scan, finds no positive rate and refuses, naming
        # n_drive; from 45 photons up the resonator of some candidates
        # passes the ceiling, and both searches refuse
        device = make_device(n_drive=n_drive)
        taus = [tau_for(device, x) for x in (2.0, 12.0)]
        for model in ("full", "qss"):
            if n_drive == 0.0:
                with pytest.raises(NoSignalError, match="n_drive = 0 "):
                    optimal_ratio_vs_tau(device, taus, model)
                with pytest.raises(NoSignalError):
                    serial_ratio_vs_tau(device, taus, model)
                continue
            try:
                want = serial_ratio_vs_tau(device, taus, model).tolist()
            except PhotonCeilingError:
                with pytest.raises(PhotonCeilingError):
                    optimal_ratio_vs_tau(device, taus, model)
            else:
                assert optimal_ratio_vs_tau(device, taus, model).tolist() == want

    def test_non_positive_tau_refused(self, device):
        with pytest.raises(ConfigError, match="must be positive"):
            optimal_ratio_vs_tau(device, [56e-9, 0.0], "full")


def test_maximize_with_several_maxima():
    # functions with several maxima on the 17-point scan take the 400-point
    # scan, the others do not, within one call; the argmax equals the
    # scalar search's for each
    def scalar(k):
        return lambda x: math.cos((3.0 + 4.0 * k) * x) - 0.1 * (x - 1.2 * k) ** 2

    sizes = []

    def batched(x, k):
        sizes.append(len(x))
        return np.array([scalar(j)(v) for v, j in zip(x.tolist(), k.tolist())])

    got = _maximize(batched, 0.0, 3.0, 4)
    assert sizes[:2] == [4 * 17, 3 * 400]
    assert got.tolist() == [serial_maximize(scalar(k), 0.0, 3.0) for k in range(4)]
