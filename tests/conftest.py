import math

import numpy as np
import pytest

from fastreadout.calib import SpectrumParams, transmission
from fastreadout.dynamics import PulseEnvelope
from fastreadout.params import DeviceParams

#: step of the RK4 oracle (s): stiff-free at these linewidths, and fixed so
#: the reference fields are bit-reproducible
DEFAULT_RK4_STEP = 0.05e-9


def make_device(**kw) -> DeviceParams:
    """Reference device; individual fields overridable per test."""
    base = dict(g=208e6, omega_q=6.316e9, omega_r=4.754e9, omega_p=4.756e9,
                alpha=-340e6, J=25e6, Q_p=74, T1=7.6e-6, eta=0.66,
                n_drive=2.5, dispersive_guard=5.0)
    base.update(kw)
    return DeviceParams(**base)


@pytest.fixture
def device() -> DeviceParams:
    return make_device()


@pytest.fixture
def gated_pulse() -> PulseEnvelope:
    return PulseEnvelope(kind="gated", total_duration=160e-9)


@pytest.fixture
def fine_times() -> np.ndarray:
    return np.arange(0.0, 160e-9, 0.5e-9)


#: digitizer bin of the shot tests (s)
DT_BIN = 8e-9


def bin_grid(n_bins: int, dt_bin: float = DT_BIN, fine_step: float = 0.5e-9):
    """Bin-center times and their indices on the fine grid."""
    centers = (np.arange(n_bins) + 0.5) * dt_bin
    idx = np.round(centers / fine_step).astype(int)
    return centers, idx


def random_device(rng):
    """A device inside its dispersive guard: |Delta| > guard * g."""
    g = rng.uniform(80e6, 250e6)
    guard = rng.uniform(4.0, 10.0)
    omega_r = rng.uniform(4.5e9, 7.0e9)
    delta = rng.choice([-1.0, 1.0]) * guard * g * rng.uniform(1.05, 2.0)
    return make_device(g=g, dispersive_guard=guard, omega_r=omega_r,
                       omega_q=omega_r + delta,
                       omega_p=omega_r + rng.uniform(-10e6, 10e6),
                       alpha=-rng.uniform(150e6, 350e6), J=rng.uniform(10e6, 40e6),
                       Q_p=rng.uniform(30.0, 150.0), T1=rng.uniform(1e-6, 30e-6),
                       eta=rng.uniform(0.2, 1.0), n_drive=rng.uniform(0.5, 6.0))


def loop_trace(model, s, pulse, times, x0=None, t0=0.0):
    """TwoCavityModel.trace as a loop over samples, started from x0 at t0
    in the fixed qubit state s: each sample is assigned to the first
    constant-drive segment whose end it does not pass by more than
    1e-15 s. The reference for the segment lookup of the array form."""
    x = np.zeros(2, dtype=complex) if x0 is None else np.array(x0, dtype=complex)
    out = np.empty((len(times), 2), dtype=complex)
    k = int(s > 0)
    lam, V, Vi = model._lam[k], model._V[k], model._Vi[k]
    t_max = float(times[-1])
    bounds = sorted({t for a, b, _ in pulse.segments() for t in (a, b)})
    edges = [t0] + [b for b in bounds if t0 + 1e-15 < b < t_max - 1e-15] + [t_max]
    idx = 0
    for a, b in zip(edges[:-1], edges[1:]):
        xss = model.steady_state(s, model.eps0 * float(pulse.envelope(0.5 * (a + b))))
        c = Vi @ (x - xss)
        while idx < len(times) and times[idx] <= b + 1e-15:
            out[idx] = xss + V @ (np.exp(lam * (times[idx] - a)) * c)
            idx += 1
        x = xss + V @ (np.exp(lam * (b - a)) * c)
    return out


def rk4_switching_fields(model, s0, jumps, pulse, times, step=DEFAULT_RK4_STEP):
    """Fields (alpha, beta) at `times` from a fixed-step RK4 started in
    vacuum at t = 0, whose qubit state flips at each jump. Steps end on
    every jump, drive edge and output time, so the right-hand side is
    constant within a step. Returns shape (len(times), 2)."""
    t_end = float(times[-1])
    stops = sorted({0.0, *times.tolist(),
                    *(t for a, b, _ in pulse.segments() for t in (a, b) if t < t_end),
                    *(t for t in jumps if t < t_end)})
    y0 = y1 = 0j
    out = {0.0: (y0, y1)}
    for a, b in zip(stops[:-1], stops[1:]):
        mid = 0.5 * (a + b)
        s = s0 * (-1) ** sum(t < mid for t in jumps)
        (m00, m01), (m10, m11) = model._A[s].tolist()
        d1 = complex(model._b[1]) * model.eps0 * float(pulse.envelope(mid))

        def f(u0, u1):
            return m00 * u0 + m01 * u1, m10 * u0 + m11 * u1 + d1

        n = max(1, math.ceil((b - a) / step - 1e-9))
        h = (b - a) / n
        for _ in range(n):
            k1 = f(y0, y1)
            k2 = f(y0 + 0.5 * h * k1[0], y1 + 0.5 * h * k1[1])
            k3 = f(y0 + 0.5 * h * k2[0], y1 + 0.5 * h * k2[1])
            k4 = f(y0 + h * k3[0], y1 + h * k3[1])
            y0 += h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            y1 += h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        out[b] = (y0, y1)
    return np.array([out[t] for t in times.tolist()])


def noisy_spectrum_pairs(seed: int, n: int):
    """Acceptance criterion 7's recipe: n random resonator/filter pairs,
    each scanned over 241 coarse points plus 2 x 601 around the dressed
    resonances with 1 % multiplicative noise. Yields
    (truth, omega, s21_g, s21_e)."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        omega_p = rng.uniform(4.5e9, 5.5e9)
        truth = SpectrumParams(
            omega_p=omega_p, omega_r=omega_p - rng.uniform(-5e6, 5e6),
            J=rng.uniform(18e6, 35e6), chi=-rng.uniform(4e6, 12e6),
            Q_p=rng.uniform(50.0, 120.0), gamma=rng.uniform(1e5, 5e5),
            scale=rng.uniform(0.5, 2.0))
        kappa_p = truth.kappa_p
        coarse = np.linspace(omega_p - 4 * kappa_p, omega_p + 4 * kappa_p, 241)
        fine = [np.linspace(truth.omega_r + s * truth.chi - 3e6,
                            truth.omega_r + s * truth.chi + 3e6, 601)
                for s in (-1.0, 1.0)]
        omega = np.sort(np.concatenate([coarse] + fine))
        s_g = transmission(omega, truth, "g") * \
            (1.0 + 0.01 * rng.standard_normal(len(omega)))
        s_e = transmission(omega, truth, "e") * \
            (1.0 + 0.01 * rng.standard_normal(len(omega)))
        yield truth, omega, s_g, s_e


def spectrum_fit_errors(fit, truth) -> list[float]:
    """Criterion 7's recovery errors: the two resonance frequencies relative
    to the 8 kappa_p scan span, the other parameters relative to truth."""
    span = 8 * truth.kappa_p
    return [abs(fit.omega_p - truth.omega_p) / span,
            abs(fit.omega_r - truth.omega_r) / span,
            abs(fit.J / truth.J - 1.0),
            abs(fit.chi / truth.chi - 1.0),
            abs(fit.Q_p / truth.Q_p - 1.0),
            abs(fit.gamma / truth.gamma - 1.0)]


def sequential_least_squares(model, x0, bounds=(-np.inf, np.inf), max_nfev=1000):
    """Oracle: the Levenberg-Marquardt loop of fastreadout._lsq as it was
    written for one problem, before stacks: a loop of trials, raising lam
    tenfold after each rejected one, around each accepted point. Takes the
    model of one problem, r (N,) and jac() (N, n) at x (n,), and returns
    (x, cost, nfev, status, message)."""
    from fastreadout._lsq import FTOL, XTOL

    x = np.asarray(x0, dtype=float)
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), x.shape) for b in bounds)
    x = np.minimum(np.maximum(x, lo), hi)
    r, jac = model(x)
    cost = 0.5 * float(r @ r)
    nfev, lam = 1, 1e-3
    while True:
        J = jac()
        grad, hess = J.T @ r, J.T @ J
        diag = np.diag(hess)
        scale = np.diag(np.where(diag > 0.0, diag, 1.0))
        while True:
            x_new = np.minimum(np.maximum(
                x + np.linalg.solve(hess + lam * scale, -grad), lo), hi)
            step = x_new - x
            if math.sqrt(float(step @ step)) <= \
                    XTOL * (XTOL + math.sqrt(float(x @ x))):
                return x, cost, nfev, 3, "the step is below XTOL"
            if nfev >= max_nfev:
                return x, cost, nfev, 0, (f"stopped after max_nfev = {max_nfev} "
                                          "evaluations")
            r_new, jac_new = model(x_new)
            nfev += 1
            cost_new = 0.5 * float(r_new @ r_new)
            predicted = -float(grad @ step + 0.5 * step @ hess @ step)
            if cost_new < cost:
                break
            if predicted <= FTOL * cost:
                return x, cost, nfev, 2, ("a rejected step predicts a reduction "
                                          "below FTOL")
            lam *= 10.0
        reduction = cost - cost_new
        x, r, jac, cost = x_new, r_new, jac_new, cost_new
        lam = max(lam / 10.0, 1e-12)
        if reduction <= FTOL * cost and reduction >= 0.25 * predicted:
            return x, cost, nfev, 2, "the cost reduction is below FTOL"
