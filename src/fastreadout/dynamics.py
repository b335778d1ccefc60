"""Deterministic readout-signal dynamics.

Two models of the state-dependent output signal S(t):

* a quasi-steady-state (QSS) closed form for a single driven cavity, valid
  when the Purcell filter adiabatically follows the readout resonator, and
* the full two-cavity linear model (readout resonator + Purcell filter),
  integrated with fixed-step RK4 or solved exactly segment by segment via
  the eigendecomposition of the (time-independent) system matrix.

All public inputs are ordinary frequencies in Hz; the angular conversion
happens here. Signal values S(t) carry the angular convention
S = sqrt(2 pi kappa_p) |Q_e - Q_g| (units 1/sqrt(s)); `to_sqrt_mhz`
converts to the ordinary-frequency sqrt(MHz) numbers quoted for S_ss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridError, PhotonCeilingError, TauRangeError
from .params import DeviceParams, DerivedParams, derive
from .search import golden_section_max

TWOPI = 2.0 * math.pi

#: default internal RK4 step (s); stiff-free at these linewidths and
#: fixed-step for bit-reproducible traces
DEFAULT_RK4_STEP = 0.05e-9

#: default high-power-segment amplitude multiplier of the two-step pulse
DEFAULT_BOOST_FACTOR = 2.5
#: default high-power-segment duration of the two-step pulse (s)
DEFAULT_BOOST_DURATION = 4e-9


def to_sqrt_mhz(s):
    """Convert a signal from 1/sqrt(s) (angular) to sqrt(MHz) (ordinary)."""
    return np.asarray(s) / math.sqrt(TWOPI * 1e6)


@dataclass(frozen=True)
class PulseEnvelope:
    """Readout drive envelope: square ('gated') or boosted ('two_step')."""

    kind: str = "gated"
    amplitude: float = 1.0
    boost_factor: float = DEFAULT_BOOST_FACTOR
    boost_duration: float = DEFAULT_BOOST_DURATION
    total_duration: float = 300e-9
    start_time: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gated", "two_step"):
            raise ConfigError(f"unknown pulse kind {self.kind!r}")
        if self.kind == "gated":
            object.__setattr__(self, "boost_factor", 1.0)
        if self.amplitude < 0.0 or self.boost_factor < 0.0:
            raise ConfigError("pulse amplitudes must be non-negative")
        if not (0.0 <= self.boost_duration < self.total_duration):
            raise ConfigError("need 0 <= boost_duration < total_duration")

    def segments(self):
        """Constant-amplitude pieces as (t_start, t_end, amplitude) triples."""
        t0 = self.start_time
        out = []
        if self.kind == "two_step" and self.boost_duration > 0.0:
            out.append((t0, t0 + self.boost_duration, self.amplitude * self.boost_factor))
            out.append((t0 + self.boost_duration, t0 + self.total_duration, self.amplitude))
        else:
            out.append((t0, t0 + self.total_duration, self.amplitude))
        return out

    def envelope(self, t):
        """Drive amplitude at time(s) t."""
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for a, b, amp in self.segments():
            out = np.where((t >= a) & (t < b), amp, out)
        return out


@dataclass
class SignalTrace:
    """S(t) samples on a uniform time grid; model is 'QSS' or 'full'."""

    times: np.ndarray
    values: np.ndarray
    model: str

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


# ---------------------------------------------------------------------------
# quasi-steady-state closed form (single effective cavity)
# ---------------------------------------------------------------------------

def qss_steady_signal(n_drive: float, chi: float, kappa_eff: float) -> float:
    """Steady-state signal of the QSS model, in 1/sqrt(s) (angular)."""
    r2 = (2.0 * chi / kappa_eff) ** 2
    ca = TWOPI * chi
    ka = TWOPI * kappa_eff
    return math.sqrt(16.0 * n_drive * ca * ca / ka / (1.0 + r2))


def qss_signal(n_drive: float, chi: float, kappa_eff: float, t):
    """QSS signal S(t) for a gated pulse starting at t = 0.

    Exact solution of the driven one-cavity equation of motion,
    S(t) = S_ss / (2|r|) *
    |2r - exp(-pi kappa t) (sin(2 pi chi t) + 2 r cos(2 pi chi t))|
    with r = chi/kappa, which vanishes at t = 0 as the physical signal must.
    """
    t = np.asarray(t, dtype=float)
    r = chi / kappa_eff
    sss = qss_steady_signal(n_drive, chi, kappa_eff)
    damp = np.exp(-math.pi * kappa_eff * t)
    bracket = np.abs(
        2.0 * r - damp * (np.sin(TWOPI * chi * t) + 2.0 * r * np.cos(TWOPI * chi * t))
    )
    return sss / (2.0 * abs(r)) * bracket


# ---------------------------------------------------------------------------
# full two-cavity model
# ---------------------------------------------------------------------------

class TwoCavityModel:
    """Linear input-output model of resonator + Purcell filter.

    State vector x = (alpha, beta). For qubit state s in {-1 (g), +1 (e)}:

        d alpha/dt = -i (delta_r + s chi_a) alpha - (gamma_a/2) alpha - i J_a beta
        d beta/dt  = -i delta_pf beta - (kappa_pa/2) beta - i J_a alpha
                     + sqrt(kappa_pa) eps(t)

    with all rates angular. Pulse amplitude 1 is normalized so that the
    mean steady-state resonator photon number of the two qubit states
    equals n_drive at the symmetric drive point omega_d = omega_r.
    """

    def __init__(self, device: DeviceParams, derived: DerivedParams | None = None,
                 photon_ceiling: float = 100.0):
        self.device = device
        self.derived = derived if derived is not None else derive(device)
        self.photon_ceiling = photon_ceiling

        self.chi_a = TWOPI * self.derived.chi
        self.J_a = TWOPI * device.J
        self.kappa_pa = TWOPI * self.derived.kappa_p
        self.gamma_a = TWOPI * device.gamma_int
        self.delta_r_a = TWOPI * (device.omega_r - device.omega_d)
        self.delta_pf_a = TWOPI * (device.omega_p - device.omega_d)

        self._b = np.array([0.0, math.sqrt(self.kappa_pa)], dtype=complex)
        self._A = {s: self._matrix(s, symmetric=False) for s in (-1, +1)}
        self._eig = {}
        for s in (-1, +1):
            lam, V = np.linalg.eig(self._A[s])
            self._eig[s] = (lam, V, np.linalg.inv(V))

        # drive normalization at the symmetric point omega_d = omega_r
        n_mean = 0.0
        for s in (-1, +1):
            xs = np.linalg.solve(self._matrix(s, symmetric=True), -self._b)
            n_mean += 0.5 * abs(xs[0]) ** 2
        if device.n_drive > 0.0 and n_mean > 0.0:
            self.eps0 = math.sqrt(device.n_drive / n_mean)
        else:
            self.eps0 = 0.0

    def _matrix(self, s: int, symmetric: bool) -> np.ndarray:
        dr = 0.0 if symmetric else self.delta_r_a
        dpf = (self.delta_pf_a - self.delta_r_a) if symmetric else self.delta_pf_a
        return np.array(
            [
                [-1j * (dr + s * self.chi_a) - self.gamma_a / 2.0, -1j * self.J_a],
                [-1j * self.J_a, -1j * dpf - self.kappa_pa / 2.0],
            ],
            dtype=complex,
        )

    def steady_state(self, s: int, eps: float) -> np.ndarray:
        """Exact steady state (d/dt = 0) for a constant drive eps."""
        if eps == 0.0:
            return np.zeros(2, dtype=complex)
        return np.linalg.solve(self._A[s], -self._b * eps)

    def propagate(self, s: int, x: np.ndarray, dt: float) -> np.ndarray:
        """Homogeneous evolution of x over dt for qubit state s."""
        lam, V, Vi = self._eig[s]
        return V @ (np.exp(lam * dt) * (Vi @ x))

    def trace(self, s: int, pulse: PulseEnvelope, times: np.ndarray,
              x0: np.ndarray | None = None, t0: float = 0.0) -> np.ndarray:
        """Exact fields at `times` (>= t0) starting from x0 at t0.

        Piecewise-constant drive is handled segment by segment with the
        closed-form solution of the linear system, evaluated for all samples
        of a segment at once. A sample within 1e-15 s of a drive edge
        belongs to the segment that ends there. Raises GridError unless
        `times` is ascending.
        """
        times = np.asarray(times, dtype=float)
        if len(times) == 0:
            return np.empty((0, 2), dtype=complex)
        if np.any(times[1:] < times[:-1]):
            raise GridError("trace times must be ascending")
        x = np.zeros(2, dtype=complex) if x0 is None else np.array(x0, dtype=complex)
        out = np.empty((len(times), 2), dtype=complex)
        lam, V, Vi = self._eig[s]

        t_max = float(times[-1])
        # constant-drive intervals covering [t0, t_max]
        bounds = sorted({a for a, _, _ in pulse.segments()}
                        | {b for _, b, _ in pulse.segments()})
        edges = [t0] + [b for b in bounds if t0 + 1e-15 < b < t_max - 1e-15] + [t_max]
        lo = 0
        for a, b in zip(edges[:-1], edges[1:]):
            eps = self.eps0 * float(pulse.envelope(0.5 * (a + b)))
            xss = self.steady_state(s, eps)
            c = Vi @ (x - xss)
            hi = int(np.searchsorted(times, b + 1e-15, side="right"))
            out[lo:hi] = xss + (np.exp(np.outer(times[lo:hi] - a, lam)) * c) @ V.T
            lo = hi
            x = xss + V @ (np.exp(lam * (b - a)) * c)
        return out

    def switched_traces(self, s0, switch_times, pulse: PulseEnvelope,
                        times) -> np.ndarray:
        """Exact fields at `times` for many trajectories with qubit jumps.

        Row k starts from vacuum at t = 0 in qubit state s0[k] and flips the
        state at each entry of switch_times[k] (ascending; pad short rows
        with +inf). The segment edges of a row are its switch times merged
        with the drive edges of `pulse`; on each segment the field is the
        closed form x_ss + V exp(lambda (t - a)) c of `trace`, evaluated for
        all rows at once. Returns shape (rows, len(times), 2).
        """
        s0 = np.asarray(s0)
        times = np.asarray(times, dtype=float)
        n_rows = len(s0)
        t_max = float(times[-1])
        # switches after the last time only add empty segments at t_max
        switch = np.minimum(np.asarray(switch_times, dtype=float).reshape(n_rows, -1),
                            t_max)
        drive = sorted({t for a, b, _ in pulse.segments() for t in (a, b)
                        if 0.0 < t < t_max})
        edges = np.concatenate([np.zeros((n_rows, 1)), switch,
                                np.tile(drive, (n_rows, 1))], axis=1)
        flips = np.concatenate([np.zeros((n_rows, 1), dtype=int),
                                np.ones(switch.shape, dtype=int),
                                np.zeros((n_rows, len(drive)), dtype=int)], axis=1)
        order = np.argsort(edges, axis=1, kind="stable")
        edges = np.take_along_axis(edges, order, axis=1)
        flips = np.cumsum(np.take_along_axis(flips, order, axis=1), axis=1)
        state = np.where(flips % 2 == 0, s0[:, None], -s0[:, None])
        # per segment: eigen-table index, drive and steady state
        sidx = (state > 0).astype(int)
        eps = self.eps0 * pulse.envelope(edges)
        xss = np.zeros(edges.shape + (2,), dtype=complex)
        for s in (-1, +1):
            for level in np.unique(eps):
                xss[(state == s) & (eps == level)] = self.steady_state(s, float(level))
        lam = np.array([self._eig[s][0] for s in (-1, +1)])
        V = np.array([self._eig[s][1] for s in (-1, +1)])
        Vi = np.array([self._eig[s][2] for s in (-1, +1)])

        c = np.empty_like(xss)
        x = np.zeros((n_rows, 2), dtype=complex)
        n_seg = edges.shape[1]
        for j in range(n_seg):
            k = sidx[:, j]
            c[:, j] = np.einsum("rab,rb->ra", Vi[k], x - xss[:, j])
            if j + 1 < n_seg:
                dt = (edges[:, j + 1] - edges[:, j])[:, None]
                x = xss[:, j] + np.einsum("rab,rb->ra", V[k],
                                          np.exp(lam[k] * dt) * c[:, j])

        out = np.empty((n_rows, len(times), 2), dtype=complex)
        rows = np.arange(n_rows)
        for i, t in enumerate(times.tolist()):
            # segment of t: the last edge strictly before it (or the first)
            j = np.maximum(np.sum(edges < t, axis=1) - 1, 0)
            k = sidx[rows, j]
            growth = np.exp(lam[k] * (t - edges[rows, j])[:, None])
            out[:, i] = xss[rows, j] + np.einsum("rab,rb->ra", V[k],
                                                 growth * c[rows, j])
        return out

    def rk4_trace(self, s: int, pulse: PulseEnvelope, times: np.ndarray,
                  max_step: float = DEFAULT_RK4_STEP) -> np.ndarray:
        """Classical fixed-step RK4 integration from vacuum at times[0]."""
        times = np.asarray(times, dtype=float)
        dt = times[1] - times[0]
        nsub = max(1, int(math.ceil(dt / max_step - 1e-12)))
        h = dt / nsub
        A = self._A[s]
        b = self._b

        def f(t, y):
            return A @ y + b * (self.eps0 * float(pulse.envelope(t)))

        out = np.empty((len(times), 2), dtype=complex)
        y = np.zeros(2, dtype=complex)
        out[0] = y
        t = times[0]
        for i in range(1, len(times)):
            for _ in range(nsub):
                k1 = f(t, y)
                k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
                k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
                k4 = f(t + h, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t += h
            out[i] = y
        return out

    def check_ceiling(self, fields: np.ndarray):
        n_max = float(np.max(np.abs(fields[:, 0]) ** 2))
        if n_max > self.photon_ceiling:
            raise PhotonCeilingError(
                f"resonator photon number {n_max:.1f} exceeds ceiling "
                f"{self.photon_ceiling:g}"
            )


def _both_state_fields(device: DeviceParams, pulse: PulseEnvelope, times,
                       derived: DerivedParams | None, photon_ceiling: float,
                       method: str):
    """(model, fields_g, fields_e) on a uniform grid of step <= 0.5 ns.

    method 'exact' is the closed-form segment solve; 'rk4' is the
    fixed-step integrator, far slower, kept as the test oracle.
    """
    if len(times) < 2:
        raise GridError("need at least two grid points")
    dt = times[1] - times[0]
    if dt > 0.5e-9 + 1e-15:
        raise GridError(f"grid step {dt:g} s exceeds 0.5 ns")
    model = TwoCavityModel(device, derived, photon_ceiling)
    if method == "exact":
        solve = model.trace
    elif method == "rk4":
        solve = model.rk4_trace
    else:
        raise ConfigError(f"unknown method {method!r}")
    xg = solve(-1, pulse, times)
    xe = solve(+1, pulse, times)
    model.check_ceiling(xg)
    model.check_ceiling(xe)
    return model, xg, xe


def full_model_signal(device: DeviceParams, pulse: PulseEnvelope, times,
                      derived: DerivedParams | None = None,
                      photon_ceiling: float = 100.0,
                      method: str = "exact") -> SignalTrace:
    """S(t) = sqrt(kappa_pa) |beta_e(t) - beta_g(t)| from the two-cavity model."""
    times = np.asarray(times, dtype=float)
    model, xg, xe = _both_state_fields(device, pulse, times, derived,
                                       photon_ceiling, method)
    values = math.sqrt(model.kappa_pa) * np.abs(xe[:, 1] - xg[:, 1])
    return SignalTrace(times=times, values=values, model="full")


@dataclass
class QuadratureTraces:
    """Mean amplified-quadrature responses for both preparations."""

    times: np.ndarray
    q_g: np.ndarray
    q_e: np.ndarray
    phi_lo: float
    fields_g: np.ndarray
    fields_e: np.ndarray


def optimal_lo_phase(delta_beta: np.ndarray) -> float:
    """LO phase in [0, pi) maximizing the integrated quadrature contrast."""

    def contrast(phi):
        return float(np.sum(np.abs(np.real(np.exp(-1j * phi) * delta_beta))))

    # coarse scan handles the pi-periodic wrap, golden section refines
    phis = np.linspace(0.0, math.pi, 65)[:-1]
    vals = [contrast(p) for p in phis]
    k = int(np.argmax(vals))
    step = phis[1] - phis[0]
    phi, _ = golden_section_max(contrast, phis[k] - step, phis[k] + step, tol=1e-9)
    return phi % math.pi


def lo_rotation(delta_beta: np.ndarray) -> tuple[float, complex]:
    """(phi_LO, rot): the optimal LO phase and the unit factor that projects
    a field onto the measured quadrature, Q = Re[rot * beta].

    rot is +-exp(-i phi_LO), signed so the excited state sits on the
    high-q side: sum Re[rot * delta_beta] >= 0 with delta_beta = beta_e -
    beta_g.
    """
    phi = optimal_lo_phase(delta_beta)
    rot = np.exp(-1j * phi)
    if float(np.sum(np.real(rot * delta_beta))) < 0.0:
        rot = -rot
    return phi, rot


def mean_quadrature_traces(device: DeviceParams, pulse: PulseEnvelope, times,
                           derived: DerivedParams | None = None,
                           photon_ceiling: float = 100.0,
                           method: str = "exact") -> QuadratureTraces:
    """Noise-free mean quadratures Q_x(t) = Re[exp(-i phi_LO) beta_x].

    Dimensionless; the sqrt(kappa_p) factor of the signal and of q_tau is
    applied downstream, so S(t) = sqrt(2 pi kappa_p) |Q_e - Q_g|.
    """
    times = np.asarray(times, dtype=float)
    _, xg, xe = _both_state_fields(device, pulse, times, derived,
                                   photon_ceiling, method)
    phi, rot = lo_rotation(xe[:, 1] - xg[:, 1])
    q_g = np.real(rot * xg[:, 1])
    q_e = np.real(rot * xe[:, 1])
    return QuadratureTraces(times=times, q_g=q_g, q_e=q_e, phi_lo=phi,
                            fields_g=xg, fields_e=xe)


def integrated_rate(trace: SignalTrace, tau: float) -> float:
    """s(tau) = (1/sqrt(tau)) * integral_0^tau S(t) dt (trapezoidal)."""
    times = trace.times
    if tau <= 0.0 or tau > times[-1] + 1e-15:
        raise TauRangeError(f"tau = {tau:g} s outside trace support")
    mask = times <= tau + 1e-15
    t_sub = times[mask]
    v_sub = trace.values[mask]
    if t_sub[-1] < tau - 1e-15:
        v_end = np.interp(tau, times, trace.values)
        t_sub = np.append(t_sub, tau)
        v_sub = np.append(v_sub, v_end)
    return float(np.trapezoid(v_sub, t_sub) / math.sqrt(tau))
