"""Deterministic readout-signal dynamics.

Two models of the state-dependent output signal S(t):

* a quasi-steady-state (QSS) closed form for a single driven cavity, valid
  when the Purcell filter adiabatically follows the readout resonator, and
* the full two-cavity linear model (readout resonator + Purcell filter),
  solved exactly by `TwoCavityModel.trace`, the one solver: the
  eigendecomposition of each qubit state's system matrix gives the field on
  every segment of constant drive and qubit state, for one or many
  trajectories (both prepared states, or shots with qubit jumps) in one call.

`mean_quadrature_traces` projects both prepared states' filter fields onto
the LO quadrature of `optimal_lo_phase`, whose maximum has a closed form,
and carries the signal S(t) of the same solve (`QuadratureTraces.signal`).

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
from .params import DeviceParams

TWOPI = 2.0 * math.pi

#: default high-power-segment amplitude multiplier of the two-step pulse
DEFAULT_BOOST_FACTOR = 2.5
#: default high-power-segment duration of the two-step pulse (s)
DEFAULT_BOOST_DURATION = 4e-9
#: largest resonator photon number the linear model is trusted at
PHOTON_CEILING = 100.0


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
        """Constant-amplitude pieces as (t_start, t_end, amplitude) triples,
        starting at t = 0."""
        if self.kind == "two_step" and self.boost_duration > 0.0:
            return [(0.0, self.boost_duration, self.amplitude * self.boost_factor),
                    (self.boost_duration, self.total_duration, self.amplitude)]
        return [(0.0, self.total_duration, self.amplitude)]

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

    def __init__(self, device: DeviceParams):
        self.device = device
        self.chi_a = TWOPI * device.chi
        self.J_a = TWOPI * device.J
        self.kappa_pa = TWOPI * device.kappa_p
        self.gamma_a = TWOPI * device.gamma_int
        self.delta_r_a = TWOPI * (device.omega_r - device.omega_d)
        self.delta_pf_a = TWOPI * (device.omega_p - device.omega_d)

        self._b = np.array([0.0, math.sqrt(self.kappa_pa)], dtype=complex)
        self._A = {s: self._matrix(s, symmetric=False) for s in (-1, +1)}
        # the tables of trace, row 0 for g and row 1 for e: eigenvalues,
        # eigenvectors, their inverse and the steady state at unit drive
        self._lam, self._V = np.linalg.eig(np.array([self._A[-1], self._A[+1]]))
        self._Vi = np.linalg.inv(self._V)
        self._x_unit = np.array([np.linalg.solve(self._A[s], -self._b)
                                 for s in (-1, +1)])

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
        return eps * self._x_unit[int(s > 0)]

    def trace(self, s0, pulse: PulseEnvelope, times,
              switch_times=None) -> np.ndarray:
        """Exact fields (alpha, beta) at `times`, from vacuum at t = 0.

        s0 is the qubit state at t = 0 (-1 g, +1 e). A scalar s0 gives
        shape (len(times), 2); a 1-D s0 gives one row per entry, shape
        (rows, len(times), 2). Row k flips its state at each entry of
        switch_times[k] (shape (rows, K); pad short rows with +inf). The
        edges of a row are its switch times merged with the drive edges of
        `pulse`; on the segment that starts at edge a the field is the
        closed form x_ss + V exp(lambda (t - a)) c, evaluated for every
        (row, sample) at once. A sample within 1e-15 s after an edge
        belongs to the segment that ends there. Raises GridError unless
        `times` is ascending.
        """
        times = np.asarray(times, dtype=float)
        if np.any(times[1:] < times[:-1]):
            raise GridError("trace times must be ascending")
        s0 = np.asarray(s0)
        n_rows = s0.size
        if len(times) == 0:
            return np.empty(s0.shape + (0, 2), dtype=complex)
        t_max = float(times[-1])
        drive = sorted({t for a, b, _ in pulse.segments() for t in (a, b)
                        if 1e-15 < t < t_max - 1e-15})
        # switches after the last sample only add empty segments at t_max
        switch = np.empty((n_rows, 0)) if switch_times is None else \
            np.minimum(np.reshape(switch_times, (n_rows, -1)), t_max)
        n_switch = switch.shape[1]
        edges = np.zeros((n_rows, 1 + n_switch + len(drive)))
        edges[:, 1:1 + n_switch] = switch
        edges[:, 1 + n_switch:] = drive
        edges.sort(axis=1)
        ends = np.empty_like(edges)
        ends[:, :-1] = edges[:, 1:]
        ends[:, -1] = t_max

        # per segment: the eigen tables of its qubit state (flipped once per
        # switch up to its start) and the coefficients c of the closed form,
        # carried from each segment's start to the next
        flips = np.sum(switch[:, None, :] <= edges[..., None], axis=2)
        state = ((s0.reshape(-1, 1) > 0) + flips) % 2
        xss = (self.eps0 * pulse.envelope(0.5 * (edges + ends)))[..., None] \
            * self._x_unit[state]
        lam, V, Vi = self._lam[state], self._V[state], self._Vi[state]
        growth = np.exp(lam * (ends - edges)[..., None])
        c = np.empty_like(xss)
        c[:, 0] = _apply(Vi[:, 0], -xss[:, 0])  # from vacuum at t = 0
        for j in range(1, edges.shape[1]):
            x = xss[:, j - 1] + _apply(V[:, j - 1], growth[:, j - 1] * c[:, j - 1])
            c[:, j] = _apply(Vi[:, j], x - xss[:, j])
        Vc = V * c[..., None, :]

        # segment of each sample: the edges after 0 it passes by over 1e-15 s,
        # as an index into the (rows * segments) tables
        seg = np.sum(edges[:, None, 1:] + 1e-15 < times[:, None], axis=2)
        seg += edges.shape[1] * np.arange(n_rows)[:, None]
        growth = np.exp(lam.reshape(-1, 2)[seg]
                        * (times - edges.reshape(-1)[seg])[..., None])
        out = xss.reshape(-1, 2)[seg] + _apply(Vc.reshape(-1, 2, 2)[seg], growth)
        return out.reshape(s0.shape + out.shape[1:])

    def check_ceiling(self, fields: np.ndarray):
        n_max = float(np.max(np.abs(fields[..., 0]) ** 2))
        if n_max > PHOTON_CEILING:
            raise PhotonCeilingError(
                f"resonator photon number {n_max:.1f} exceeds ceiling "
                f"{PHOTON_CEILING:g}"
            )


def _apply(M, y):
    """The products M @ y of stacked 2 x 2 matrices and 2-vectors."""
    return M[..., 0] * y[..., :1] + M[..., 1] * y[..., 1:]


def _solve_both_states(device: DeviceParams, pulse: PulseEnvelope, times):
    """(S(t) as a SignalTrace, beta): one exact solve of both prepared
    states on a uniform grid of step <= 0.5 ns; beta[0] is the filter field
    of g and beta[1] that of e, and S = sqrt(kappa_pa) |beta_e - beta_g|."""
    times = np.asarray(times, dtype=float)
    if len(times) < 2:
        raise GridError("need at least two grid points")
    dt = times[1] - times[0]
    if dt > 0.5e-9 + 1e-15:
        raise GridError(f"grid step {dt:g} s exceeds 0.5 ns")
    model = TwoCavityModel(device)
    fields = model.trace([-1, +1], pulse, times)
    model.check_ceiling(fields)
    beta = fields[..., 1]
    values = math.sqrt(model.kappa_pa) * np.abs(beta[1] - beta[0])
    return SignalTrace(times=times, values=values, model="full"), beta


def full_model_signal(device: DeviceParams, pulse: PulseEnvelope, times,
                      method: str = "exact") -> SignalTrace:
    """S(t) = sqrt(kappa_pa) |beta_e(t) - beta_g(t)| from the two-cavity model.

    `method` names the solver; "exact" is the only one, and the argument
    stays so that calls which spell it out keep working.
    """
    if method != "exact":
        raise ConfigError(f"unknown method {method!r}")
    return _solve_both_states(device, pulse, times)[0]


@dataclass
class QuadratureTraces:
    """Mean amplified-quadrature responses for both preparations, and the
    signal S(t) of the same solve, whose `times` is their grid."""

    q_g: np.ndarray
    q_e: np.ndarray
    phi_lo: float
    signal: SignalTrace


def optimal_lo_phase(delta_beta: np.ndarray) -> float:
    """LO phase in [0, pi) maximizing the integrated quadrature contrast
    C(phi) = sum_k |Re(exp(-i phi) z_k)| of z = delta_beta, in closed form.

    Each z_k enters as u_k = +-z_k with arg u_k in [-pi/2, pi/2): the sign
    of Re(exp(-i phi) u_k) is + for phi below theta_k = arg u_k + pi/2 and -
    above. On an arc of phi between sign changes C = Re(exp(-i phi) w) with
    w = sum of the signed u_k, so max C is the largest |w| over the arcs,
    reached at phi = arg w. One cumulative sum of the flips -2 u_k, in
    order of theta_k, gives w on every arc. Zero entries are skipped; an
    all-zero input gives 0.
    """
    z = np.ravel(delta_beta)
    z = z[z != 0]
    if z.size == 0:
        return 0.0
    u = np.where((z.real > 0.0) | ((z.real == 0.0) & (z.imag < 0.0)), z, -z)
    order = np.argsort(np.angle(u), kind="stable")
    w = np.sum(u) - 2.0 * np.concatenate(([0.0], np.cumsum(u[order])))
    return float(np.angle(w[np.argmax(np.abs(w))])) % math.pi


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


def mean_quadrature_traces(device: DeviceParams, pulse: PulseEnvelope,
                           times) -> QuadratureTraces:
    """Noise-free mean quadratures Q_x(t) = Re[exp(-i phi_LO) beta_x].

    Dimensionless; the sqrt(kappa_p) factor of the signal and of q_tau is
    applied downstream, so S(t) = sqrt(2 pi kappa_p) |Q_e - Q_g|.
    """
    signal, beta = _solve_both_states(device, pulse, times)
    phi, rot = lo_rotation(beta[1] - beta[0])
    q_g, q_e = np.real(rot * beta)
    return QuadratureTraces(q_g=q_g, q_e=q_e, phi_lo=phi, signal=signal)


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
