"""Deterministic readout-signal dynamics.

Two models of the state-dependent output signal S(t):

* a quasi-steady-state (QSS) closed form for a single driven cavity, valid
  when the Purcell filter adiabatically follows the readout resonator, and
* the full two-cavity linear model (readout resonator + Purcell filter),
  solved exactly by `TwoCavityModel.trace`, the one solver: the
  eigendecomposition of each qubit state's system matrix gives the field on
  every segment of constant drive, for one or both prepared states held
  through the pulse, in one call. Shots whose qubit jumps are these
  no-jump fields plus decaying transients (`shots.ReadoutChain`).

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

from .config import require_finite
from .errors import ConfigError, PhotonCeilingError
from .params import DeviceParams

TWOPI = 2.0 * math.pi

#: default high-power-segment amplitude multiplier of the two-step pulse
DEFAULT_BOOST_FACTOR = 2.5
#: default high-power-segment duration of the two-step pulse (s)
DEFAULT_BOOST_DURATION = 4e-9
#: largest resonator photon number the linear model is trusted at
PHOTON_CEILING = 100.0
#: step (s) of the solver's uniform grid: the largest step of a signal
#: trace and the grid on which filter_fields checks PHOTON_CEILING
GRID_STEP = 0.5e-9
#: points per trace of the ceiling check, which bound its temporaries
_CEILING_CHUNK = 2**16


def to_sqrt_mhz(s):
    """Convert a signal from 1/sqrt(s) (angular) to sqrt(MHz) (ordinary)."""
    return np.asarray(s) / math.sqrt(TWOPI * 1e6)


@dataclass(frozen=True)
class PulseEnvelope:
    """Readout drive envelope: square ('gated') or boosted ('two_step').
    Errors name kind, amplitude and total_duration by their configuration
    keys pulse_kind, pulse_amplitude and pulse_duration."""

    kind: str = "gated"
    amplitude: float = 1.0
    boost_factor: float = DEFAULT_BOOST_FACTOR
    boost_duration: float = DEFAULT_BOOST_DURATION
    total_duration: float = 300e-9

    def __post_init__(self):
        require_finite(self)
        if self.kind not in ("gated", "two_step"):
            raise ConfigError(f"unknown pulse_kind {self.kind!r}")
        if self.kind == "gated":
            object.__setattr__(self, "boost_factor", 1.0)
        if self.amplitude < 0.0 or self.boost_factor < 0.0:
            raise ConfigError("pulse_amplitude and boost_factor must be non-negative")
        if self.boost_duration < 0.0:
            raise ConfigError("boost_duration must be non-negative")
        if not self.total_duration > 0.0:
            raise ConfigError("pulse_duration must be positive")
        if self.kind == "two_step" and self.boost_duration >= self.total_duration:
            raise ConfigError("a two_step pulse needs boost_duration < "
                              "pulse_duration")

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
    """S(t) samples on a uniform time grid."""

    times: np.ndarray
    values: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


# ---------------------------------------------------------------------------
# quasi-steady-state closed form (single effective cavity)
# ---------------------------------------------------------------------------

def qss_steady_signal(n_drive: float, chi: float, kappa_eff):
    """Steady-state signal of the QSS model, in 1/sqrt(s) (angular), for a
    scalar kappa_eff or an array of them."""
    # C pow, as ** of a Python float: numpy's square differs in the last bit
    r2 = np.float_power(2.0 * chi / kappa_eff, 2)
    ca = TWOPI * chi
    ka = TWOPI * kappa_eff
    return np.sqrt(16.0 * n_drive * ca * ca / ka / (1.0 + r2))


def qss_signal(n_drive: float, chi: float, kappa_eff, t):
    """QSS signal S(t) for a gated pulse starting at t = 0.

    Exact solution of the driven one-cavity equation of motion,
    S(t) = S_ss / (2|r|) *
    |2r - exp(-pi kappa t) (sin(2 pi chi t) + 2 r cos(2 pi chi t))|
    with r = chi/kappa, which vanishes at t = 0 as the physical signal must.
    kappa_eff may be an array that broadcasts against t, e.g. one row of
    candidates (K, 1) against times (N,) or (K, N).
    """
    t = np.asarray(t, dtype=float)
    return _qss_from_phases(n_drive, chi, kappa_eff, t, *_qss_phases(chi, t))


def _qss_phases(chi: float, t):
    """sin(2 pi chi t) and cos(2 pi chi t) of qss_signal: they do not depend
    on kappa_eff, so a search over kappa_eff computes them once per grid."""
    phase = TWOPI * chi * t
    return np.sin(phase), np.cos(phase)


def _qss_from_phases(n_drive: float, chi: float, kappa_eff, t, sin_t, cos_t):
    """qss_signal on the grid t whose _qss_phases are sin_t and cos_t."""
    r = chi / kappa_eff
    sss = qss_steady_signal(n_drive, chi, kappa_eff)
    damp = np.exp(-math.pi * kappa_eff * t)
    bracket = np.abs(2.0 * r - damp * (sin_t + 2.0 * r * cos_t))
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

    `J`, an array of couplings in Hz, stands in for device.J: the model is
    then a stack of models of that `shape`, one per coupling, whose tables
    are built with one stacked np.linalg call each, and `trace` puts that
    shape in front of its output. Each entry equals the model of
    replace(device, J=J[k]) bit for bit; the default is the device's own
    coupling, shape ().
    """

    def __init__(self, device: DeviceParams, J=None):
        self.device = device
        J = device.J if J is None else np.asarray(J, dtype=float)
        self.shape = np.shape(J)
        self.chi_a = TWOPI * device.chi
        self.J_a = TWOPI * J
        self.kappa_pa = TWOPI * device.kappa_p
        self.gamma_a = TWOPI * device.gamma_int
        self.delta_r_a = TWOPI * (device.omega_r - device.omega_d)
        self.delta_pf_a = TWOPI * (device.omega_p - device.omega_d)

        self._b = np.array([0.0, math.sqrt(self.kappa_pa)], dtype=complex)
        A = self._matrices(symmetric=False)
        self._A = {-1: A[..., 0, :, :], +1: A[..., 1, :, :]}
        # the tables of trace, state axis 0 for g and 1 for e: eigenvalues,
        # eigenvectors, their inverse and the steady state at unit drive
        self._lam, self._V = np.linalg.eig(A)
        self._Vi = np.linalg.inv(self._V)
        self._x_unit = np.linalg.solve(A, -self._b[:, None])[..., 0]

        # drive normalization at the symmetric point omega_d = omega_r, from
        # Python scalars: numpy's vectorized abs and square differ from them
        # in the last bit
        alpha = np.linalg.solve(self._matrices(symmetric=True),
                                -self._b[:, None])[..., 0, 0]
        eps0 = []
        for a_g, a_e in alpha.reshape(-1, 2):
            n_mean = 0.5 * float(abs(a_g)) ** 2 + 0.5 * float(abs(a_e)) ** 2
            eps0.append(math.sqrt(device.n_drive / n_mean) if n_mean > 0.0 else 0.0)
        if not all(map(math.isfinite, eps0)):
            raise PhotonCeilingError(f"n_drive = {device.n_drive:g} needs a "
                                     "drive amplitude that is not finite")
        self.eps0 = eps0[0] if self.shape == () else np.reshape(eps0, self.shape)

    def _matrices(self, symmetric: bool) -> np.ndarray:
        """The system matrices of g and e, shape + (2, 2, 2)."""
        dr = 0.0 if symmetric else self.delta_r_a
        dpf = (self.delta_pf_a - self.delta_r_a) if symmetric else self.delta_pf_a
        J = np.asarray(self.J_a)[..., None]
        A = np.empty(self.shape + (2, 2, 2), dtype=complex)
        A[..., 0, 0] = -1j * (dr + np.array([-1.0, 1.0]) * self.chi_a) \
            - self.gamma_a / 2.0
        A[..., 0, 1] = A[..., 1, 0] = -1j * J
        A[..., 1, 1] = -1j * dpf - self.kappa_pa / 2.0
        return A

    def steady_state(self, s: int, eps: float) -> np.ndarray:
        """Exact steady state (d/dt = 0) for a constant drive eps."""
        return eps * self._x_unit[..., int(s > 0), :]

    def trace(self, s0, pulse: PulseEnvelope, times) -> np.ndarray:
        """Exact fields (alpha, beta) at `times`, from vacuum at t = 0, with
        the qubit held in state s0 (-1 g, +1 e).

        A scalar s0 gives shape (len(times), 2); a 1-D s0 gives one row per
        entry, shape (rows, len(times), 2); a stacked model puts its shape in
        front. The edges are t = 0 and the drive edges of `pulse`; on the
        segment that starts at edge a the field is the closed form
        x_ss + V exp(lambda (t - a)) c, evaluated for every (row, sample) at
        once. A sample within 1e-15 s after an edge belongs to the segment
        that ends there. Raises ValueError unless `times` is ascending.
        """
        times = np.asarray(times, dtype=float)
        if np.any(times[1:] < times[:-1]):
            raise ValueError("trace times must be ascending")
        s0 = np.asarray(s0)
        if len(times) == 0:
            return np.empty(self.shape + s0.shape + (0, 2), dtype=complex)
        t_max = float(times[-1])
        edges = np.array([0.0] + sorted({t for a, b, _ in pulse.segments()
                                         for t in (a, b)
                                         if 1e-15 < t < t_max - 1e-15}))
        ends = np.append(edges[1:], t_max)

        # per row, one for each model of the stack and entry of s0: the
        # eigen tables of its state; per segment: the steady state and the
        # coefficients c of the closed form, carried from each segment's
        # start to the next
        state = (s0.reshape(-1) > 0).astype(int)
        lam = self._lam[..., state, :].reshape(-1, 2)
        V, Vi = (table[..., state, :, :].reshape(-1, 2, 2)
                 for table in (self._V, self._Vi))
        eps = np.repeat(np.ravel(self.eps0), len(state))
        xss = (eps[:, None] * pulse.envelope(0.5 * (edges + ends)))[..., None] \
            * self._x_unit[..., state, :].reshape(-1, 1, 2)
        growth = np.exp(lam[:, None] * (ends - edges)[:, None])
        c = np.empty_like(xss)
        c[:, 0] = _apply(Vi, -xss[:, 0])  # from vacuum at t = 0
        for j in range(1, len(edges)):
            x = xss[:, j - 1] + _apply(V, growth[:, j - 1] * c[:, j - 1])
            c[:, j] = _apply(Vi, x - xss[:, j])
        Vc = V[:, None] * c[..., None, :]

        # segment of each sample: the edges after 0 it passes by over 1e-15 s;
        # the times ascend, so the samples of a segment are one slice
        seg = np.sum(edges[1:] + 1e-15 < times[:, None], axis=1)
        growth = lam[:, :, None] * (times - edges[seg])  # (row, mode, sample)
        np.exp(growth, out=growth)
        # each field x_ss + V exp(lambda (t - a)) c, summed in place as
        # x_ss + (V_0 g_0 + V_1 g_1)
        out = np.empty((len(lam), len(times), 2), dtype=complex)
        first = np.searchsorted(seg, np.arange(len(edges) + 1))
        for j, (a, b) in enumerate(zip(first[:-1], first[1:])):
            g = growth[..., a:b]
            for field in (0, 1):
                o = out[:, a:b, field]
                np.multiply(Vc[:, j, field, 0, None], g[:, 0], out=o)
                o += Vc[:, j, field, 1, None] * g[:, 1]
                o += xss[:, j, field, None]
        return out.reshape(self.shape + s0.shape + out.shape[1:])

    def filter_fields(self, pulse: PulseEnvelope, times) -> np.ndarray:
        """The filter fields beta at `times` of both prepared states held
        through `pulse`, row 0 g and row 1 e, after checking the resonator
        photon number against PHOTON_CEILING at `times` and every
        GRID_STEP of [0, times[-1]], a grid that 8 ns bin centres are
        not, so every caller meets one rule; finer times stand for it."""
        times = np.asarray(times, dtype=float)
        fields = self.trace([-1, +1], pulse, times)
        self.check_ceiling(fields)
        if np.max(np.diff(times, prepend=0.0)) > GRID_STEP + 1e-15:
            n = math.ceil(times[-1] / GRID_STEP)
            for a in range(0, n, _CEILING_CHUNK):
                fine = np.arange(a, min(a + _CEILING_CHUNK, n)) * GRID_STEP
                self.check_ceiling(self.trace([-1, +1], pulse, fine))
        return fields[..., 1]

    def signal(self, beta: np.ndarray) -> np.ndarray:
        """S = sqrt(kappa_pa) |beta_e - beta_g| of filter fields g, e on axis -2."""
        return math.sqrt(self.kappa_pa) * np.abs(beta[..., 1, :] - beta[..., 0, :])

    def check_ceiling(self, fields: np.ndarray, n=None):
        """Raise PhotonCeilingError when the resonator photon number of
        `fields` is not finite or exceeds PHOTON_CEILING. With `n`, the
        trace of a 1-D stack is checked model by model, model k on its
        first n[k] samples only."""
        a = np.abs(fields[..., 0])
        if n is not None:
            a = np.where(np.arange(a.shape[-1]) < np.reshape(n, (-1, 1, 1)), a, 0.0)
        for a_max in np.max(a.reshape(len(a) if n is not None else 1, -1),
                            axis=1).tolist():
            # squared as a Python float: a huge field gives inf, not a warning
            n_max = a_max * a_max
            if not math.isfinite(n_max):
                raise PhotonCeilingError(
                    f"resonator photon number is not finite ({n_max})")
            if n_max > PHOTON_CEILING:
                raise PhotonCeilingError(
                    f"resonator photon number {n_max:.4g} exceeds ceiling "
                    f"{PHOTON_CEILING:g}"
                )


def _apply(M, y):
    """The products M @ y of stacked 2 x 2 matrices and 2-vectors."""
    return M[..., 0] * y[..., :1] + M[..., 1] * y[..., 1:]


def _solve_both_states(device: DeviceParams, pulse: PulseEnvelope, times):
    """(S(t) as a SignalTrace, beta): one exact solve of both prepared
    states on a uniform grid of step <= GRID_STEP; beta[0] is the filter field
    of g and beta[1] that of e, and S = sqrt(kappa_pa) |beta_e - beta_g|."""
    times = np.asarray(times, dtype=float)
    if len(times) < 2:
        raise ConfigError("the signal grid needs at least two points")
    dt = times[1] - times[0]
    if dt > GRID_STEP + 1e-15:
        raise ConfigError(f"grid_step = {dt:g} s is coarser than the "
                          f"solver's {GRID_STEP:g} s grid")
    model = TwoCavityModel(device)
    beta = model.filter_fields(pulse, times)
    return SignalTrace(times=times, values=model.signal(beta)), beta


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


def integrated_rate(trace: SignalTrace, tau):
    """s(tau) = (1/sqrt(tau)) * integral_0^tau S(t) dt: one cumulative
    trapezoid over the trace's points t_k <= tau, plus the piece to tau,
    S(tau) interpolated.

    `trace.values` may stack signals on the shared `times`, shape
    (..., len(times)); a scalar tau then gives one rate per signal, shape
    (...), and a 1-D tau one row per signal, shape (..., len(tau)). A
    single signal gives a float for a scalar tau. Each call takes one
    cumulative sum, whose running totals are the same bits for every tau
    and every prefix of the grid.
    """
    times, values = trace.times, trace.values
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    bad = taus[~((taus > 0.0) & (taus <= times[-1] + 1e-15))]
    if bad.size:
        raise ConfigError(f"tau = {bad[0]:g} s lies outside the signal's "
                          f"(0, {times[-1]:g}] s")
    area = np.cumsum(np.diff(times) * (values[..., 1:] + values[..., :-1]) / 2.0,
                     axis=-1)
    area = np.concatenate((np.zeros(values.shape[:-1] + (1,)), area), axis=-1)
    k = np.searchsorted(times, taus + 1e-15, side="right") - 1
    at_tau = np.reshape([np.interp(taus, times, v)
                         for v in values.reshape(-1, len(times))],
                        values.shape[:-1] + taus.shape)
    piece = (taus - times[k]) * (values[..., k] + at_tau) / 2.0
    area = area[..., k] + np.where(times[k] < taus - 1e-15, piece, 0.0)
    rate = area / np.sqrt(taus)
    if np.ndim(tau):
        return rate
    return float(rate[0]) if values.ndim == 1 else rate[..., 0]
