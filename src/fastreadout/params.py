"""Device parameters and the derived scalar quantities of dispersive readout.

`DeviceParams` is the one owner of the derived quantities: chi, n_crit,
kappa_eff, kappa_p, lambda_mix and delta are its properties, each computed
by the module function of the same physics.

All frequencies are stored as ordinary frequencies in Hz (the values usually
quoted as omega/2pi); conversion to angular frequency happens only inside the
dynamics integrators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import require_finite
from .errors import ConfigError


def dispersive_shift(g: float, delta: float, alpha: float) -> float:
    """Dispersive shift chi = g^2/Delta * alpha/(Delta + alpha), in Hz.

    `delta` is the qubit-resonator detuning omega_q - omega_r; `alpha` the
    (negative) transmon anharmonicity. Raises ConfigError, naming the keys,
    when the qubit or the alpha-shifted transition sits on the resonator.
    """
    if delta == 0.0:
        raise ConfigError("omega_q and omega_r give Delta = 0: the qubit is "
                          "on resonance with the resonator")
    if delta + alpha == 0.0:
        raise ConfigError("omega_q, omega_r and alpha give Delta + alpha = 0: "
                          "the f-transition is on resonance with the resonator")
    return (g * g / delta) * (alpha / (delta + alpha))


def critical_photon_number(g: float, delta: float) -> float:
    """n_crit = Delta^2 / (4 g^2)."""
    if g <= 0.0:
        raise ValueError("coupling g must be positive")
    return delta * delta / (4.0 * g * g)


def effective_linewidth(J: float, Q_p: float, omega_p: float, delta_p: float) -> float:
    """Purcell-filter mediated resonator linewidth, in Hz.

    kappa_eff = 4 Q_p J^2 / (omega_p + 4 delta_p^2 Q_p^2 / omega_p)
    """
    if omega_p <= 0.0:
        raise ValueError("omega_p must be positive")
    if Q_p <= 0.0:
        raise ValueError("Q_p must be positive")
    return 4.0 * Q_p * J * J / (omega_p + 4.0 * delta_p * delta_p * Q_p * Q_p / omega_p)


def lambda_param(n_drive: float, n_crit: float) -> float:
    """Drive-induced qubit transition parameter.

    lambda = sin^2( arctan( sqrt((n_drive + 1)/n_crit) ) / 2 ), in [0, 1/2).
    """
    if n_crit <= 0.0:
        raise ValueError("n_crit must be positive")
    if n_drive < 0.0:
        raise ValueError("n_drive must be non-negative")
    theta = math.atan(math.sqrt((n_drive + 1.0) / n_crit))
    return math.sin(0.5 * theta) ** 2


@dataclass(frozen=True)
class DeviceParams:
    """Raw circuit parameters; ordinary frequencies in Hz, times in s."""

    g: float
    omega_q: float
    omega_r: float
    omega_p: float
    alpha: float
    J: float
    Q_p: float
    T1: float
    eta: float
    n_drive: float
    delta_p: float | None = None
    gamma_int: float = 0.0
    omega_d: float | None = None
    dispersive_guard: float = 10.0

    def __post_init__(self):
        require_finite(self)
        if self.g <= 0.0:
            raise ConfigError("g must be positive")
        if self.omega_p <= 0.0:
            raise ConfigError("omega_p must be positive")
        if not (0.0 < self.eta <= 1.0):
            raise ConfigError("eta must lie in (0, 1]")
        if self.T1 <= 0.0:
            raise ConfigError("T1 must be positive")
        if self.Q_p <= 0.0:
            raise ConfigError("Q_p must be positive")
        if self.n_drive < 0.0:
            raise ConfigError("n_drive must be non-negative")
        if self.gamma_int < 0.0:
            raise ConfigError("gamma_int must be non-negative")
        if self.dispersive_guard < 0.0:
            raise ConfigError("dispersive_guard must be non-negative")
        dp = self.omega_r - self.omega_p
        if self.delta_p is None:
            object.__setattr__(self, "delta_p", dp)
        elif abs(self.delta_p - dp) > 1.0 + 1e-9 * abs(dp):
            raise ConfigError(
                "delta_p inconsistent with omega_r - omega_p "
                f"({self.delta_p:g} vs {dp:g} Hz)"
            )
        if self.omega_d is None:
            object.__setattr__(self, "omega_d", self.omega_r)
        delta = self.omega_q - self.omega_r
        if abs(delta) <= self.dispersive_guard * self.g:
            raise ConfigError(f"|omega_q - omega_r| = {abs(delta):g} Hz does "
                              "not exceed dispersive_guard x g = "
                              f"{self.dispersive_guard:g} x {self.g:g} Hz")
        for name, keys in (("chi", "g, omega_q, omega_r and alpha"),
                           ("kappa_eff", "J, Q_p, omega_p and omega_r"),
                           ("kappa_p", "omega_p and Q_p")):
            value = getattr(self, name)
            if value == 0.0 or not math.isfinite(value):
                raise ConfigError(f"{keys} give {name} = {value:g} Hz, which "
                                  "must be nonzero and finite")

    @property
    def delta(self) -> float:
        """Qubit-resonator detuning omega_q - omega_r."""
        return self.omega_q - self.omega_r

    @property
    def kappa_p(self) -> float:
        """Purcell filter linewidth omega_p / Q_p."""
        return self.omega_p / self.Q_p

    @property
    def chi(self) -> float:
        """Dispersive shift chi, in Hz."""
        return dispersive_shift(self.g, self.delta, self.alpha)

    @property
    def n_crit(self) -> float:
        """Critical photon number Delta^2 / (4 g^2)."""
        return critical_photon_number(self.g, self.delta)

    @property
    def kappa_eff(self) -> float:
        """Purcell-filter mediated resonator linewidth, in Hz."""
        return effective_linewidth(self.J, self.Q_p, self.omega_p, self.delta_p)

    @property
    def lambda_mix(self) -> float:
        """Drive-induced transition parameter lambda at n_drive."""
        return lambda_param(self.n_drive, self.n_crit)
