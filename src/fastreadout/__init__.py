"""Simulation and analysis toolkit for fast dispersive qubit readout.

Submodules
----------
params    device parameters and derived scalars (chi, n_crit, kappa_eff, ...)
dynamics  deterministic readout-signal models (QSS closed form, two-cavity ODE)
shots     seeded Monte Carlo single-shot generator with decay/mixing/preselection
analysis  matched-filter integration, mixture fit, error budget, overlap model
calib     transmission-spectrum fit, Stark calibration, efficiency calculus
optimize  chi/kappa_eff and drive-power optimization sweeps
cli       command-line front end
"""

from .errors import (
    ConfigError,
    DispersiveRegimeError,
    FastReadoutError,
    FitError,
    GridError,
    NoSignalError,
    PhotonCeilingError,
    TauRangeError,
)
from .params import DeviceParams

__all__ = [
    "ConfigError",
    "DispersiveRegimeError",
    "FastReadoutError",
    "FitError",
    "GridError",
    "NoSignalError",
    "PhotonCeilingError",
    "TauRangeError",
    "DeviceParams",
]

__version__ = "0.1.0"
