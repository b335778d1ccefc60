"""Exception hierarchy shared across the package. The class owns the exit
code: ConfigError exits 2 and names the keys that set the value it refuses;
FitError, PhotonCeilingError and NoSignalError exit 3 (numerical failure)."""


class FastReadoutError(Exception):
    """Base class for all package errors."""


class ConfigError(FastReadoutError):
    """Invalid or inconsistent configuration input."""


class PhotonCeilingError(FastReadoutError):
    """Intracavity photon number exceeded the configured ceiling."""


class NoSignalError(FastReadoutError):
    """Ground and excited responses are identical; no weights can be built."""


class FitError(FastReadoutError):
    """A nonlinear fit failed to converge or the data are degenerate."""
