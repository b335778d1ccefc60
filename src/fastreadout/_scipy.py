"""The one door to scipy: scipy.optimize.least_squares, imported on its
first call.

Importing scipy.optimize takes about a second, and most commands never
fit, so importing the package loads no scipy module. Every fit of
`analysis`, `calib` and `shots` runs through this function; each of those
modules binds it as its module-level `least_squares`, a name that a caller
can replace (e.g. to count function evaluations) without importing scipy
first.
"""


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares(*args, **kwargs)."""
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)
