"""The one door to scipy: scipy.optimize.least_squares, imported on its
first call.

Importing scipy.optimize takes about a third of a second and some 45 MB of
resident memory, and most commands never need it, so importing the package
loads no scipy module. Only the seven-parameter spectrum fit of `calib`
runs through this function; `calib` binds it as its module-level
`least_squares`, a name that a caller can replace (e.g. to count function
evaluations) without importing scipy first. The readout fits of `analysis`
and `shots` solve at most four nonlinear parameters with the numpy solver
of `_lsq` instead.
"""


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares(*args, **kwargs)."""
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)
