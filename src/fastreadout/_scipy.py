"""scipy.optimize.least_squares, imported on its first call.

Importing scipy.optimize takes about a second, and most commands never
fit. `analysis` and `calib` bind this function as their module-level
`least_squares`, so each fitting module keeps a name that a caller can
replace (e.g. to count function evaluations) without importing scipy
first.
"""


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares(*args, **kwargs)."""
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)
