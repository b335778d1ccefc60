"""A small bounded Levenberg-Marquardt least-squares solver in numpy.

It serves every nonlinear fit of the package: the readout fits, which solve
their amplitudes in closed form and leave at most four nonlinear
parameters, and the seven-parameter joint fit of the two transmission
spectra in `calib`. Each step solves the damped normal equations
(J^T J + lam D) dx = -J^T r directly, D the diagonal of J^T J (Marquardt's
scaling, which also evens out parameters that move on very different
scales), and clips the trial point to the bounds. A trial that lowers the
cost is taken and divides lam by 10; one that does not multiplies it by 10.
The solve stops when a step changes x by at most XTOL relative; when a
taken step lowers the cost by at most FTOL relative while its reduction is
at least a quarter of the one the linear model predicts; when a rejected
trial's predicted reduction is at most FTOL relative, so that a larger lam
can only shrink the step further at the rounding floor (Moré, The
Levenberg-Marquardt algorithm: implementation and theory, 1978, as in
MINPACK); or after max_nfev evaluations of the residuals. x is always the
point of the lowest cost seen. Residuals that are not finite at the start
point raise FitError. `least_squares` returns an `LsqResult`: x,
the cost, the evaluation count and a status code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError

#: relative stopping tolerances on the cost and on x, near the rounding
#: level. The cost is so flat there that where a fit stops can still move
#: its x: of 280 spectrum pairs drawn as criterion 7's, 59 fits moved by
#: at most 2.1e-9 relative when rejected trials at the floor began to end
#: the solve
FTOL = 1e-13
XTOL = 1e-13


@dataclass
class LsqResult:
    """x, cost = sum(r**2) / 2 at x, the residual evaluations, and status:
    0 when max_nfev stopped the solve, 2 an FTOL test, 3 the XTOL test."""

    x: np.ndarray
    cost: float
    nfev: int
    status: int
    message: str

    @property
    def success(self) -> bool:
        return self.status > 0


def least_squares(model, x0, bounds=(-np.inf, np.inf),
                  max_nfev=1000) -> LsqResult:
    """Minimize sum(r**2) / 2 over lo <= x <= hi, where r, jac = model(x)
    and jac() gives the (len(r), len(x)) Jacobian of r at x, asked for
    only at the points the solve accepts. Raises FitError when r is not
    finite at x0 (clipped to the bounds)."""
    x = np.asarray(x0, dtype=float)
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), x.shape) for b in bounds)
    x = np.minimum(np.maximum(x, lo), hi)
    r, jac = model(x)
    if not np.all(np.isfinite(r)):
        raise FitError("the residuals at the start point are not finite")
    cost = 0.5 * float(r @ r)
    nfev, lam = 1, 1e-3

    def result(status, message):
        return LsqResult(x, cost, nfev, status, message)

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
                return result(3, "the step is below XTOL")
            if nfev >= max_nfev:
                return result(0, f"stopped after max_nfev = {max_nfev} "
                                 "evaluations")
            r_new, jac_new = model(x_new)
            nfev += 1
            cost_new = 0.5 * float(r_new @ r_new)
            predicted = -float(grad @ step + 0.5 * step @ hess @ step)
            if cost_new < cost:
                break
            if predicted <= FTOL * cost:
                return result(2, "a rejected step predicts a reduction below "
                                 "FTOL")
            lam *= 10.0
        reduction = cost - cost_new
        x, r, jac, cost = x_new, r_new, jac_new, cost_new
        lam = max(lam / 10.0, 1e-12)
        if reduction <= FTOL * cost and reduction >= 0.25 * predicted:
            return result(2, "the cost reduction is below FTOL")
