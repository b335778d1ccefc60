"""A small bounded Levenberg-Marquardt least-squares solver in numpy, for
a stack of problems solved in lockstep.

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

A stack holds P problems of n parameters and N residuals each. Every
problem keeps its own lam, accepts or rejects its own trials and stops on
its own test; one pass of the loop takes one trial of every open problem,
with one model call and one np.linalg.solve for the whole stack. Stacked
matmul and solve compute each problem's products with the BLAS and LAPACK
calls of that problem alone, so its iterates are bit for bit those it has
in a stack of one. Problems of unequal N are not padded into one stack: a
dot product with trailing zeros can round differently. A 1-D x0 is a stack
of one (the spectrum and preselection fits).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    """x and cost = sum(r**2) / 2 at x of every problem, (P, n) and (P,),
    or (n,) and a float for a 1-D x0; nfev, the residual evaluations summed
    over the problems; statuses (P,) and messages, each problem's stop: 0
    when max_nfev stopped it, 2 an FTOL test, 3 the XTOL test. status and
    message are the lowest status and the first problem's message with it."""

    x: np.ndarray
    cost: np.ndarray | float
    nfev: int
    statuses: np.ndarray
    messages: list[str]

    @property
    def status(self) -> int:
        return int(np.min(self.statuses))

    @property
    def message(self) -> str:
        return self.messages[int(np.argmin(self.statuses))]

    @property
    def success(self) -> bool:
        return self.status > 0


def _dot(a, b):
    """a_p . b_p of every row p: the dot product of 1-D a_p @ b_p."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _normal(J, r):
    """J_p^T r_p, J_p^T J_p and the matrix D_p of Marquardt's scaling,
    diag(J_p^T J_p) with 1 for a zero, of every problem p."""
    J_t = J.transpose(0, 2, 1)
    hess = J_t @ J
    n = hess.shape[1]
    d = hess.reshape(len(hess), -1)[:, ::n + 1]
    scale = np.zeros((len(hess), n * n))
    scale[:, ::n + 1] = np.where(d > 0.0, d, 1.0)
    return (J_t @ r[:, :, None])[:, :, 0], hess, scale.reshape(hess.shape)


def least_squares(model, x0, bounds=(-np.inf, np.inf),
                  max_nfev=1000) -> LsqResult:
    """Minimize sum(r_p**2) / 2 over lo <= x_p <= hi for every problem p
    of the stack x0 (P, n), where r, jac = model(x) gives the residuals
    (P, N) at x (P, n) and jac() their Jacobians (P, N, n) there, asked for
    only at points where some problem accepts its trial. The model sees
    every problem at each call; a problem that has stopped sits at its
    final x, and its evaluation is not counted. A 1-D x0 is one problem:
    its model takes x (n,) and returns r (N,) and jac() (N, n). bounds
    broadcast to x0; max_nfev bounds each problem's evaluations. Raises
    FitError when r is not finite at x0 (clipped to the bounds).

    The products are stacked; each problem's decisions are taken on its
    own floats, as a solve of that problem alone takes them."""
    x = np.asarray(x0, dtype=float)
    if x.ndim == 1:
        def stacked(x):
            r, jac = model(x[0])
            return r[None], lambda: jac()[None]

        sol = least_squares(stacked, x[None], bounds, max_nfev)
        return replace(sol, x=sol.x[0], cost=float(sol.cost[0]))
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), x.shape) for b in bounds)
    x = np.minimum(np.maximum(x, lo), hi)
    r, jac = model(x)
    if not np.all(np.isfinite(r)):
        raise FitError("the residuals at the start point are not finite")
    problems = range(len(x))
    cost = (0.5 * _dot(r, r)).tolist()
    grad, hess, scale = _normal(jac(), r)
    x_norm = np.sqrt(_dot(x, x)).tolist()
    nfev, lam, stops = [1] * len(x), [1e-3] * len(x), [None] * len(x)
    while None in stops:
        x_new = np.minimum(np.maximum(x + np.linalg.solve(
            hess + np.array(lam)[:, None, None] * scale,
            -grad[:, :, None])[:, :, 0], lo), hi)
        step = x_new - x
        for p, norm in enumerate(np.sqrt(_dot(step, step)).tolist()):
            if stops[p] is None and norm <= XTOL * (XTOL + x_norm[p]):
                stops[p] = (3, "the step is below XTOL")
            elif stops[p] is None and nfev[p] >= max_nfev:
                stops[p] = (0, f"stopped after max_nfev = {max_nfev} evaluations")
        trial = [p for p in problems if stops[p] is None]
        if not trial:
            break
        held = [p for p in problems if stops[p] is not None]
        if held:
            x_new[held] = x[held]
        r_new, jac_new = model(x_new)
        cost_new = (0.5 * _dot(r_new, r_new)).tolist()
        predicted = (-(_dot(grad, step) + 0.5 * (
            (step[:, None, :] @ hess) @ step[:, :, None])[:, 0, 0])).tolist()
        accepted, renew = [], []
        for p in trial:
            nfev[p] += 1
            if cost_new[p] < cost[p]:
                reduction = cost[p] - cost_new[p]
                cost[p], lam[p] = cost_new[p], max(lam[p] / 10.0, 1e-12)
                accepted.append(p)
                if reduction <= FTOL * cost[p] and reduction >= 0.25 * predicted[p]:
                    stops[p] = (2, "the cost reduction is below FTOL")
                else:
                    renew.append(p)
            elif predicted[p] <= FTOL * cost[p]:
                stops[p] = (2, "a rejected step predicts a reduction below FTOL")
            else:
                lam[p] *= 10.0
        # rows taken whole when every problem moves, as one alone always does
        if len(accepted) == len(x):
            x = x_new
        elif accepted:
            x[accepted] = x_new[accepted]
        if len(renew) == len(x):
            grad, hess, scale = _normal(jac_new(), r_new)
        elif renew:
            for old, new in zip((grad, hess, scale), _normal(jac_new(), r_new)):
                old[renew] = new[renew]
        if renew:
            x_norm = np.sqrt(_dot(x, x)).tolist()
    statuses, messages = zip(*stops)
    return LsqResult(x, np.array(cost), sum(nfev), np.array(statuses),
                     list(messages))
