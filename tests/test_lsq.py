"""The numpy Levenberg-Marquardt solver of the readout and spectrum fits."""

import itertools

import numpy as np
import pytest

from conftest import noisy_spectrum_pairs
from fastreadout import calib
from fastreadout._lsq import FTOL, least_squares
from fastreadout.errors import FitError


def model(fun, jac):
    """The least_squares model of residuals fun and their Jacobian jac."""
    return lambda x: (fun(x), lambda: jac(x))


def test_linear_problem_reaches_the_normal_equations_solution():
    rng = np.random.default_rng(0)
    A, b = rng.normal(size=(50, 4)), rng.normal(size=50)
    sol = least_squares(model(lambda x: A @ x - b, lambda x: A), np.zeros(4))
    want = np.linalg.lstsq(A, b, rcond=None)[0]
    assert sol.success and sol.status > 0
    assert np.allclose(sol.x, want, rtol=1e-12, atol=1e-12)
    assert sol.cost == 0.5 * float((A @ sol.x - b) @ (A @ sol.x - b))


def test_rosenbrock_from_the_classic_start():
    def fun(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    def jac(x):
        return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

    sol = least_squares(model(fun, jac), [-1.2, 1.0])
    assert sol.success
    assert np.allclose(sol.x, [1.0, 1.0], rtol=0.0, atol=1e-12)


def test_a_minimum_beyond_a_bound_stops_on_the_bound():
    # (x - 2)^2 + (y + 1)^2 over x <= 1, y >= 0: the corner (1, 0)
    sol = least_squares(model(lambda x: x - np.array([2.0, -1.0]),
                              lambda x: np.eye(2)),
                        [0.0, 0.5], bounds=([-np.inf, 0.0], [1.0, np.inf]))
    assert sol.success
    assert sol.x.tolist() == [1.0, 0.0]
    assert sol.cost == 1.0


def test_max_nfev_stops_without_success():
    def fun(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    def jac(x):
        return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

    sol = least_squares(model(fun, jac), [-1.2, 1.0], max_nfev=3)
    assert sol.nfev == 3 and sol.status == 0 and not sol.success
    assert "max_nfev = 3" in sol.message


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_residuals_at_the_start_raise_fit_error(bad):
    # a non-finite cost would reject every trial and run to max_nfev
    calls = []

    def fun(x):
        calls.append(1)
        return np.array([x[0] - 1.0, bad])

    with pytest.raises(FitError, match="start point"):
        least_squares(model(fun, lambda x: np.array([[1.0], [0.0]])), [0.0])
    assert len(calls) == 1


@pytest.mark.parametrize("index", [2, 3])
def test_a_stalled_fit_ends_at_its_first_flat_rejected_trial(monkeypatch, index):
    # criterion 7's pairs 2 and 3 (generator seed 23) took 20 and 19
    # evaluations, most of them trials rejected at the rounding floor while
    # lam grew tenfold each time. Replayed from the evaluations: the solve
    # ends at the first rejected trial whose predicted reduction is at most
    # FTOL * cost, and returns the lowest cost seen
    evals, sols = [], []
    solve = calib.least_squares

    def recording(model, x0, **kwargs):
        def recorded(x):
            r, jac = model(x)
            evals.append((x.copy(), r, jac))
            return r, jac
        sols.append(solve(recorded, x0, **kwargs))
        return sols[-1]

    monkeypatch.setattr(calib, "least_squares", recording)
    _, omega, s_g, s_e = next(itertools.islice(noisy_spectrum_pairs(23, 20),
                                               index, None))
    calib.fit_transmission(omega, s_g, s_e)
    (sol,) = sols
    x, r, jac = evals[0]
    cost = 0.5 * float(r @ r)
    for i, (x_new, r_new, jac_new) in enumerate(evals[1:], 1):
        cost_new = 0.5 * float(r_new @ r_new)
        J = jac()
        step = x_new - x
        grad, hess = J.T @ r, J.T @ J
        predicted = -float(grad @ step + 0.5 * step @ hess @ step)
        if cost_new < cost:
            x, r, jac, cost = x_new, r_new, jac_new, cost_new
        elif predicted <= FTOL * cost:
            break
    assert i == len(evals) - 1 and cost_new >= cost
    assert sol.status == 2 and sol.nfev == len(evals) <= 10
    assert sol.cost == cost == min(0.5 * float(r @ r) for _, r, _ in evals)
    assert sol.x.tolist() == x.tolist()
