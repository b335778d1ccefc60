"""The numpy Levenberg-Marquardt solver of the readout and spectrum fits."""

import itertools

import numpy as np
import pytest

from conftest import noisy_spectrum_pairs, sequential_least_squares
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


# ---------------------------------------------------------------------------
# a stack of problems against one sequential solve per problem
# ---------------------------------------------------------------------------

def rosenbrock_stack(a):
    """The stacked model of Rosenbrock problems r_p = (a_p (x1 - x0^2),
    1 - x0), one scale a_p per row."""
    a = np.asarray(a, dtype=float)

    def stacked(x):
        r = np.column_stack([a * (x[:, 1] - x[:, 0] ** 2), 1.0 - x[:, 0]])

        def jac():
            J = np.zeros((len(a), 2, 2))
            J[:, 0, 0], J[:, 0, 1], J[:, 1, 0] = -2.0 * a * x[:, 0], a, -1.0
            return J
        return r, jac
    return stacked


def one_of(stacked, p, x0):
    """Problem p of a stacked model as the model of one problem, the other
    rows held at their start x0."""
    def one(x):
        X = x0.copy()
        X[p] = x
        r, jac = stacked(X)
        return r[p], lambda: jac()[p]
    return one


def assert_stack_matches_the_loop(stacked, x0, **kwargs):
    sol = least_squares(stacked, x0, **kwargs)
    alone = [sequential_least_squares(one_of(stacked, p, x0), x0[p], **kwargs)
             for p in range(len(x0))]
    xs, costs, nfevs, statuses, messages = zip(*alone)
    assert sol.x.tolist() == np.array(xs).tolist()
    assert sol.cost.tolist() == list(costs)
    assert sol.statuses.tolist() == list(statuses)
    assert sol.messages == list(messages)
    assert sol.nfev == sum(nfevs) and sol.status == min(statuses)
    return sol, nfevs


def test_a_stack_iterates_as_each_problem_alone():
    # every problem keeps its own lam, trials and stop, bit for bit, however
    # many iterations the others take; max_nfev stops some and not others
    rng = np.random.default_rng(7)
    a = 10.0 ** rng.uniform(-1.0, 2.0, 8)
    x0 = rng.uniform(-2.0, 2.0, (8, 2))
    sol, nfevs = assert_stack_matches_the_loop(rosenbrock_stack(a), x0)
    assert sol.success and len(set(nfevs)) > 4
    sol, _ = assert_stack_matches_the_loop(rosenbrock_stack(a), x0, max_nfev=12,
                                           bounds=([-1.5, -np.inf], np.inf))
    assert {0, 3} <= set(sol.statuses.tolist()) and not sol.success
    assert "max_nfev = 12" in sol.message


def test_normal_column_stacks_match_the_loop():
    # two-histogram problems of one bin count: problem 0 takes the
    # one-column amplitude fit at its solution, and problem 4, whose two
    # histograms are equal, starts with two equal columns, a singular Gram
    # matrix that must not fail the amplitudes of the others
    from fastreadout.analysis import NormalColumns, _normal_pdf

    rng = np.random.default_rng(8)
    centers = np.tile(np.linspace(-4.0, 9.0, 70), (5, 1))
    mu = np.column_stack([rng.uniform(-1.0, 1.0, 5), rng.uniform(3.0, 6.0, 5)])
    sigma = rng.uniform(0.4, 1.2, (5, 2))
    amps = rng.uniform([[900.0, 0.0], [0.0, 800.0]], [[1100.0, 60.0], [90.0, 1200.0]],
                       (5, 2, 2))
    amps[0, 1, 0] = -20.0  # histogram g of problem 0 dips below column e
    counts = _normal_pdf(centers[:, :, None], mu[:, None], sigma[:, None]) @ amps
    counts += rng.normal(0.0, 3.0, counts.shape)
    counts[4, :, 1] = counts[4, :, 0]
    model = NormalColumns(centers, counts)
    x0 = np.column_stack([mu, sigma]) * rng.uniform(0.9, 1.1, (5, 4))
    x0[4] = 1.0, 1.0, 0.8, 0.8
    phi, _ = NormalColumns(centers[4], counts[4]).densities(x0[4])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(phi.T @ phi, phi.T @ counts[4])
    sol, _ = assert_stack_matches_the_loop(model, x0, max_nfev=2000)
    assert sol.success
    assert model.amplitudes(sol.x)[0, 1, 0] == 0.0
