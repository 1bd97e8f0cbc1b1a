import numpy as np
import pytest

from entfrac import optimize
from entfrac.applications import bell_max, bell_max_free_angles, fiducial_gap
from entfrac.campaign import SAMPLER_BUDGET
from entfrac.ddim import fef_numeric_d
from entfrac.fef import fef_oracle_unitary
from entfrac.optimize import SearchBudget, multistart_max, nelder_mead, start_points
from entfrac.states import random_density


def test_quadratic_bowl():
    target = np.array([1.0, -2.0, 0.5])
    f = lambda x: float(np.sum((x - target) ** 2))
    x, fx = nelder_mead(f, np.zeros(3), maxiter=500)
    assert np.max(np.abs(x - target)) < 1e-4
    assert fx < 1e-8


def test_rosenbrock_2d():
    def f(x):
        return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2

    x, fx = nelder_mead(f, np.array([-1.2, 1.0]), maxiter=2000)
    assert np.max(np.abs(x - 1.0)) < 1e-3


def test_trig_objective():
    # min of -cos on [0, 2pi) starting nearby.
    x, fx = nelder_mead(lambda x: -np.cos(x[0]), np.array([0.7]), maxiter=300)
    assert abs(x[0]) < 1e-4
    assert abs(fx + 1.0) < 1e-8


def test_deterministic_repeat():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    a = a @ a.T + np.eye(4)
    f = lambda x: float(x @ a @ x + np.sin(x).sum())
    r1 = nelder_mead(f, np.full(4, 0.3), maxiter=400)
    r2 = nelder_mead(f, np.full(4, 0.3), maxiter=400)
    assert np.array_equal(r1[0], r2[0])
    assert r1[1] == r2[1]


def test_maxiter_returns_best_seen():
    calls = []

    def f(x):
        calls.append(x.copy())
        return float(x[0] ** 2)

    x, fx = nelder_mead(f, np.array([5.0]), maxiter=3)
    assert fx <= min(25.0, fx)
    assert len(calls) >= 2


def test_start_points_fixed_then_seeded_draws():
    starts = start_points([[0.1, 0.2, 0.3]], 5, seed=4, low=-1.0, high=2.0)
    rng = np.random.default_rng(4)
    want = [np.array([0.1, 0.2, 0.3])] + [rng.uniform(-1.0, 2.0, 3) for _ in range(4)]
    assert len(starts) == 5
    for got, ref in zip(starts, want):
        assert np.array_equal(got, ref)
    # fixed starts alone when they already fill the count
    two = start_points([np.zeros(2), np.ones(2)], 1, seed=4)
    assert len(two) == 2 and np.array_equal(two[1], np.ones(2))


def test_multistart_max_is_best_of_its_starts():
    def neg(x):
        return -float(np.cos(3 * x[0]) * np.cos(2 * x[1]) + 0.1 * x[0])

    starts = start_points([np.zeros(2)], 6, seed=9)
    runs = [-nelder_mead(neg, x0, step=0.3, maxiter=40)[1] for x0 in starts]
    assert multistart_max(neg, starts, step=0.3, maxiter=40) == max(runs)


@pytest.fixture
def simplex_calls(monkeypatch):
    """Count simplex runs without doing them: the count never depends on
    what a run returns."""
    calls = []

    def counting(f, x0, *, step=0.5, maxiter=200):
        calls.append((np.asarray(x0).size, step, maxiter))
        return np.asarray(x0, dtype=float), -1.0

    monkeypatch.setattr(optimize, "nelder_mead", counting)
    return calls


def test_search_call_counts(simplex_calls):
    rho = random_density(3, 0)
    budget = SearchBudget()
    expected = [
        (lambda: bell_max(rho, "angles", budget), 10, (2, 0.5, 150)),
        (lambda: bell_max(rho, "local_unitaries", budget), 8, (6, 0.5, 300)),
        (lambda: bell_max_free_angles(rho, budget), 8, (4, 0.5, 150)),
        (lambda: fef_oracle_unitary(rho, budget), 8, (3, 0.4, 150)),
        (lambda: fiducial_gap(1.0, budget), 16, (6, 0.5, 300)),
        # the d-level search is a polar-factor ascent, not a simplex
        (lambda: fef_numeric_d(np.eye(4) / 4, budget), 0, None),
        (lambda: fef_numeric_d(np.eye(9) / 9, budget), 0, None),
        (lambda: bell_max(rho, "angles", SAMPLER_BUDGET), 4, (2, 0.5, 60)),
    ]
    for search, count, call in expected:
        simplex_calls.clear()
        search()
        assert simplex_calls == [call] * count
