import numpy as np
import pytest

from entfrac.concurrence import concurrence, spin_flip, window_ok
from entfrac.errors import DimensionMismatchError
from entfrac.fef import fully_entangled_fraction
from entfrac.linalg import kron
from entfrac.states import (
    MAGIC,
    fig2_mixture,
    lower_family,
    random_density,
    random_unitary_pair,
    upper_family,
    werner,
)

BELL = np.outer(MAGIC[0], MAGIC[0].conj())


def concurrence_general_route(rho):
    # Independent check: eigenvalues of the (non-Hermitian) product rho*flip,
    # via the general eigensolver rather than the Hermitian similarity.
    w = np.linalg.eigvals(rho @ spin_flip(rho))
    lam = np.sqrt(np.clip(w.real, 0.0, None))
    lam.sort()
    return max(0.0, lam[3] - lam[2] - lam[1] - lam[0])


def test_spin_flip_cases():
    assert np.max(np.abs(spin_flip(BELL) - BELL)) < 1e-14
    r00 = np.zeros((4, 4), dtype=complex)
    r00[0, 0] = 1.0
    r11 = np.zeros((4, 4), dtype=complex)
    r11[3, 3] = 1.0
    assert np.max(np.abs(spin_flip(r00) - r11)) < 1e-14
    assert np.max(np.abs(spin_flip(np.eye(4) / 4) - np.eye(4) / 4)) < 1e-14
    with pytest.raises(DimensionMismatchError):
        spin_flip(np.eye(3))


def test_concurrence_pure_states():
    assert abs(concurrence(BELL).c - 1.0) < 1e-10
    r00 = np.zeros((4, 4), dtype=complex)
    r00[0, 0] = 1.0
    assert concurrence(r00).c < 1e-10


def test_concurrence_schmidt_pure():
    # |psi> = a|00> + b|11> has C = 2ab.
    for a in np.linspace(0.05, 0.99, 15):
        b = np.sqrt(1 - a * a)
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[3] = a, b
        assert abs(concurrence(np.outer(psi, psi.conj())).c - 2 * a * b) < 1e-10


def test_concurrence_werner():
    for p in np.linspace(0, 1, 11):
        assert abs(concurrence(werner(p)).c - max(0.0, (3 * p - 1) / 2)) < 1e-10


def test_concurrence_lambdas_sorted():
    for i in range(100):
        res = concurrence(random_density(31, i))
        assert np.all(res.lambdas >= 0)
        assert np.all(np.diff(res.lambdas) <= 1e-14)
        assert abs(res.c - max(0.0, res.lambdas[0] - res.lambdas[1:].sum())) < 1e-14


def test_concurrence_vs_general_eigensolver():
    for i in range(200):
        rho = random_density(32, i)
        assert abs(concurrence(rho).c - concurrence_general_route(rho)) < 1e-9


def test_concurrence_local_unitary_invariant():
    for i in range(30):
        rho = random_density(33, i)
        ua, ub = random_unitary_pair(33, i)
        u = kron(ub, ua)
        assert abs(concurrence(u @ rho @ u.conj().T).c - concurrence(rho).c) < 1e-9


def e_and_c(rho):
    return fully_entangled_fraction(rho).e, concurrence(rho).c


def test_lower_family_saturates_lower_bound():
    for eps in np.linspace(0, 1, 11):
        for theta in np.linspace(0, np.pi, 11):
            rho = lower_family(eps, theta)
            expect = max(0.0, (1 - eps) * np.sin(theta) - eps / 2)
            e, c = e_and_c(rho)
            assert abs(e - expect) < 1e-10
            assert abs(c - expect) < 1e-10
            assert window_ok(e, c) == (True, True)


def test_upper_family_saturates_upper_bound():
    for zeta in np.linspace(0, 1, 21):
        e, c = e_and_c(upper_family(zeta))
        assert abs(c - (1 - zeta)) < 1e-10
        assert abs(e - max(0.0, 2 * c - 1)) < 1e-10
        assert window_ok(e, c) == (True, True)


def test_bound_chain_random_states():
    for i in range(300):
        e, c = e_and_c(random_density(34, i))
        assert window_ok(e, c) == (True, True)
        assert -1e-9 <= e <= c + 1e-9
        assert c <= (e + 1) / 2 + 1e-9 <= 1 + 1e-9


def test_window_ok_sides():
    assert window_ok(0.5, 0.5) == (True, True)
    assert window_ok(0.5, 0.75) == (True, True)
    assert window_ok(0.5, 0.5 - 2e-9) == (False, True)
    assert window_ok(0.5, 0.75 + 2e-9) == (True, False)


def test_fig2_mixture_shifts_concurrence_upward():
    # The engineered admixture targets higher concurrence than raw draws;
    # compare sample means over matched index ranges.
    n = 4000
    raw = [concurrence(random_density(0, i)).c for i in range(n)]
    mixed = [concurrence(fig2_mixture(0, i)[0]).c for i in range(n)]
    assert np.mean(mixed) > np.mean(raw) + 0.05
    # And the high-concurrence corner is actually populated.
    assert np.mean(np.asarray(mixed) > 0.8) > 0.01
    assert max(raw) < 0.8
