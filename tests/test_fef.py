import numpy as np
import pytest

from entfrac.errors import DimensionMismatchError
from entfrac.fef import (
    FefResult,
    _jacobi_top,
    entangled_ket_from_unitary,
    fef_oracle_sphere,
    fef_oracle_unitary,
    fully_entangled_fraction,
    magic_overlap_matrix,
)
from entfrac.linalg import kron
from entfrac.states import MAGIC, random_density, random_unitary_pair, werner

BELL = np.outer(MAGIC[0], MAGIC[0].conj())


def magic_diag(weights):
    return sum(w * np.outer(MAGIC[n], MAGIC[n].conj()) for n, w in enumerate(weights))


def test_overlap_matrix_bell_and_mixed():
    assert np.allclose(magic_overlap_matrix(BELL), np.diag([1.0, 0, 0, 0]), atol=1e-14)
    assert np.allclose(magic_overlap_matrix(np.eye(4) / 4), np.eye(4) / 4, atol=1e-14)


def test_overlap_matrix_magic_diagonal_weights():
    m = magic_overlap_matrix(magic_diag([0.7, 0.1, 0.1, 0.1]))
    assert np.allclose(m, np.diag([0.7, 0.1, 0.1, 0.1]), atol=1e-14)


def test_overlap_matrix_symmetry_and_trace():
    for i in range(50):
        m = magic_overlap_matrix(random_density(13, i))
        assert np.array_equal(m, m.T)
        assert abs(np.trace(m) - 1.0) < 1e-10


def test_overlap_matrix_rejects_wrong_dim():
    with pytest.raises(DimensionMismatchError):
        magic_overlap_matrix(np.eye(3) / 3)


def test_fef_magic_states():
    for n in range(4):
        res = fully_entangled_fraction(np.outer(MAGIC[n], MAGIC[n].conj()))
        assert abs(res.f - 1.0) < 1e-12
        assert abs(res.e - 1.0) < 1e-12


def test_fef_werner_line():
    for p in np.linspace(0, 1, 11):
        res = fully_entangled_fraction(werner(p))
        assert abs(res.f - (1 + 3 * p) / 4) < 1e-12
        assert abs(res.e - max(0.0, (3 * p - 1) / 2)) < 1e-12


def test_fef_separable_product():
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0  # |01><01|
    res = fully_entangled_fraction(rho)
    assert abs(res.f - 0.5) < 1e-10
    assert res.e == 0.0


def test_fef_result_structure():
    for i in range(100):
        rho = random_density(4, i)
        res = fully_entangled_fraction(rho)
        assert isinstance(res, FefResult)
        assert res.f >= 0.25 - 1e-12
        assert abs(np.linalg.norm(res.x) - 1.0) < 1e-10
        assert res.e == max(0.0, 2 * res.f - 1.0)
        m = magic_overlap_matrix(rho)
        assert abs(res.x @ m @ res.x - res.f) < 1e-10


def test_fef_local_unitary_invariance():
    for i in range(30):
        rho = random_density(8, i)
        ua, ub = random_unitary_pair(8, i)
        u = kron(ub, ua)
        conj = u @ rho @ u.conj().T
        assert abs(
            fully_entangled_fraction(conj).f - fully_entangled_fraction(rho).f
        ) < 1e-9


def test_jacobi_matches_library_eigensolver():
    rng = np.random.default_rng(77)
    for _ in range(200):
        a = rng.standard_normal((4, 4))
        a = (a + a.T) / 2
        assert abs(_jacobi_top(a, 30) - np.linalg.eigvalsh(a)[-1]) < 1e-12


def test_sphere_oracle_known_states():
    assert abs(fef_oracle_sphere(BELL) - 1.0) < 1e-9
    assert abs(fef_oracle_sphere(np.eye(4) / 4) - 0.25) < 1e-9


def test_sphere_oracle_agreement():
    for i in range(300):
        rho = random_density(21, i)
        assert abs(fef_oracle_sphere(rho) - fully_entangled_fraction(rho).f) < 1e-9


def test_sphere_oracle_never_exceeds():
    for i in range(100):
        rho = random_density(22, i)
        assert fef_oracle_sphere(rho) <= fully_entangled_fraction(rho).f + 1e-12


def test_entangled_ket_from_unitary():
    v = entangled_ket_from_unitary(np.eye(2))
    assert np.allclose(v, MAGIC[0])
    ua, _ = random_unitary_pair(2)
    w = entangled_ket_from_unitary(ua)
    assert np.allclose(w, kron(np.eye(2), ua) @ MAGIC[0], atol=1e-14)


def test_unitary_oracle_known_states():
    assert abs(fef_oracle_unitary(BELL) - 1.0) < 1e-6
    assert abs(fef_oracle_unitary(werner(0.5)) - 0.625) < 1e-6
    # A locally rotated Bell state still has fraction 1.
    ua, _ = random_unitary_pair(40)
    w = entangled_ket_from_unitary(ua)
    assert abs(fef_oracle_unitary(np.outer(w, w.conj())) - 1.0) < 1e-6


def test_unitary_oracle_agreement():
    for i in range(40):
        rho = random_density(24, i)
        assert abs(fef_oracle_unitary(rho) - fully_entangled_fraction(rho).f) < 1e-6
