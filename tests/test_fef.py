import numpy as np
import pytest

from entfrac.applications import _full_correlations, fef_correlation_form
from entfrac.ddim import entangled_ket_d, fef_numeric_d, haar_unitary
from entfrac.errors import DimensionMismatchError
from entfrac.fef import FefResult, fully_entangled_fraction, magic_overlap_matrix
from entfrac.linalg import kron
from entfrac.states import MAGIC, random_density, werner

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
        rng = np.random.default_rng((8, i))
        u = kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
        conj = u @ rho @ u.conj().T
        assert abs(
            fully_entangled_fraction(conj).f - fully_entangled_fraction(rho).f
        ) < 1e-9


def rotated_bell(seed):
    """|Phi1> with a Haar-random unitary on one side: F = 1."""
    w = entangled_ket_d(haar_unitary(np.random.default_rng(seed), 2))
    return np.outer(w, w.conj())


def test_correlation_form_known_states():
    assert abs(fef_correlation_form(BELL) - 1.0) < 1e-12
    assert abs(fef_correlation_form(np.eye(4) / 4) - 0.25) < 1e-12
    assert abs(fef_correlation_form(werner(0.5)) - 0.625) < 1e-12
    assert abs(fef_correlation_form(rotated_bell(40)) - 1.0) < 1e-12


def test_correlation_form_sign_of_det():
    # the symmetric-subspace state (1 - |Psi-><Psi-|)/3 has T = I/3, so
    # det T > 0 and F = 1/3; with the sign of the s3 term flipped the form
    # would read 1/2.  A local rotation keeps det T and F but fills T in.
    rng = np.random.default_rng(5)
    u = kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
    rho = u @ ((np.eye(4) - np.outer(MAGIC[2], MAGIC[2].conj())) / 3) @ u.conj().T
    t = _full_correlations(rho)
    s = np.linalg.svd(t, compute_uv=False)
    assert np.linalg.det(t) > 0.03
    assert abs(fully_entangled_fraction(rho).f - 1.0 / 3.0) < 1e-12
    assert abs(fef_correlation_form(rho) - 1.0 / 3.0) < 1e-12
    assert abs((1 + s[0] + s[1] + s[2]) / 4 - 1.0 / 3.0) > 0.16


def test_correlation_form_agreement():
    for i in range(300):
        rho = random_density(21, i)
        assert abs(fef_correlation_form(rho) - fully_entangled_fraction(rho).f) < 1e-12


def test_entangled_ket_from_unitary():
    v = entangled_ket_d(np.eye(2))
    assert np.allclose(v, MAGIC[0])
    ua = haar_unitary(np.random.default_rng(2), 2)
    w = entangled_ket_d(ua)
    assert np.allclose(w, kron(np.eye(2), ua) @ MAGIC[0], atol=1e-14)


def test_unitary_oracle_known_states():
    assert abs(fef_numeric_d(BELL) - 1.0) < 1e-12
    assert abs(fef_numeric_d(werner(0.5)) - 0.625) < 1e-12
    # A locally rotated Bell state still has fraction 1.
    assert abs(fef_numeric_d(rotated_bell(40)) - 1.0) < 1e-12


def test_sphere_oracle_never_exceeds():
    # a search never exceeds the maximum it looks for
    for i in range(100):
        rho = random_density(22, i)
        assert fef_numeric_d(rho) <= fully_entangled_fraction(rho).f + 1e-12


def test_unitary_oracle_agreement():
    for i in range(40):
        rho = random_density(24, i)
        gap = fef_numeric_d(rho) - fully_entangled_fraction(rho).f
        assert -1e-10 < gap <= 1e-12
