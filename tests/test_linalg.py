import numpy as np
import pytest

from entfrac.errors import DimensionMismatchError, NotHermitianError, NotPsdError
from entfrac.linalg import (
    I2,
    X,
    Y,
    Z,
    hermitian_eig,
    hermiticity_defect,
    kron,
    psd_sqrt,
    single_qubit_unitary,
)


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def test_pauli_algebra():
    assert np.allclose(X @ X, I2)
    assert np.allclose(Y @ Y, I2)
    assert np.allclose(Z @ Z, I2)
    assert np.allclose(X @ Y - Y @ X, 2j * Z)


def test_kron_identity_bitflip():
    m = kron(I2, X)
    expect = np.zeros((4, 4))
    expect[0, 1] = expect[1, 0] = expect[2, 3] = expect[3, 2] = 1
    assert np.array_equal(m, expect)


def test_kron_rejects_vectors():
    with pytest.raises(DimensionMismatchError):
        kron(np.ones(2), I2)


def test_kron_associative_and_trace_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.integers(-3, 4, (2, 2)).astype(complex)
        b = rng.integers(-3, 4, (2, 2)).astype(complex)
        c = rng.integers(-3, 4, (2, 2)).astype(complex)
        assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


def test_eig_diagonal_descending():
    w, v = hermitian_eig(np.diag([1.0, 3.0, 2.0]).astype(complex))
    assert np.allclose(w, [3.0, 2.0, 1.0])
    # Columns are the matching standard basis vectors up to phase.
    assert abs(abs(v[1, 0]) - 1) < 1e-12
    assert abs(abs(v[2, 1]) - 1) < 1e-12


def test_eig_hadamard_direction():
    h = (X + Z) / np.sqrt(2)
    w, v = hermitian_eig(h)
    assert np.allclose(w, [1.0, -1.0], atol=1e-12)
    assert np.allclose(h @ v[:, 0], v[:, 0], atol=1e-12)


def test_eig_bell_projector():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    w, v = hermitian_eig(np.outer(phi, phi.conj()))
    assert np.allclose(w, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert abs(abs(phi.conj() @ v[:, 0]) - 1) < 1e-12


def test_eig_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotHermitianError):
        hermitian_eig(m)
    # But symmetrize accepts it and works on (m + m^dag)/2 = X/2.
    w, _ = hermitian_eig(m, symmetrize=True)
    assert np.allclose(w, [0.5, -0.5])


def test_eig_rejects_oversized():
    with pytest.raises(DimensionMismatchError):
        hermitian_eig(np.eye(17, dtype=complex))


def test_eig_reconstruction_randomized():
    rng = np.random.default_rng(202)
    for d in (2, 4, 16):
        for _ in range(40):
            m = random_hermitian(rng, d)
            w, v = hermitian_eig(m)
            assert np.all(np.diff(w) <= 1e-12)
            assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-9
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-10


def test_psd_sqrt_diagonal():
    r = psd_sqrt(np.diag([4.0, 1.0]).astype(complex))
    assert np.allclose(r, np.diag([2.0, 1.0]), atol=1e-12)


def test_psd_sqrt_reconstruction_and_clamp():
    rng = np.random.default_rng(7)
    for _ in range(60):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = a @ a.conj().T
        r = psd_sqrt(m)
        assert hermiticity_defect(r) < 1e-10
        assert np.max(np.abs(r @ r - m)) < 1e-8 * max(1.0, np.linalg.norm(m))
    # A tiny negative eigenvalue is clamped rather than propagated.
    r = psd_sqrt(np.diag([1.0, -1e-12]).astype(complex))
    assert np.allclose(r, np.diag([1.0, 0.0]))


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPsdError):
        psd_sqrt(np.diag([1.0, -0.5]).astype(complex))


def test_single_qubit_unitary_special_points():
    assert np.allclose(single_qubit_unitary(0, 0, 0), I2, atol=1e-12)
    u = single_qubit_unitary(np.pi, 0, np.pi)
    assert np.allclose(u, X, atol=1e-12)


def test_single_qubit_unitary_is_unitary():
    rng = np.random.default_rng(31)
    for _ in range(100):
        th, ph, la = rng.uniform(0, 2 * np.pi, 3)
        u = single_qubit_unitary(th, ph, la)
        assert np.max(np.abs(u.conj().T @ u - I2)) < 1e-12
