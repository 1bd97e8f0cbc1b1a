# Dense complex linear algebra for small operators (dimension <= 16).

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NoConvergenceError, NotHermitianError, NotPsdError

#: Largest operator dimension this package supports.
DIM_LIMIT = 16

HERMITICITY_TOL = 1e-10

# Single-qubit operators.
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _check_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > DIM_LIMIT:
        raise DimensionMismatchError(
            f"dimension {m.shape[0]} exceeds the supported limit {DIM_LIMIT}"
        )
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices (dimensions multiply)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatchError("kron expects 2-d operands")
    return np.kron(a, b)


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest |entry| of m - m^dagger."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def hermitian_eig(m: np.ndarray, *, symmetrize: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` real and sorted descending and
    ``v[:, k]`` the orthonormal eigenvector for ``w[k]``.  The input must be
    Hermitian within ``HERMITICITY_TOL`` (largest deviation of
    ``m - m^dagger``); pass ``symmetrize=True`` to replace ``m`` by
    ``(m + m^dagger)/2`` instead of raising.  Within a degenerate eigenspace
    the eigenvector choice is arbitrary beyond orthonormality.
    """
    m = _check_square(m)
    if symmetrize:
        m = (m + m.conj().T) / 2
    else:
        defect = hermiticity_defect(m)
        if defect > HERMITICITY_TOL:
            raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL:.1e}")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    order = np.argsort(w)[::-1]
    return w[order].real, v[:, order]


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix.

    Eigenvalues below -1e-8 raise ``NotPsdError``.  Eigenvalues within
    1e-14 of zero relative to the largest are roundoff (sqrt would amplify
    them to 1e-7-scale noise in null directions) and are zeroed, which keeps
    rank-deficient inputs exactly rank-deficient.
    """
    w, v = hermitian_eig(m)
    if w[-1] < -1e-8:
        raise NotPsdError(f"eigenvalue {w[-1]:.3e} below -1.0e-08")
    w = np.clip(w, 0.0, None)
    if w[0] > 0:
        w[w < 1e-14 * w[0]] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


def single_qubit_unitary(theta: float, phi: float, lam: float) -> np.ndarray:
    """Single-qubit unitary from three angles (covers U(2) up to global phase)."""
    c = np.cos(theta / 2)
    s = np.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ]
    )
