# Spin-flip concurrence for two-qubit mixed states and the window check that
# sandwiches it against the renormalized entangled fraction, E <= C <= (E+1)/2.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import Y, kron, hermitian_eig, psd_sqrt

_YY = kron(Y, Y).real  # antidiagonal (-1, 1, 1, -1), real


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """Spin-flipped state (Y x Y) rho* (Y x Y), conjugation in the computational basis."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 state, got {rho.shape}")
    return _YY @ rho.conj() @ _YY


@dataclass(frozen=True)
class ConcurrenceResult:
    c: float
    lambdas: np.ndarray  # four nonnegative reals, descending


def concurrence(rho: np.ndarray) -> ConcurrenceResult:
    """Concurrence C = max{0, l1 - l2 - l3 - l4}.

    The l_i are the square roots of the eigenvalues of rho * spin_flip(rho),
    obtained here through the Hermitian similarity sqrt(rho) ft sqrt(rho)
    (same spectrum, but a plain Hermitian eigenproblem).  Tiny negative
    eigenvalues from roundoff are clamped before the square root.
    """
    s = psd_sqrt(rho)
    w, _ = hermitian_eig(s @ spin_flip(rho) @ s, symmetrize=True)
    w = np.clip(w, 0.0, None)
    if w[0] > 0:  # zero out eigenvalue roundoff before sqrt amplifies it
        w[w < 1e-14 * w[0]] = 0.0
    lam = np.sqrt(w)
    c = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    return ConcurrenceResult(c=float(c), lambdas=lam)


#: Tolerance of each side of the concurrence window.
BOUND_TOL = 1e-9


def window_ok(e: float, c: float) -> tuple[bool, bool]:
    """The concurrence window E <= C <= (E+1)/2, each side within BOUND_TOL:
    ``(lower_ok, upper_ok)``."""
    return bool(e <= c + BOUND_TOL), bool(c <= (e + 1.0) / 2.0 + BOUND_TOL)
