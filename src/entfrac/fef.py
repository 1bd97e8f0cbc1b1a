# Fully entangled fraction: closed form via the magic-basis overlap matrix.
# Its independent routes live elsewhere: the correlation-matrix form
# applications.fef_correlation_form, and the polar-factor ascent
# ddim.fef_numeric_d, which maximizes the teleportation overlap over U.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, IdentityCheckError
from .linalg import hermitian_eig
from .states import MAGIC


def magic_overlap_matrix(rho: np.ndarray) -> np.ndarray:
    """Real symmetric 4x4 matrix of magic-basis overlaps Re<Phi_n|rho|Phi_m>.

    In this basis any maximally entangled ket is a real combination
    sum_n x_n |Phi_n> with x on the unit 3-sphere, and the overlap of rho with
    it is the quadratic form x.M.x, so maximizing over maximally entangled
    states is an eigenproblem of M.  Trace equals Tr(rho) = 1.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 state, got {rho.shape}")
    m = (MAGIC.conj() @ rho @ MAGIC.T).real
    return (m + m.T) / 2


@dataclass(frozen=True)
class FefResult:
    """Fully entangled fraction ``f``, renormalized measure ``e`` = max{0, 2f-1},
    and the optimal sphere coordinates ``x`` (the ket is sum_n x_n |Phi_n>)."""

    f: float
    e: float
    x: np.ndarray


def fully_entangled_fraction(rho: np.ndarray) -> FefResult:
    """Closed-form fully entangled fraction of a two-qubit state.

    F is the largest eigenvalue of the magic overlap matrix and x its unit
    eigenvector; within a degenerate top eigenspace any maximizer may be
    returned.  F >= Tr(rho)/4 always (the four diagonal overlaps sum to the
    trace), so F >= 1/4 for a unit-trace state.
    """
    m = magic_overlap_matrix(rho)
    w, v = hermitian_eig(m)
    f = float(w[0])
    if f < np.trace(m) / 4.0 - 1e-12:
        raise IdentityCheckError(f"fully entangled fraction {f} below 1/4")
    x = np.asarray(v[:, 0].real, dtype=float)
    x = x / np.linalg.norm(x)
    return FefResult(f=f, e=max(0.0, 2.0 * f - 1.0), x=x)
