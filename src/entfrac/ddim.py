# d x d generalization: dense coding over d^2 clock-and-shift encodings,
# numeric fully entangled fraction by optimizing one local d-dimensional
# unitary, and the generalized maximum teleportation fidelity.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonOrthonormalEncodingError,
    OutOfRangeError,
)
from .linalg import kron, partial_trace
from .optimize import SearchBudget, multistart_max, start_points

# Pair dimension cap: desk-scale verification, 16-dimensional total space.
D_LIMIT = 4


def _pair_dimension(rho: np.ndarray) -> int:
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {rho.shape}")
    d = round(np.sqrt(rho.shape[0]))
    if d * d != rho.shape[0] or d < 2:
        raise DimensionMismatchError(
            f"dimension {rho.shape[0]} is not d^2 for a local dimension d >= 2"
        )
    if d > D_LIMIT:
        raise DimensionMismatchError(f"local dimension {d} exceeds the cap {D_LIMIT}")
    return d


def phi1_d(d: int) -> np.ndarray:
    """|Phi1_d> = (1/sqrt d) sum_i |ii>."""
    ket = np.zeros(d * d, dtype=complex)
    ket[:: d + 1] = 1.0 / np.sqrt(d)
    return ket


def entangled_ket_d(u: np.ndarray) -> np.ndarray:
    """(1 x U)|Phi1_d> for a d x d unitary on the second factor."""
    u = np.asarray(u, dtype=complex)
    return u.T.ravel() / np.sqrt(u.shape[0])


def clock_shift_unitaries(d: int) -> list[np.ndarray]:
    """The d^2 generalized Pauli products Z^j X^k (clock and shift).

    Applied to |Phi1_d> they generate an orthonormal set of maximally
    entangled kets, which makes them the default dense coding alphabet.
    """
    if d < 2 or d > D_LIMIT:
        raise DimensionMismatchError(f"local dimension {d} outside 2..{D_LIMIT}")
    omega = np.exp(2j * np.pi / d)
    clock = np.diag(omega ** np.arange(d))
    shift = np.zeros((d, d), dtype=complex)
    shift[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    out = []
    for j in range(d):
        for k in range(d):
            out.append(np.linalg.matrix_power(clock, j) @ np.linalg.matrix_power(shift, k))
    return out


@dataclass(frozen=True)
class GeneralMaxEntangled:
    """A maximally entangled ket of a d x d pair, carried as amplitudes of
    (1 x U)|Phi1_d>."""

    d: int
    amplitudes: np.ndarray


def general_max_entangled(u: np.ndarray) -> GeneralMaxEntangled:
    """Build and validate the maximally entangled ket (1 x U)|Phi1_d>.

    Checks unit norm and that both reduced states equal I/d to 1e-10, which
    together pin the construction to an actual unitary U.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatchError(f"expected a square unitary, got {u.shape}")
    d = u.shape[0]
    if d < 2 or d > D_LIMIT:
        raise DimensionMismatchError(f"local dimension {d} outside 2..{D_LIMIT}")
    ket = entangled_ket_d(u)
    if abs(np.linalg.norm(ket) - 1.0) > 1e-10:
        raise OutOfRangeError("amplitudes are not unit norm; U is not unitary")
    proj = np.outer(ket, ket.conj())
    target = np.eye(d) / d
    for keep in (0, 1):
        reduced = partial_trace(proj, keep, (d, d))
        if np.max(np.abs(reduced - target)) > 1e-10:
            raise OutOfRangeError(
                "reduced state deviates from I/d; ket is not maximally entangled"
            )
    return GeneralMaxEntangled(d=d, amplitudes=ket)


def dense_coding_fidelity_d(
    rho: np.ndarray, unitaries: list[np.ndarray] | None = None
) -> float:
    """Average dense coding fidelity over d^2 encodings of a d x d state.

    Each encoding U_i is applied to the sender's half and the result is
    overlapped with the ket a perfect channel would deliver, (1 x U_i)
    |Phi1_d>; the d^2 overlaps are averaged.  The encoded kets must form an
    orthonormal set (checked), which is what collapses the average to
    <Phi1_d|rho|Phi1_d>.  Default alphabet: clock-and-shift products.
    """
    rho = np.asarray(rho, dtype=complex)
    d = _pair_dimension(rho)
    if unitaries is None:
        unitaries = clock_shift_unitaries(d)
    if len(unitaries) != d * d:
        raise DimensionMismatchError(
            f"need {d * d} encodings for local dimension {d}, got {len(unitaries)}"
        )
    kets = np.array([entangled_ket_d(u) for u in unitaries])
    gram = kets.conj() @ kets.T
    if np.max(np.abs(gram - np.eye(d * d))) > 1e-10:
        raise NonOrthonormalEncodingError(
            "encodings do not map |Phi1_d> to an orthonormal set"
        )
    eye = np.eye(d, dtype=complex)
    total = 0.0
    for u, target in zip(unitaries, kets):
        big = kron(eye, np.asarray(u, dtype=complex))
        sent = big @ rho @ big.conj().T
        total += float((target.conj() @ sent @ target).real)
    return total / (d * d)


def encoding_capacity_bits(d: int) -> float:
    """Classical capacity of perfect dense coding at local dimension d:
    one of d^2 messages per use, log2(d^2) bits."""
    if d < 2:
        raise OutOfRangeError(f"local dimension must be >= 2, got {d}")
    return float(2.0 * np.log2(d))


def _hermitian_from_params(p: np.ndarray, d: int) -> np.ndarray:
    h = np.zeros((d, d), dtype=complex)
    idx = 0
    for i in range(d):
        h[i, i] = p[idx]
        idx += 1
    for i in range(d):
        for j in range(i + 1, d):
            h[i, j] = p[idx] + 1j * p[idx + 1]
            h[j, i] = p[idx] - 1j * p[idx + 1]
            idx += 2
    return h


def unitary_from_params(p: np.ndarray, d: int) -> np.ndarray:
    """exp(iH) for the Hermitian H packed into d^2 real parameters."""
    w, v = np.linalg.eigh(_hermitian_from_params(np.asarray(p, dtype=float), d))
    return (v * np.exp(1j * w)) @ v.conj().T


def fef_numeric_d(rho: np.ndarray, budget: SearchBudget | None = None) -> float:
    """Numeric fully entangled fraction of a d x d state.

    Maximizes <Phi1_d|(1 x U)^dag rho (1 x U)|Phi1_d> by multi-start simplex
    over the d^2 generator parameters of U; maximizing over one local unitary
    already reaches every maximally entangled target.  No closed form is
    implemented beyond d=2, where this agrees with the magic-basis
    eigenproblem within 1e-6.
    """
    rho = np.asarray(rho, dtype=complex)
    d = _pair_dimension(rho)
    budget = budget or SearchBudget()

    def neg(p):
        ket = entangled_ket_d(unitary_from_params(p, d))
        return -float((ket.conj() @ rho @ ket).real)

    # start count scales with the parameter space: budget.starts * d^2 / 2
    nstarts = max(2, budget.starts * d * d // 2)
    starts = start_points([np.zeros(d * d)], nstarts, budget.seed, -np.pi, np.pi)
    return multistart_max(neg, starts, maxiter=2 * budget.maxiter)


def teleport_max_d(f: float, d: int) -> float:
    """Maximum teleportation fidelity (F d + 1)/(d + 1) at local dimension d."""
    if d < 2 or int(d) != d:
        raise OutOfRangeError(f"local dimension must be an integer >= 2, got {d}")
    if not 1.0 / (d * d) - 1e-12 <= f <= 1.0 + 1e-12:
        raise OutOfRangeError(f"fully entangled fraction {f} outside [1/d^2, 1]")
    return (f * d + 1.0) / (d + 1.0)
