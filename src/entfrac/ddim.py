# d x d generalization: dense coding over d^2 clock-and-shift encodings,
# numeric fully entangled fraction by optimizing one local d-dimensional
# unitary, and the generalized maximum teleportation fidelity.

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonOrthonormalEncodingError,
    OutOfRangeError,
)
from .linalg import kron
from .optimize import SearchBudget

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
    # math.sqrt: the same correctly rounded root as np.sqrt, without the
    # numpy scalar that costs more than the rest on the oracles' 2x2 calls
    return u.T.ravel() / math.sqrt(u.shape[0])


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


def _polar(g: np.ndarray) -> np.ndarray:
    """Unitary polar factor W V^dag of g = W S V^dag: the unitary closest to g,
    and the one that maximizes Re Tr(g^dag U)."""
    w, _, vh = np.linalg.svd(g)
    return w @ vh


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random d x d unitary: the polar factor of a complex Ginibre matrix
    drawn from ``rng`` (2 d^2 normals per call)."""
    z = rng.standard_normal((2, d, d))
    return _polar(z[0] + 1j * z[1])


def fef_numeric_d(rho: np.ndarray, budget: SearchBudget | None = None) -> float:
    """Numeric fully entangled fraction of a d x d state.

    Maximizes f(U) = <Phi1_d|(1 x U)^dag rho (1 x U)|Phi1_d> over one local
    unitary, which already reaches every maximally entangled target, by
    polar-factor ascent (the generalized power method of Journee, Nesterov,
    Richtarik and Sepulchre, JMLR 11, 517 (2010)).  Each step replaces the
    ket k by the polar factor of the reshaped gradient A k, the maximizer of
    the linearized f; f is convex because A = rho - lambda_min(rho) I is
    PSD, so no step lowers it.  The shift leaves the maximizer unchanged
    (every k has unit norm), and without it the ascent stalls on states near
    I/d^2.  Runs from Phi1_d, then from Haar unitaries drawn from
    ``default_rng(budget.seed)``, ``budget.starts`` starts in all; each stops
    when f no longer rises or after ``2 * budget.maxiter`` steps.  At d=2 and
    the default budget it stays within 1e-11 of the magic-basis eigenproblem
    on sampled and boundary-family states; no closed form is implemented
    beyond d=2.
    """
    rho = np.asarray(rho, dtype=complex)
    d = _pair_dimension(rho)
    budget = budget or SearchBudget()
    lam_min = float(np.linalg.eigvalsh(rho)[0])
    a = rho - lam_min * np.eye(d * d)
    rng = np.random.default_rng(budget.seed)
    best = -np.inf
    for start in range(budget.starts):
        ket = entangled_ket_d(np.eye(d) if start == 0 else haar_unitary(rng, d))
        f = float((ket.conj() @ a @ ket).real)
        for _ in range(2 * budget.maxiter):
            step = _polar((a @ ket).reshape(d, d)).ravel() / np.sqrt(d)
            f_step = float((step.conj() @ a @ step).real)
            if f_step <= f:
                break
            ket, f = step, f_step
        best = max(best, f)
    return best + lam_min


def teleport_max_d(f: float, d: int) -> float:
    """Maximum teleportation fidelity (F d + 1)/(d + 1) at local dimension d."""
    if d < 2 or int(d) != d:
        raise OutOfRangeError(f"local dimension must be an integer >= 2, got {d}")
    if not 1.0 / (d * d) - 1e-12 <= f <= 1.0 + 1e-12:
        raise OutOfRangeError(f"fully entangled fraction {f} outside [1/d^2, 1]")
    return (f * d + 1.0) / (d + 1.0)
