# Fully entangled fraction: closed form via the magic-basis overlap matrix,
# plus brute-force maximizers over the unit 3-sphere and over local unitaries
# that validate the closed form without sharing its eigensolver.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, IdentityCheckError
from .linalg import hermitian_eig, single_qubit_unitary
from .optimize import SearchBudget, multistart_max, start_points
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


# Cache of unit-direction grids keyed by resolution; building one is ~100x
# the cost of scanning it.
_GRID_CACHE: dict[tuple[int, int, int], np.ndarray] = {}


def _sphere_grid(shape: tuple[int, int, int]) -> np.ndarray:
    grid = _GRID_CACHE.get(shape)
    if grid is None:
        na, nb, nc = shape
        a = np.linspace(0.0, np.pi, na)
        b = np.linspace(0.0, np.pi, nb)
        c = np.linspace(0.0, 2 * np.pi, nc, endpoint=False)
        aa, bb, cc = np.meshgrid(a, b, c, indexing="ij")
        grid = np.stack(
            [
                np.cos(aa),
                np.sin(aa) * np.cos(bb),
                np.sin(aa) * np.sin(bb) * np.cos(cc),
                np.sin(aa) * np.sin(bb) * np.sin(cc),
            ]
        ).reshape(4, -1)
        _GRID_CACHE[shape] = grid
    return grid


def _jacobi_top(m: np.ndarray, sweeps: int) -> float:
    """Largest eigenvalue of a real symmetric 4x4 by cyclic plane rotations.

    Hand-rolled on purpose: the closed form relies on the library eigensolver,
    and this refinement must not.  Quadratic convergence makes machine
    precision routine within a handful of sweeps.
    """
    a = np.array(m, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = a - np.diag(np.diag(a))
        if np.sqrt(np.sum(off * off)) < 1e-14:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return float(np.max(np.diag(a)))


def fef_oracle_sphere(rho: np.ndarray, budget: SearchBudget | None = None) -> float:
    """Brute-force maximum of x.M.x over the unit 3-sphere.

    Deterministic hyperspherical scan establishing a lower bound, then local
    quadratic refinement by cyclic plane rotations.  Never exceeds the closed
    form beyond roundoff and reaches it within 1e-9 at the default budget.
    """
    budget = budget or SearchBudget()
    m = magic_overlap_matrix(rho)
    grid = _sphere_grid(budget.grid)
    scan = float(np.max(((m @ grid) * grid).sum(axis=0)))
    return max(scan, _jacobi_top(m, budget.sweeps))


def entangled_ket_from_unitary(u: np.ndarray) -> np.ndarray:
    """(1 x U)|Phi1> for a single-qubit U acting on Alice's (second) factor."""
    return np.asarray(u, dtype=complex).T.ravel() / np.sqrt(2.0)


def fef_oracle_unitary(rho: np.ndarray, budget: SearchBudget | None = None) -> float:
    """Brute-force maximum of <Phi1|(1 x U)^dag rho (1 x U)|Phi1> over U.

    Multi-start simplex search over the three-angle unitary parameterization;
    agrees with the closed form within 1e-6 at the default budget.
    """
    budget = budget or SearchBudget()
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 state, got {rho.shape}")

    def neg_overlap(angles):
        u = single_qubit_unitary(angles[0], angles[1], angles[2])
        w = entangled_ket_from_unitary(u)
        return -float((w.conj() @ rho @ w).real)

    starts = start_points([[np.pi / 2, np.pi / 2, np.pi / 2]], budget.starts, budget.seed)
    return multistart_max(neg_overlap, starts, step=0.4, maxiter=budget.maxiter)
