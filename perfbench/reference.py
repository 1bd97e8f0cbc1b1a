"""Reference values computed apart from entfrac.

Every quantity the benchmark checks is recomputed here from its textbook
definition, with numpy alone: no entfrac import, no shared basis tables, and
where the library uses a Hermitian route this module uses a different one.
"""

from __future__ import annotations

import numpy as np

SQRT2 = np.sqrt(2.0)
TSIRELSON = 2.0 * SQRT2

# Tolerances for comparing a library value with its reference.  Values pass
# through "%.12g" in CSV rows.  Wootters' route takes square roots of
# eigenvalues that are zero on rank-deficient states and come out of the
# non-Hermitian solver at ~1e-17, so C carries ~1e-8 of amplified roundoff
# (a pure state reads 1 - 4e-9).
TOL = 1e-9
TOL_C = 1e-7

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def ket(*amplitudes) -> np.ndarray:
    return np.array(amplitudes, dtype=complex)


# Bell kets in the computational basis |00>, |01>, |10>, |11>.
PHI_PLUS = ket(1, 0, 0, 1) / SQRT2
PHI_MINUS = ket(1, 0, 0, -1) / SQRT2
PSI_PLUS = ket(0, 1, 1, 0) / SQRT2
PSI_MINUS = ket(0, 1, -1, 0) / SQRT2

# Hill-Wootters phases: every maximally entangled ket is, up to a global
# phase, a real unit combination of these four.
MAGIC_KETS = np.array([PHI_PLUS, 1j * PHI_MINUS, 1j * PSI_PLUS, PSI_MINUS])


def projector(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def expectation(rho: np.ndarray, op: np.ndarray) -> float:
    return float(np.trace(rho @ op).real)


def fef(rho: np.ndarray) -> float:
    """Fully entangled fraction: top eigenvalue of Re<e_n|rho|e_m>."""
    overlaps = MAGIC_KETS.conj() @ rho @ MAGIC_KETS.T
    return float(np.linalg.eigvalsh(overlaps.real)[-1])


def renormalized(f: float) -> float:
    """E = max(0, 2F - 1)."""
    return max(0.0, 2.0 * f - 1.0)


def concurrence(rho: np.ndarray) -> float:
    """Wootters: square roots of the eigenvalues of rho (Y x Y) rho* (Y x Y),
    taken from the non-Hermitian product directly."""
    yy = np.kron(PAULI_Y, PAULI_Y)
    product = rho @ yy @ rho.conj() @ yy
    lam = np.sort(np.sqrt(np.clip(np.linalg.eigvals(product).real, 0.0, None)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def phi1_overlap(rho: np.ndarray) -> float:
    """<Phi1|rho|Phi1> with Phi1 = (|00> + |11>)/sqrt 2."""
    return float((PHI_PLUS.conj() @ rho @ PHI_PLUS).real)


def correlations(rho: np.ndarray, paulis) -> np.ndarray:
    """T_ab = Tr[rho (a x b)] over the given single-qubit operators."""
    return np.array([[expectation(rho, np.kron(a, b)) for b in paulis] for a in paulis])


def chsh_canonical(rho: np.ndarray) -> float:
    """CHSH value with one side at {Z, X} and the other at (Z +- X)/sqrt 2."""
    b1 = (PAULI_Z + PAULI_X) / SQRT2
    b2 = (PAULI_X - PAULI_Z) / SQRT2
    op = (
        np.kron(PAULI_Z, b1)
        - np.kron(PAULI_Z, b2)
        + np.kron(PAULI_X, b1)
        + np.kron(PAULI_X, b2)
    )
    return abs(expectation(rho, op))


def _two_largest_singular(t: np.ndarray) -> float:
    s = np.linalg.svd(t, compute_uv=False)
    return float(SQRT2 * (s[0] + s[1]))


def chsh_angles(rho: np.ndarray) -> float:
    """Detector-frame maximum: sqrt 2 (s1 + s2) of the Z-X correlation block."""
    return _two_largest_singular(correlations(rho, (PAULI_Z, PAULI_X)))


def chsh_unitaries(rho: np.ndarray) -> float:
    """Maximum over local unitaries at the canonical settings:
    sqrt 2 (s1 + s2) of the full 3x3 Pauli correlation matrix."""
    return _two_largest_singular(correlations(rho, (PAULI_X, PAULI_Y, PAULI_Z)))


def werner(p: float) -> np.ndarray:
    return p * projector(PHI_PLUS) + (1.0 - p) * np.eye(4) / 4.0


def lower_state(epsilon: float, theta: float) -> np.ndarray:
    psi = ket(np.cos(theta / 2), 0, 0, np.sin(theta / 2))
    return epsilon * np.eye(4) / 4.0 + (1.0 - epsilon) * projector(psi)


def upper_state(zeta: float) -> np.ndarray:
    """zeta |01><01| + (1 - zeta)|Phi1><Phi1|; |01> is basis index 1."""
    return zeta * projector(ket(0, 1, 0, 0)) + (1.0 - zeta) * projector(PHI_PLUS)


def lower_closed_form(epsilon: float, theta: float) -> tuple[float, float]:
    """(E, C) on the lower boundary family: both max(0, (1-eps) sin(theta) - eps/2)."""
    v = max(0.0, (1.0 - epsilon) * np.sin(theta) - epsilon / 2.0)
    return v, v


def upper_closed_form(zeta: float) -> tuple[float, float]:
    """(E, C) on the upper boundary family: (max(0, 1 - 2 zeta), 1 - zeta)."""
    return max(0.0, 1.0 - 2.0 * zeta), 1.0 - zeta


# Documented draw layout: Philox key (seed mod 2^64, stream * 2^56 + index),
# stream 0 for densities, 2 for family parameters.
STREAM_DENSITY = 0
STREAM_FAMILY = 2


def philox(seed: int, index: int, stream: int) -> np.random.Generator:
    key = np.array([seed % (1 << 64), (stream << 56) + index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _density_from(rng: np.random.Generator) -> np.ndarray:
    while True:
        u = rng.random(32)
        t = (u[:16] + 1j * u[16:]).reshape(4, 4)
        g = t @ t.conj().T
        tr = np.trace(g).real
        if tr >= 1e-30:
            return g / tr


def draw(family: str, seed: int, index: int):
    """The (state, param1, param2) of campaign row ``index``."""
    if family in ("raw", "fig2"):
        rng = philox(seed, index, STREAM_DENSITY)
        r = _density_from(rng)
        if family == "raw":
            return r, None, None
        zeta = float(rng.random())
        w = float(rng.random()) * 0.5
        return w * r + (1.0 - w) * upper_state(zeta), w, zeta
    rng = philox(seed, index, STREAM_FAMILY)
    if family == "werner":
        p = float(rng.random())
        return werner(p), p, None
    if family == "lower":
        epsilon = float(rng.random())
        theta = float(rng.random()) * (np.pi / 2.0)
        return lower_state(epsilon, theta), epsilon, theta
    if family == "upper":
        zeta = float(rng.random())
        return upper_state(zeta), zeta, None
    raise ValueError(f"unknown family {family!r}")


def d_level_fef(rho: np.ndarray, d: int) -> float | None:
    """Fully entangled fraction of a d x d state where it has a closed form:
    d = 2, a pure state ((sum of Schmidt coefficients)^2 / d), or I/d^2.
    None otherwise."""
    if d == 2:
        return fef(rho)
    w, v = np.linalg.eigh(rho)
    if abs(w[-1] - 1.0) < 1e-12:
        s = np.linalg.svd(v[:, -1].reshape(d, d), compute_uv=False)
        return float(np.sum(s) ** 2 / d)
    if np.max(np.abs(rho - np.eye(d * d) / (d * d))) < 1e-15:
        return 1.0 / (d * d)
    return None
