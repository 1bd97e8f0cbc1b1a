# Protocol fidelities computed two ways each (explicit simulation and the
# closed-form reduction it collapses to), the CHSH correlation analysis, and
# the fiducial-gap scan.

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concurrence import concurrence
from .ddim import dense_coding_fidelity_d
from .errors import DimensionMismatchError, IdentityCheckError, OutOfRangeError
from .fef import fully_entangled_fraction, magic_overlap_matrix
from .linalg import I2, X, Y, Z, kron, single_qubit_unitary
from .optimize import SearchBudget, multistart_max, start_points
from .states import MAGIC, PHI1, check_density

TSIRELSON = 2.0 * np.sqrt(2.0)

# Optimal CHSH settings for |Phi1>: one detector at {0, pi/2}, the other at
# {pi/4, 3pi/4}, all in the Z-X plane.
CANONICAL_ANGLES = (0.0, np.pi / 2, np.pi / 4, 3 * np.pi / 4)

# Exchange of the two tensor factors of a two-qubit operator.
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _require_two_qubit(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 state, got {rho.shape}")
    return rho


def _phi1_overlap(rho: np.ndarray) -> float:
    return float((PHI1.conj() @ rho @ PHI1).real)


# ---------------------------------------------------------------------------
# dense coding

_DC_ENCODINGS = (I2, 1j * X, 1j * Y, 1j * Z)


def dense_coding_fidelity(rho: np.ndarray) -> float:
    """Four-outcome average fidelity of dense coding through ``rho``.

    The sender encodes two bits by applying 1, iX, iY or iZ to their half;
    each encoded state is compared against the magic ket that a perfect
    channel would deliver, and the four overlaps are averaged.  This is the
    d-level simulator at d=2 with that alphabet.  Collapses to
    <Phi1|rho|Phi1>.
    """
    return dense_coding_fidelity_d(_require_two_qubit(rho), _DC_ENCODINGS)


# ---------------------------------------------------------------------------
# teleportation

# Standard Bell measurement basis (Phi+, Psi+, Phi-, Psi-) and the Pauli
# correction the receiver applies for each outcome.
_BELL_BASIS = (
    np.array(
        [[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0]], dtype=complex
    )
    / np.sqrt(2.0)
)
_CORRECTIONS = (I2, X, Z, Z @ X)


def teleportation_fidelity(rho: np.ndarray, quadrature: tuple[int, int] = (4, 8)) -> float:
    """Ensemble-average teleportation fidelity through ``rho``, simulated in full.

    For each pure input ket (theta, phi) the three-qubit state is built, the
    sender's pair is measured in the standard Bell basis, the receiver applies
    the outcome's correction, and the probability-weighted output fidelities
    are summed.  The sphere average uses Gauss-Legendre in cos(theta) times a
    uniform azimuthal rule; the integrand is a trigonometric polynomial of
    degree <= 2 per variable, so the default (4, 8) rule is exact to roundoff.
    Equals (1 + 2<Phi1|rho|Phi1>)/3.
    """
    rho = _require_two_qubit(rho)
    npolar, nazim = int(quadrature[0]), int(quadrature[1])
    if npolar < 1 or nazim < 1:
        raise OutOfRangeError(f"quadrature must have positive node counts, got {quadrature}")
    nodes, weights = np.polynomial.legendre.leggauss(npolar)
    azimuths = 2 * np.pi * np.arange(nazim) / nazim
    src = _SWAP @ rho @ _SWAP  # sender's share first, receiver's second
    acc = 0.0
    for u, w in zip(nodes, weights):
        theta = np.arccos(u)
        for phi in azimuths:
            chi = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
            tau = kron(np.outer(chi, chi.conj()), src).reshape(2, 2, 2, 2, 2, 2)
            f = 0.0
            for ket, corr in zip(_BELL_BASIS, _CORRECTIONS):
                b = ket.reshape(2, 2)
                omega = np.einsum("ij,ijkabc,ab->kc", b.conj(), tau, b)
                out = corr @ omega @ corr.conj().T
                f += float((chi.conj() @ out @ chi).real)
            acc += w * f
    return acc / (2.0 * nazim)


# ---------------------------------------------------------------------------
# entanglement swapping

def swapping_outcomes(rho: np.ndarray) -> list[tuple[float, float]]:
    """Bell-state-analysis outcomes of entanglement swapping through ``rho``.

    Particles (1,2) carry rho, particles (3,4) a perfect |Phi1> pair.  The
    station holding particles 1 and 3 measures them in the magic basis;
    outcome j leaves (2,4) in a conditional state whose target is |Phi_j>.
    Returns, per outcome, (probability, probability-weighted target overlap).
    The weighted overlap stays well defined at zero probability, where a
    normalized fidelity would not be.
    """
    rho = _require_two_qubit(rho)
    pair = np.outer(PHI1, PHI1.conj())
    tau = kron(_SWAP @ rho @ _SWAP, pair).reshape(2, 2, 2, 2, 2, 2, 2, 2)
    outcomes = []
    for j in range(4):
        mj = MAGIC[j].reshape(2, 2)
        omega = np.einsum("ac,abcdefgh,eg->bdfh", mj.conj(), tau, mj).reshape(4, 4)
        prob = float(np.trace(omega).real)
        overlap = float((MAGIC[j].conj() @ omega @ MAGIC[j]).real)
        outcomes.append((prob, overlap))
    return outcomes


def swapping_fidelity(rho: np.ndarray) -> float:
    """Outcome-combined swapping fidelity: sum of the probability-weighted
    target overlaps.  Collapses to <Phi1|rho|Phi1>."""
    return sum(overlap for _, overlap in swapping_outcomes(rho))


# ---------------------------------------------------------------------------
# CHSH correlation

def _zx_correlations(rho: np.ndarray) -> np.ndarray:
    """2x2 block of Pauli correlations Tr[(A x B) rho], A, B in (Z, X)."""
    r4 = rho.reshape(2, 2, 2, 2)
    return np.array(
        [[np.einsum("ik,jl,klij->", a, b, r4).real for b in (Z, X)] for a in (Z, X)]
    )


def _full_correlations(rho: np.ndarray) -> np.ndarray:
    """3x3 matrix of Pauli correlations over (X, Y, Z) on each side."""
    r4 = rho.reshape(2, 2, 2, 2)
    return np.array(
        [[np.einsum("ik,jl,klij->", a, b, r4).real for b in (X, Y, Z)] for a in (X, Y, Z)]
    )


def _chsh_unit(t00, t01, t10, t11, phi1, phi1p, phi2, phi2p) -> float:
    # scalar CHSH evaluation; optimizer-hot, so no array temporaries
    c1, s1 = math.cos(phi1), math.sin(phi1)
    c1p, s1p = math.cos(phi1p), math.sin(phi1p)
    c2, s2 = math.cos(phi2), math.sin(phi2)
    c2p, s2p = math.cos(phi2p), math.sin(phi2p)
    dc, ds = c2 - c2p, s2 - s2p
    pc, ps = c2 + c2p, s2 + s2p
    return abs(
        c1 * (t00 * dc + t01 * ds)
        + s1 * (t10 * dc + t11 * ds)
        + c1p * (t00 * pc + t01 * ps)
        + s1p * (t10 * pc + t11 * ps)
    )


def _chsh_from_zx(t: np.ndarray, phi1, phi1p, phi2, phi2p) -> float:
    t00, t01, t10, t11 = float(t[0, 0]), float(t[0, 1]), float(t[1, 0]), float(t[1, 1])
    return _chsh_unit(t00, t01, t10, t11, phi1, phi1p, phi2, phi2p)


def bell_chsh(rho: np.ndarray, phi1: float, phi1p: float, phi2: float, phi2p: float) -> float:
    """CHSH correlation |E(1,2) - E(1,2') + E(1',2) + E(1',2')| where each
    side measures S(phi) = cos(phi) Z + sin(phi) X at its two settings."""
    rho = _require_two_qubit(rho)
    return _chsh_from_zx(_zx_correlations(rho), phi1, phi1p, phi2, phi2p)


def bell_canonical(rho: np.ndarray) -> float:
    """CHSH value at the canonical settings, in closed form:
    2 sqrt(2) |<Phi1|rho|Phi1> - <Phi3|rho|Phi3>|."""
    m = magic_overlap_matrix(rho)
    return TSIRELSON * abs(float(m[0, 0] - m[2, 2]))


def _rotation_rows(theta, phi, lam):
    """x and z rows of the SO(3) image of single_qubit_unitary(theta,phi,lam).

    U^dag sigma_a U = sum_c R_ac sigma_c with R the z-y-z Euler rotation
    Rz(phi) Ry(theta) Rz(lam); only the x and z rows enter the canonical
    CHSH value.
    """
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    cl, sl = math.cos(lam), math.sin(lam)
    rx = (cp * ct * cl - sp * sl, -cp * ct * sl - sp * cl, cp * st)
    rz = (-st * cl, st * sl, ct)
    return rx, rz


def bell_max(rho: np.ndarray, mode: str = "angles", budget: SearchBudget | None = None) -> float:
    """Numeric maximum CHSH value under the given freedom.

    mode "angles" orients each detector in the Z-X plane: the two settings of
    one detector stay an orthogonal pair (either handedness) and the two
    frames rotate independently, i.e. the canonical geometry with both base
    angles free.  The normalized value B/(2 sqrt 2) never exceeds the fully
    entangled fraction.

    mode "local_unitaries" holds the canonical settings fixed and maximizes
    bell_canonical over conjugations of the state by seeded U1 x U2 pairs.
    """
    rho = _require_two_qubit(rho)
    budget = budget or SearchBudget()
    if mode == "angles":
        t = _zx_correlations(rho)
        t00, t01 = float(t[0, 0]), float(t[0, 1])
        t10, t11 = float(t[1, 0]), float(t[1, 1])
        quarter, half, three_q = np.pi / 4, np.pi / 2, 3 * np.pi / 4

        def neg_right(d):
            a, b = d.tolist()
            return -_chsh_unit(t00, t01, t10, t11, a, a + half, b + quarter, b + three_q)

        def neg_left(d):
            a, b = d.tolist()
            return -_chsh_unit(t00, t01, t10, t11, a, a + half, b + three_q, b + quarter)

        # right-handed at (0,0) is exactly canonical
        starts = start_points([np.zeros(2)], budget.starts, budget.seed)
        # each handedness branch is a single-frequency sinusoid of the frame
        # angles, so one polish per branch is already exact; the first two
        # starts run both branches, extra starts alternate as pure insurance
        return max(
            multistart_max(neg_right, starts[:2] + starts[2::2], maxiter=budget.maxiter),
            multistart_max(neg_left, starts[:2] + starts[3::2], maxiter=budget.maxiter),
        )
    if mode == "local_unitaries":
        t = _full_correlations(rho)
        t00, t01, t02, t10, t11, t12, t20, t21, t22 = (float(x) for x in t.ravel())

        def neg(p):
            a1, b1, c1, a2, b2, c2 = p.tolist()
            rx1, rz1 = _rotation_rows(a1, b1, c1)
            rx2, rz2 = _rotation_rows(a2, b2, c2)
            s = (
                rz1[0] * (t00 * rz2[0] + t01 * rz2[1] + t02 * rz2[2])
                + rz1[1] * (t10 * rz2[0] + t11 * rz2[1] + t12 * rz2[2])
                + rz1[2] * (t20 * rz2[0] + t21 * rz2[1] + t22 * rz2[2])
                + rx1[0] * (t00 * rx2[0] + t01 * rx2[1] + t02 * rx2[2])
                + rx1[1] * (t10 * rx2[0] + t11 * rx2[1] + t12 * rx2[2])
                + rx1[2] * (t20 * rx2[0] + t21 * rx2[1] + t22 * rx2[2])
            )
            return -math.sqrt(2.0) * abs(s)

        starts = start_points([np.zeros(6)], budget.starts, budget.seed)
        # six parameters need a deeper simplex than the three-angle searches
        return multistart_max(neg, starts, maxiter=2 * budget.maxiter)
    raise OutOfRangeError(f"unknown bell_max mode {mode!r}")


def bell_angles_analytic(rho: np.ndarray) -> float:
    """Detector-frame CHSH maximum from the singular values of the Z-X
    correlation block: sqrt(2) (s1 + s2).  Textbook singular-value criterion,
    kept as an independent cross-check; bell_max does not use it."""
    rho = _require_two_qubit(rho)
    s = np.linalg.svd(_zx_correlations(rho), compute_uv=False)
    return float(np.sqrt(2.0) * (s[0] + s[1]))


def bell_unitaries_analytic(rho: np.ndarray) -> float:
    """Canonical-settings CHSH maximum over local unitaries, from the two
    largest singular values of the full correlation matrix: sqrt(2) (s1 + s2).
    Cross-check only."""
    rho = _require_two_qubit(rho)
    s = np.linalg.svd(_full_correlations(rho), compute_uv=False)
    return float(np.sqrt(2.0) * (s[0] + s[1]))


def fef_correlation_form(rho: np.ndarray) -> float:
    """Fully entangled fraction from the full correlation matrix T:
    (1 + s1 + s2 - sgn(det T) s3)/4, with s1 >= s2 >= s3 the singular values
    of T (Horodecki, Horodecki and Horodecki, Phys. Lett. A 222, 21 (1996);
    Badziag et al., PRA 62, 012311 (2000)).  The 1 is Tr(rho), so the form
    stays exact, like the magic-basis eigenvalue, on matrices that miss unit
    trace within the density tolerance.  Shares no basis and no eigensolver
    with the magic-basis closed form, which it cross-checks."""
    rho = _require_two_qubit(rho)
    t = _full_correlations(rho)
    s = np.linalg.svd(t, compute_uv=False)
    trace = float(np.trace(rho).real)
    return float((trace + s[0] + s[1] - np.sign(np.linalg.det(t)) * s[2]) / 4.0)


# ---------------------------------------------------------------------------
# fiducial gap

def _max_ket_overlap(psi: np.ndarray, base: np.ndarray, budget: SearchBudget) -> float:
    """max over U1 x U2 of |<psi|(U1 x U2)|base>|^2 by multi-start simplex."""

    def neg(p):
        u = kron(single_qubit_unitary(*p[:3]), single_qubit_unitary(*p[3:]))
        amp = psi.conj() @ (u @ base)
        return -float(amp.real * amp.real + amp.imag * amp.imag)

    # identity and a double bit flip cover both computational-basis optima
    fixed = [np.zeros(6), [np.pi, 0.0, 0.0, np.pi, 0.0, 0.0]]
    starts = start_points(fixed, budget.starts, budget.seed)
    return multistart_max(neg, starts, maxiter=2 * budget.maxiter)


def fiducial_gap(theta: float, budget: SearchBudget | None = None) -> float:
    """Best maximally entangled overlap minus best product overlap with the
    Schmidt-form fiducial ket cos(theta/2)|00> + sin(theta/2)|11>.

    Both terms are numeric maximizations over local unitaries, of the overlap
    with (U1 x U2)|Phi1> and with (U1 x U2)|00>.  The gap peaks at
    theta = pi/2 with value 1/2: fidelity comparison against a maximally
    entangled fiducial is the most discriminating verification.
    """
    if not 0.0 <= theta <= np.pi:
        raise OutOfRangeError(f"theta must lie in [0, pi], got {theta}")
    budget = budget or SearchBudget()
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.cos(theta / 2)
    psi[3] = np.sin(theta / 2)
    product = np.zeros(4, dtype=complex)
    product[0] = 1.0
    return _max_ket_overlap(psi, PHI1, budget) - _max_ket_overlap(psi, product, budget)


# ---------------------------------------------------------------------------
# one-state report

@dataclass(frozen=True)
class AnalysisReport:
    """Measures, protocol fidelities, and CHSH values for one state."""

    f: float
    e: float
    c: float
    f_dc: float
    f_dc_max: float
    f_t: float
    f_t_max: float
    f_es: float
    f_es_max: float
    b_canonical: float
    b_max_angles: float
    b_max_unitaries: float


def analyze_state(rho: np.ndarray, budget: SearchBudget | None = None) -> AnalysisReport:
    """Full report for one valid two-qubit (4x4) state.

    The three protocol simulations actually run and their closed-form
    reductions are asserted; a mismatch raises IdentityCheckError, which
    signals a bug rather than a property of the state.
    """
    rho = check_density(rho, dim=4)
    budget = budget or SearchBudget()
    fr = fully_entangled_fraction(rho)
    c = concurrence(rho).c
    v = _phi1_overlap(rho)
    b_can = bell_canonical(rho)
    f_dc = dense_coding_fidelity(rho)
    f_t = teleportation_fidelity(rho)
    f_es = swapping_fidelity(rho)
    checks = (
        ("dense coding reduction", f_dc, v, 1e-12),
        ("teleportation reduction", f_t, (1.0 + 2.0 * v) / 3.0, 1e-10),
        ("swapping reduction", f_es, v, 1e-12),
        ("canonical CHSH closed form", bell_chsh(rho, *CANONICAL_ANGLES), b_can, 1e-12),
    )
    for name, got, want, tol in checks:
        if abs(got - want) > tol:
            raise IdentityCheckError(f"{name} deviates by {abs(got - want):.3e}")
    return AnalysisReport(
        f=fr.f,
        e=fr.e,
        c=c,
        f_dc=f_dc,
        f_dc_max=fr.f,
        f_t=f_t,
        f_t_max=(1.0 + 2.0 * fr.f) / 3.0,
        f_es=f_es,
        f_es_max=fr.f,
        b_canonical=b_can,
        b_max_angles=bell_max(rho, "angles", budget),
        b_max_unitaries=bell_max(rho, "local_unitaries", budget),
    )
