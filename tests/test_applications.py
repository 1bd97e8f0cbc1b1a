import numpy as np
import pytest

from entfrac.applications import (
    CANONICAL_ANGLES,
    AnalysisReport,
    _rotation_rows,
    analyze_state,
    bell_angles_analytic,
    bell_canonical,
    bell_chsh,
    bell_max,
    bell_unitaries_analytic,
    dense_coding_fidelity,
    fiducial_gap,
    swapping_fidelity,
    swapping_outcomes,
    teleportation_fidelity,
)
from entfrac.errors import (
    DensityMatrixError,
    DimensionMismatchError,
    OutOfRangeError,
)
from entfrac.fef import fully_entangled_fraction
from entfrac.linalg import X, Y, Z, single_qubit_unitary
from entfrac.optimize import SearchBudget
from entfrac.states import MAGIC, PHI1, fig2_mixture, random_density, werner

ROOT8 = 2 * np.sqrt(2.0)
BELL = np.outer(MAGIC[0], MAGIC[0].conj())
MIXED = np.eye(4, dtype=complex) / 4


def phi1_overlap(rho):
    return float((PHI1.conj() @ rho @ PHI1).real)


def ket_density(amplitudes):
    k = np.asarray(amplitudes, dtype=complex)
    k = k / np.linalg.norm(k)
    return np.outer(k, k.conj())


# ---------------------------------------------------------------------------
# dense coding

def test_dense_coding_special_states():
    assert abs(dense_coding_fidelity(BELL) - 1.0) < 1e-12
    assert abs(dense_coding_fidelity(MIXED) - 0.25) < 1e-12
    assert abs(dense_coding_fidelity(ket_density([0, 1, 0, 0]))) < 1e-12


def test_dense_coding_reduction():
    for i in range(300):
        rho = random_density(41, i)
        assert abs(dense_coding_fidelity(rho) - phi1_overlap(rho)) < 1e-12


def test_dense_coding_rejects_wrong_dim():
    with pytest.raises(DimensionMismatchError):
        dense_coding_fidelity(np.eye(2) / 2)


# ---------------------------------------------------------------------------
# teleportation

def test_teleportation_special_states():
    assert abs(teleportation_fidelity(BELL) - 1.0) < 1e-12
    assert abs(teleportation_fidelity(MIXED) - 0.5) < 1e-12
    # product state with |Phi1> overlap 1/2 sits on the classical boundary
    assert abs(teleportation_fidelity(ket_density([1, 0, 0, 0])) - 2 / 3) < 1e-12


def test_teleportation_reduction():
    for i in range(40):
        rho = random_density(43, i)
        want = (1 + 2 * phi1_overlap(rho)) / 3
        assert abs(teleportation_fidelity(rho) - want) < 1e-10


def test_teleportation_coarser_exact_rule():
    # degree <= 2 integrand: already exact at (2, 5)
    rho = random_density(44, 0)
    want = (1 + 2 * phi1_overlap(rho)) / 3
    assert abs(teleportation_fidelity(rho, (2, 5)) - want) < 1e-10


def test_teleportation_rejects_bad_quadrature():
    with pytest.raises(OutOfRangeError):
        teleportation_fidelity(BELL, (0, 8))


# ---------------------------------------------------------------------------
# entanglement swapping

def test_swapping_bell_outcomes_equiprobable():
    outcomes = swapping_outcomes(BELL)
    for prob, overlap in outcomes:
        assert abs(prob - 0.25) < 1e-12
        assert abs(overlap - 0.25) < 1e-12
    assert abs(swapping_fidelity(BELL) - 1.0) < 1e-12


def test_swapping_orthogonal_magic_state():
    rho = np.outer(MAGIC[1], MAGIC[1].conj())
    assert abs(swapping_fidelity(rho)) < 1e-12


def test_swapping_werner():
    assert abs(swapping_fidelity(werner(0.5)) - 0.625) < 1e-12


def test_swapping_reduction():
    for i in range(300):
        rho = random_density(45, i)
        assert abs(swapping_fidelity(rho) - phi1_overlap(rho)) < 1e-12


def test_swapping_probabilities_are_quarter():
    # the analyzer's second particle is half of a perfect pair, hence
    # maximally mixed, so every outcome lands with probability exactly 1/4
    for i in range(50):
        outcomes = swapping_outcomes(random_density(46, i))
        assert abs(sum(p for p, _ in outcomes) - 1.0) < 1e-12
        for prob, _ in outcomes:
            assert abs(prob - 0.25) < 1e-12


# ---------------------------------------------------------------------------
# CHSH

def test_chsh_bell_state_canonical():
    assert abs(bell_chsh(BELL, *CANONICAL_ANGLES) - ROOT8) < 1e-12


def test_chsh_mixed_state_vanishes():
    rng = np.random.default_rng(5)
    for _ in range(10):
        angles = rng.uniform(0, 2 * np.pi, 4)
        assert abs(bell_chsh(MIXED, *angles)) < 1e-12


def test_chsh_werner_linear():
    for p in np.linspace(0, 1, 11):
        assert abs(bell_chsh(werner(p), *CANONICAL_ANGLES) - ROOT8 * p) < 1e-12


def test_chsh_tsirelson_sweep():
    rng = np.random.default_rng(6)
    for i in range(200):
        rho = random_density(48, i)
        angles = rng.uniform(0, 2 * np.pi, 4)
        assert bell_chsh(rho, *angles) <= ROOT8 + 1e-9


def test_canonical_closed_form_cases():
    phi3 = np.outer(MAGIC[2], MAGIC[2].conj())
    assert abs(bell_canonical(phi3) - ROOT8) < 1e-12
    assert abs(bell_canonical(BELL) - ROOT8) < 1e-12
    assert abs(bell_canonical((BELL + phi3) / 2)) < 1e-12


def test_canonical_equals_chsh_at_canonical_angles():
    for i in range(300):
        rho = random_density(49, i)
        got = bell_chsh(rho, *CANONICAL_ANGLES)
        assert abs(got - bell_canonical(rho)) < 1e-12


def test_bell_max_bell_state_both_modes():
    assert abs(bell_max(BELL, "angles") - ROOT8) < 1e-6
    assert abs(bell_max(BELL, "local_unitaries") - ROOT8) < 1e-6


def test_bell_max_dominates_canonical():
    rho = werner(0.8)
    want = ROOT8 * 0.8
    assert abs(bell_canonical(rho) - want) < 1e-12
    assert bell_max(rho, "angles") >= want - 1e-12


def test_bell_max_angles_matches_analytic():
    for i in range(25):
        rho = random_density(50, i)
        assert abs(bell_max(rho, "angles") - bell_angles_analytic(rho)) < 1e-6


def test_bell_max_unitaries_matches_analytic():
    for i in range(25):
        rho = random_density(51, i)
        got = bell_max(rho, "local_unitaries")
        assert abs(got - bell_unitaries_analytic(rho)) < 1e-6


def test_bell_max_rejects_unknown_mode():
    with pytest.raises(OutOfRangeError):
        bell_max(BELL, "telepathy")


def test_bell_inequality_on_mixture_sample():
    budget = SearchBudget(starts=2, maxiter=60)
    for i in range(400):
        rho, _ = fig2_mixture(52, i)
        f = fully_entangled_fraction(rho).f
        assert bell_max(rho, "angles", budget) / ROOT8 <= f + 1e-9
        assert bell_max(rho, "local_unitaries", budget) / ROOT8 <= f + 1e-9


def test_rotation_rows_against_conjugation():
    rng = np.random.default_rng(7)
    for _ in range(30):
        th, ph, lm = rng.uniform(0, 2 * np.pi, 3)
        u = single_qubit_unitary(th, ph, lm)
        rx, rz = _rotation_rows(th, ph, lm)
        for row, sigma in ((rx, X), (rz, Z)):
            back = u.conj().T @ sigma @ u
            want = [0.5 * np.trace(back @ s).real for s in (X, Y, Z)]
            assert max(abs(a - b) for a, b in zip(row, want)) < 1e-12


# ---------------------------------------------------------------------------
# fiducial gap

def test_fiducial_gap_landmarks():
    assert abs(fiducial_gap(np.pi / 2) - 0.5) < 1e-9
    assert abs(fiducial_gap(0.0) + 0.5) < 1e-9
    assert abs(fiducial_gap(np.pi / 4)) < 1e-9


def test_fiducial_gap_range_check():
    with pytest.raises(OutOfRangeError):
        fiducial_gap(-0.1)
    with pytest.raises(OutOfRangeError):
        fiducial_gap(np.pi + 0.1)


# ---------------------------------------------------------------------------
# analysis report

def test_analyze_state_invariants():
    rep = analyze_state(random_density(54, 0))
    assert isinstance(rep, AnalysisReport)
    assert rep.f_dc_max == rep.f
    assert rep.f_es_max == rep.f
    assert abs(rep.f_t_max - (1 + 2 * rep.f) / 3) < 1e-15
    for b in (rep.b_canonical, rep.b_max_angles, rep.b_max_unitaries):
        assert b <= ROOT8 + 1e-9
    assert rep.b_max_unitaries / ROOT8 <= rep.f + 1e-9
    assert rep.b_max_angles / ROOT8 <= rep.f + 1e-9


def test_analyze_state_rejects_invalid():
    bad = np.eye(4, dtype=complex)  # trace 4
    with pytest.raises(DensityMatrixError):
        analyze_state(bad)


def test_analyze_state_bell_input():
    rep = analyze_state(BELL)
    assert abs(rep.f - 1.0) < 1e-12
    assert abs(rep.e - 1.0) < 1e-12
    assert abs(rep.c - 1.0) < 1e-9
    assert abs(rep.f_t_max - 1.0) < 1e-12
    assert abs(rep.b_canonical - ROOT8) < 1e-12
