import numpy as np
import pytest

from entfrac.ddim import (
    clock_shift_unitaries,
    dense_coding_fidelity_d,
    entangled_ket_d,
    fef_numeric_d,
    haar_unitary,
    phi1_d,
    teleport_max_d,
)
from entfrac.errors import (
    DimensionMismatchError,
    NonOrthonormalEncodingError,
    OutOfRangeError,
)
from entfrac.fef import fully_entangled_fraction
from entfrac.linalg import kron
from entfrac.optimize import SearchBudget
from entfrac.states import random_density, werner


def random_density_d(d, seed, index):
    rng = np.random.default_rng([seed, index])
    t = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    r = t @ t.conj().T
    return r / np.trace(r).real


def seeded_unitary(d, seed):
    return haar_unitary(np.random.default_rng(seed), d)


def exp_i_hermitian(p, d):
    """exp(iH) for the Hermitian H packed into d^2 real parameters: the
    diagonal, then the real and imaginary parts of each upper entry."""
    h = np.diag(np.asarray(p[:d], dtype=complex))
    upper = np.triu_indices(d, 1)
    h[upper] = p[d::2] + 1j * p[d + 1::2]
    h = h + np.triu(h, 1).conj().T
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def test_phi1_d_norm_and_overlap():
    for d in (2, 3, 4):
        ket = phi1_d(d)
        assert abs(np.linalg.norm(ket) - 1.0) < 1e-14
        rho = np.outer(ket, ket.conj())
        assert abs(float((ket.conj() @ rho @ ket).real) - 1.0) < 1e-12


def test_clock_shift_are_unitary_and_orthonormal():
    for d in (2, 3, 4):
        us = clock_shift_unitaries(d)
        assert len(us) == d * d
        for u in us:
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12
        kets = np.array([entangled_ket_d(u) for u in us])
        gram = kets.conj() @ kets.T
        assert np.max(np.abs(gram - np.eye(d * d))) < 1e-12


def test_dense_coding_d_reduction():
    for d, count in ((2, 100), (3, 40)):
        base = phi1_d(d)
        for i in range(count):
            rho = random_density_d(d, 60 + d, i)
            want = float((base.conj() @ rho @ base).real)
            assert abs(dense_coding_fidelity_d(rho) - want) < 1e-12


def test_dense_coding_d_two_qubit_consistency():
    # at d=2 the generalized average must agree with the two-qubit module
    from entfrac.applications import dense_coding_fidelity

    for i in range(25):
        rho = random_density(61, i)
        got = dense_coding_fidelity_d(rho)
        assert abs(got - dense_coding_fidelity(rho)) < 1e-12


def test_dense_coding_d_special_states():
    for d in (2, 3):
        ket = phi1_d(d)
        assert abs(dense_coding_fidelity_d(np.outer(ket, ket.conj())) - 1.0) < 1e-12
    sep = np.zeros((9, 9), dtype=complex)
    sep[0, 0] = 1.0
    assert abs(dense_coding_fidelity_d(sep) - 1 / 3) < 1e-12


def test_dense_coding_d_rejects_bad_encodings():
    rho = random_density_d(2, 62, 0)
    eye = np.eye(2, dtype=complex)
    with pytest.raises(NonOrthonormalEncodingError):
        dense_coding_fidelity_d(rho, [eye, eye, eye, eye])
    with pytest.raises(DimensionMismatchError):
        dense_coding_fidelity_d(rho, [eye, eye])


def test_dimension_cap_and_shape_checks():
    with pytest.raises(DimensionMismatchError):
        dense_coding_fidelity_d(np.eye(25) / 25)  # d = 5 over the cap
    with pytest.raises(DimensionMismatchError):
        dense_coding_fidelity_d(np.eye(6) / 6)  # 6 is not a square
    with pytest.raises(DimensionMismatchError):
        clock_shift_unitaries(5)


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(63)
    for d in (2, 3, 4):
        u = haar_unitary(rng, d)
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12


def test_fef_numeric_matches_closed_form_d2():
    for i in range(10):
        rho = random_density(64, i)
        want = fully_entangled_fraction(rho).f
        assert abs(fef_numeric_d(rho) - want) < 1e-6
    assert abs(fef_numeric_d(werner(0.5)) - 0.625) < 1e-6


def test_fef_numeric_maximally_mixed_d3():
    got = fef_numeric_d(np.eye(9, dtype=complex) / 9)
    assert abs(got - 1 / 9) < 1e-9


def test_fef_numeric_seeded_entangled_d3():
    u0 = seeded_unitary(3, 65)
    ket = kron(np.eye(3, dtype=complex), u0) @ phi1_d(3)
    rho = np.outer(ket, ket.conj())
    assert abs(fef_numeric_d(rho) - 1.0) < 1e-6


def test_fef_numeric_saturates_at_former_failing_ddim_seed():
    # the rotated d=3 pair that `ddim --seed 3476410350338386778` drew with
    # the exp(iH) parametrisation, on which the simplex stopped 9.6e-6 short
    rng = np.random.default_rng((3476410350338386778, 3))
    u = exp_i_hermitian(rng.uniform(-np.pi, np.pi, size=9), 3)
    ket = kron(np.eye(3, dtype=complex), u) @ phi1_d(3)
    assert abs(fef_numeric_d(np.outer(ket, ket.conj())) - 1.0) <= 1e-12


def test_fef_numeric_near_maximally_mixed_d3():
    # F((1-eps) I/9 + eps P) = (1-eps)/9 + eps F(P) for a rotated maximally
    # entangled P; an ascent on rho itself, not rho - lambda_min I, stalls
    # short of this
    u = exp_i_hermitian(np.random.default_rng(67).uniform(-np.pi, np.pi, 9), 3)
    ket = kron(np.eye(3, dtype=complex), u) @ phi1_d(3)
    eps = 1e-3
    rho = (1 - eps) * np.eye(9) / 9 + eps * np.outer(ket, ket.conj())
    assert abs(fef_numeric_d(rho) - ((1 - eps) / 9 + eps)) <= 1e-9


def test_fef_numeric_budget_monotone_and_capped():
    rho = random_density_d(3, 66, 0)
    vals = [
        fef_numeric_d(rho, SearchBudget.from_level(level)) for level in (1, 2)
    ]
    assert vals[0] <= vals[1] + 1e-12
    assert vals[1] <= 1.0 + 1e-9


def test_teleport_max_d_values():
    assert abs(teleport_max_d(1.0, 2) - 1.0) < 1e-15
    assert abs(teleport_max_d(0.5, 2) - 2 / 3) < 1e-15
    assert abs(teleport_max_d(1.0, 5) - 1.0) < 1e-15


def test_teleport_max_d_matches_two_qubit_formula():
    for f in np.linspace(0.25, 1.0, 16):
        assert abs(teleport_max_d(f, 2) - (1 + 2 * f) / 3) < 1e-12


def test_teleport_max_d_range_checks():
    with pytest.raises(OutOfRangeError):
        teleport_max_d(0.1, 2)  # below 1/d^2
    with pytest.raises(OutOfRangeError):
        teleport_max_d(1.1, 2)
    with pytest.raises(OutOfRangeError):
        teleport_max_d(0.5, 1)
