"""Tests of the reference values on textbook states.

    python3 -m pytest perfbench
"""

import numpy as np
import pytest

import reference as ref

rng = np.random.default_rng(20020806)


def random_state(rank=4):
    kets = rng.normal(size=(rank, 4)) + 1j * rng.normal(size=(rank, 4))
    rho = sum(np.outer(k, k.conj()) for k in kets)
    return rho / np.trace(rho).real


def random_unitary():
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / abs(np.diag(r)))


@pytest.mark.parametrize("bell", [ref.PHI_PLUS, ref.PHI_MINUS, ref.PSI_PLUS, ref.PSI_MINUS])
def test_bell_states_are_maximal(bell):
    rho = ref.projector(bell)
    assert ref.fef(rho) == pytest.approx(1.0, abs=1e-12)
    assert ref.concurrence(rho) == pytest.approx(1.0, abs=ref.TOL_C)
    assert ref.chsh_angles(rho) == pytest.approx(ref.TSIRELSON, abs=1e-12)
    assert ref.chsh_unitaries(rho) == pytest.approx(ref.TSIRELSON, abs=1e-12)


def test_canonical_chsh_of_phi1_is_tsirelson():
    assert ref.chsh_canonical(ref.projector(ref.PHI_PLUS)) == pytest.approx(ref.TSIRELSON, abs=1e-12)


def test_product_and_maximally_mixed():
    product = ref.projector(ref.ket(1, 0, 0, 0))
    assert ref.fef(product) == pytest.approx(0.5, abs=1e-12)
    assert ref.concurrence(product) == pytest.approx(0.0, abs=ref.TOL_C)
    mixed = np.eye(4) / 4
    assert ref.fef(mixed) == pytest.approx(0.25, abs=1e-12)
    assert ref.concurrence(mixed) == 0.0
    assert ref.chsh_unitaries(mixed) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 11))
def test_werner_line(p):
    rho = ref.werner(p)
    assert ref.fef(rho) == pytest.approx((1 + 3 * p) / 4, abs=1e-12)
    assert ref.phi1_overlap(rho) == pytest.approx((1 + 3 * p) / 4, abs=1e-12)
    assert ref.concurrence(rho) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=ref.TOL_C)
    assert ref.chsh_canonical(rho) == pytest.approx(ref.TSIRELSON * p, abs=1e-12)


def test_pure_state_concurrence_is_within_the_rank_deficient_tolerance():
    # the non-Hermitian route amplifies zero eigenvalues through sqrt
    theta = 1.1
    psi = ref.ket(np.cos(theta / 2), 0, 0, np.sin(theta / 2))
    assert ref.concurrence(ref.projector(psi)) == pytest.approx(np.sin(theta), abs=ref.TOL_C)


def test_fef_bounds_every_maximally_entangled_overlap():
    for _ in range(20):
        rho = random_state()
        f = ref.fef(rho)
        assert 0.25 - 1e-12 <= f <= 1.0 + 1e-12
        for _ in range(20):
            psi = np.kron(np.eye(2), random_unitary()) @ ref.PHI_PLUS
            assert (psi.conj() @ rho @ psi).real <= f + 1e-12


def test_measures_are_local_unitary_invariant():
    for rank in (1, 2, 4):
        rho = random_state(rank)
        u = np.kron(random_unitary(), random_unitary())
        moved = u @ rho @ u.conj().T
        assert ref.fef(moved) == pytest.approx(ref.fef(rho), abs=1e-12)
        assert ref.concurrence(moved) == pytest.approx(ref.concurrence(rho), abs=ref.TOL_C)
        assert ref.chsh_unitaries(moved) == pytest.approx(ref.chsh_unitaries(rho), abs=1e-12)


def test_paper_bounds_hold_on_random_states():
    for rank in (1, 2, 3, 4):
        for _ in range(25):
            rho = random_state(rank)
            f = ref.fef(rho)
            e, c = ref.renormalized(f), ref.concurrence(rho)
            assert e <= c + ref.TOL_C and c <= (e + 1) / 2 + ref.TOL_C
            assert ref.chsh_angles(rho) <= ref.TSIRELSON * f + 1e-12
            assert ref.chsh_canonical(rho) <= ref.chsh_angles(rho) + 1e-12


@pytest.mark.parametrize("epsilon", [0.0, 0.2, 0.5, 0.9])
@pytest.mark.parametrize("theta", [0.0, 0.4, np.pi / 4, np.pi / 2])
def test_lower_family_closed_form(epsilon, theta):
    rho = ref.lower_state(epsilon, theta)
    e, c = ref.lower_closed_form(epsilon, theta)
    assert ref.renormalized(ref.fef(rho)) == pytest.approx(e, abs=1e-12)
    assert ref.concurrence(rho) == pytest.approx(c, abs=ref.TOL_C)


@pytest.mark.parametrize("zeta", np.linspace(0.0, 1.0, 9))
def test_upper_family_closed_form(zeta):
    rho = ref.upper_state(zeta)
    e, c = ref.upper_closed_form(zeta)
    assert ref.renormalized(ref.fef(rho)) == pytest.approx(e, abs=1e-12)
    assert ref.concurrence(rho) == pytest.approx(c, abs=ref.TOL_C)


def test_draw_layout_is_a_pure_function_of_seed_and_index():
    a, _, _ = ref.draw("raw", 5, 3)
    b, _, _ = ref.draw("raw", 5, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, ref.draw("raw", 5, 4)[0])
    assert not np.array_equal(a, ref.draw("raw", 6, 3)[0])
    # the key is (seed mod 2^64, stream * 2^56 + index)
    u = np.random.Generator(np.random.Philox(key=np.array([5, 3], dtype=np.uint64))).random(32)
    t = (u[:16] + 1j * u[16:]).reshape(4, 4)
    g = t @ t.conj().T
    assert np.allclose(a, g / np.trace(g).real, atol=0, rtol=0)
    assert ref.draw("raw", 5 + (1 << 64), 3)[0] == pytest.approx(a)
    # fig2 continues the density stream with zeta, then w
    rho, w, zeta = ref.draw("fig2", 5, 3)
    assert 0 <= w < 0.5 and 0 <= zeta < 1
    assert np.allclose(rho, w * a + (1 - w) * ref.upper_state(zeta), atol=1e-15)


@pytest.mark.parametrize("family", ["raw", "fig2", "werner", "lower", "upper"])
def test_draw_reproduces_the_library_rows(family):
    from entfrac import campaign

    for seed in (0, 7, 123456789):
        for index in (0, 1, 1000):
            rho, p1, p2 = ref.draw(family, seed, index)
            row = campaign.sample_record(family, seed, index)
            assert (row.param1, row.param2) == (p1, p2)
            assert row.f == pytest.approx(ref.fef(rho), abs=1e-12)
            assert row.c == pytest.approx(ref.concurrence(rho), abs=ref.TOL_C)


def test_d_level_closed_forms():
    assert ref.d_level_fef(np.eye(9) / 9, 3) == pytest.approx(1 / 9)
    # pure d=3 kets: F = (sum of Schmidt coefficients)^2 / d
    for amplitudes, want in (([1, 1, 1], 1.0), ([2, 1, 0], (np.sqrt(2) + 1) ** 2 / 3 / 3)):
        psi = np.zeros(9, dtype=complex)
        psi[[0, 4, 8]] = np.sqrt(np.array(amplitudes) / sum(amplitudes))
        assert ref.d_level_fef(np.outer(psi, psi.conj()), 3) == pytest.approx(want, abs=1e-12)
    rho = random_state()
    assert ref.d_level_fef(rho, 2) == ref.fef(rho)
    assert ref.d_level_fef(np.diag([0.5] + [0.5 / 8] * 8), 3) is None
