"""Property tests of the closed forms over generated two-qubit states.

The states are rank-1, rank-2, near-degenerate (magic-diagonal weights all
close to 1/4, then locally rotated) and tolerance-edge (one of those with its
lowest eigenvalue lowered and its trace scaled, as far as the density check
admits).  Only closed forms run
here, no searches.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entfrac.applications import (
    TSIRELSON,
    bell_angles_analytic,
    bell_unitaries_analytic,
    fef_correlation_form,
)
from entfrac.concurrence import concurrence
from entfrac.ddim import haar_unitary
from entfrac.fef import fully_entangled_fraction
from entfrac.linalg import kron, single_qubit_unitary
from entfrac.states import MAGIC, density_violations

# the density check admits trace and eigenvalue defects up to 1e-10
EDGE = 1e-10
# window tolerance of the campaign rows (concurrence.BOUND_TOL)
BOUND_TOL = 1e-9

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

_unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def kets(draw):
    parts = draw(st.tuples(*[_unit] * 8).filter(lambda t: sum(x * x for x in t) > 0.01))
    k = np.array(parts[:4]) + 1j * np.array(parts[4:])
    return k / np.linalg.norm(k)


def _dress(rho, seed):
    rng = np.random.default_rng(seed)
    u = kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
    return u @ rho @ u.conj().T


@st.composite
def rank_one(draw):
    k = draw(kets())
    return np.outer(k, k.conj())


@st.composite
def rank_two(draw):
    a, b = draw(kets()), draw(kets())
    p = draw(st.floats(0.0, 1.0))
    return p * np.outer(a, a.conj()) + (1.0 - p) * np.outer(b, b.conj())


@st.composite
def near_degenerate(draw):
    w = 0.25 + np.array([draw(st.floats(-1e-9, 1e-9)) for _ in range(4)])
    rho = sum(x * np.outer(m, m.conj()) for x, m in zip(w / w.sum(), MAGIC))
    return _dress(rho, draw(st.integers(0, 2**64 - 1)))


@st.composite
def tolerance_edge(draw):
    rho = draw(st.one_of(rank_one(), rank_two(), near_degenerate()))
    low = np.linalg.eigh(rho)[1][:, 0]  # a null direction if rank-deficient
    rho = rho - 0.5 * EDGE * np.outer(low, low.conj())
    return rho * (1.0 + draw(st.floats(-0.4 * EDGE, 0.4 * EDGE)))


states = st.one_of(rank_one(), rank_two(), near_degenerate(), tolerance_edge())


def _valid(rho):
    assert density_violations(rho) == []
    return rho


@PROPERTY
@given(states)
@example(np.eye(4) / 4 * (1.0 - 0.9 * EDGE))  # F = Tr/4 sits just below 1/4
def test_fef_within_quarter_and_one(rho):
    f = fully_entangled_fraction(_valid(rho)).f
    assert 0.25 - EDGE <= f <= 1.0 + EDGE


@PROPERTY
@given(states)
def test_correlation_form_equals_fef(rho):
    # two exact routes to F that share no basis and no eigensolver
    rho = _valid(rho)
    assert abs(fef_correlation_form(rho) - fully_entangled_fraction(rho).f) < 1e-12


@PROPERTY
@given(states, st.integers(0, 2**64 - 1))
def test_local_unitaries_leave_measures_unchanged(rho, seed):
    rho = _valid(rho)
    moved = _dress(rho, seed)
    assert abs(fully_entangled_fraction(moved).f - fully_entangled_fraction(rho).f) < 1e-12
    assert abs(concurrence(moved).c - concurrence(rho).c) < 1e-7
    assert abs(bell_unitaries_analytic(moved) - bell_unitaries_analytic(rho)) < 1e-12


@PROPERTY
@given(states, st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi))
def test_zx_plane_rotations_leave_detector_maximum_unchanged(rho, a, b):
    # the detector-frame maximum only sees the Z-X correlation block, so only
    # rotations about Y on each side keep it fixed
    rho = _valid(rho)
    u = kron(single_qubit_unitary(a, 0.0, 0.0), single_qubit_unitary(b, 0.0, 0.0))
    moved = u @ rho @ u.conj().T
    assert abs(bell_angles_analytic(moved) - bell_angles_analytic(rho)) < 1e-12


@PROPERTY
@given(states)
def test_concurrence_window(rho):
    rho = _valid(rho)
    e = fully_entangled_fraction(rho).e
    c = concurrence(rho).c
    assert e <= c + BOUND_TOL
    assert c <= (e + 1.0) / 2.0 + BOUND_TOL


@PROPERTY
@given(states)
def test_chsh_maximum_bounded_by_fef(rho):
    rho = _valid(rho)
    f = fully_entangled_fraction(rho).f
    b = bell_unitaries_analytic(rho)
    assert bell_angles_analytic(rho) <= b + 1e-12
    # a tolerance-edge matrix is EDGE away from a state, and so is its bound
    assert b / TSIRELSON <= f + EDGE
