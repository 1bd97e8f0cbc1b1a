"""Acceptance gate: the eleven shipping criteria, one test and one printed
pass/fail line each.  Tolerances here are contractual; loosening one is a
release decision, not a test fix."""

import dataclasses
import time

import numpy as np

from entfrac import cli
from entfrac.applications import (
    CANONICAL_ANGLES,
    bell_canonical,
    bell_chsh,
    bell_max,
    dense_coding_fidelity,
    fef_correlation_form,
    fiducial_gap,
    swapping_fidelity,
    teleportation_fidelity,
)
from entfrac.concurrence import concurrence
from entfrac.ddim import (
    clock_shift_unitaries,
    dense_coding_fidelity_d,
    fef_numeric_d,
    phi1_d,
    teleport_max_d,
)
from entfrac.fef import fully_entangled_fraction
from entfrac.optimize import SearchBudget
from entfrac.states import (
    PHI1,
    fig2_mixture,
    lower_family,
    random_density,
    upper_family,
    werner,
)
from entfrac.verify import _random_density_d

TSIRELSON = 2.0 * np.sqrt(2.0)

# campaign-scale searches: the bell bound is rigorous for the searched
# family, so a short search can only undershoot, never fake a violation
LEAN = dataclasses.replace(SearchBudget(), starts=2, maxiter=60)


def _overlap(rho):
    return float((PHI1.conj() @ rho @ PHI1).real)


def _line(report, num, ok, text):
    report(f"CRITERION {num:2d} {'PASS' if ok else 'FAIL'}: {text}")


def test_01_fef_three_way_agreement(acceptance_report):
    # three routes to F: the magic-basis eigenproblem, the exact
    # correlation-matrix form, and the polar-factor ascent over U
    budget = SearchBudget()
    t0 = time.perf_counter()
    dev_tform = dev_unitary = 0.0
    for i in range(1000):
        rho = random_density(0, i)
        f = fully_entangled_fraction(rho).f
        dev_tform = max(dev_tform, abs(f - fef_correlation_form(rho)))
        dev_unitary = max(dev_unitary, abs(f - fef_numeric_d(rho, budget)))
    dt = time.perf_counter() - t0
    ok = dev_tform <= 1e-12 and dev_unitary <= 1e-6
    _line(
        acceptance_report, 1, ok,
        f"fef three-way agreement on 1000 states: correlation-form dev {dev_tform:.2e} (tol 1e-12), "
        f"unitary dev {dev_unitary:.2e} (tol 1e-6), {dt:.1f}s single-threaded (target 60s)",
    )
    assert dev_tform <= 1e-12
    assert dev_unitary <= 1e-6


def test_02_dense_coding_reduction(acceptance_report):
    dev = 0.0
    for i in range(1000):
        rho = random_density(0, i)
        dev = max(dev, abs(dense_coding_fidelity(rho) - _overlap(rho)))
    ok = dev <= 1e-12
    _line(acceptance_report, 2, ok,
          f"four-term dense coding average equals base overlap on 1000 states: dev {dev:.2e} (tol 1e-12)")
    assert dev <= 1e-12


def test_03_teleportation_reduction_and_boundary(acceptance_report):
    dev = 0.0
    for i in range(200):
        rho = random_density(0, i)
        dev = max(dev, abs(teleportation_fidelity(rho) - (1.0 + 2.0 * _overlap(rho)) / 3.0))
    # product state with base overlap 1/2 sits exactly on the classical boundary
    e00 = np.zeros(4)
    e00[0] = 1.0
    product = np.outer(e00, e00)
    dev_f = abs(fully_entangled_fraction(product).f - 0.5)
    dev_b = abs(teleportation_fidelity(product) - 2.0 / 3.0)
    ok = dev <= 1e-10 and dev_f <= 1e-12 and dev_b <= 1e-12
    _line(acceptance_report, 3, ok,
          f"teleportation equals (1+2v)/3 on 200 states: dev {dev:.2e} (tol 1e-10); "
          f"boundary state F dev {dev_f:.2e}, F_T=2/3 dev {dev_b:.2e} (tol 1e-12)")
    assert dev <= 1e-10
    assert dev_f <= 1e-12
    assert dev_b <= 1e-12


def test_04_swapping_reduction(acceptance_report):
    dev = 0.0
    for i in range(1000):
        rho = random_density(0, i)
        dev = max(dev, abs(swapping_fidelity(rho) - _overlap(rho)))
    ok = dev <= 1e-12
    _line(acceptance_report, 4, ok,
          f"swapping circuit equals base overlap on 1000 states: dev {dev:.2e} (tol 1e-12)")
    assert dev <= 1e-12


def test_05_canonical_bell_value(acceptance_report):
    dev = 0.0
    for i in range(1000):
        rho = random_density(0, i)
        dev = max(dev, abs(bell_canonical(rho) - bell_chsh(rho, *CANONICAL_ANGLES)))
    bell = np.outer(PHI1, PHI1.conj())
    dev_bell = abs(bell_canonical(bell) - TSIRELSON)
    ok = dev <= 1e-12 and dev_bell <= 1e-12
    _line(acceptance_report, 5, ok,
          f"canonical bell value equals four-term sum on 1000 states: dev {dev:.2e}; "
          f"bell state 2*sqrt(2) dev {dev_bell:.2e} (tol 1e-12)")
    assert dev <= 1e-12
    assert dev_bell <= 1e-12


def test_06_bell_bound_on_mixture_campaign(acceptance_report):
    count = 50000
    t0 = time.perf_counter()
    violations = 0
    worst_a = worst_u = -1.0
    for i in range(count):
        rho, _ = fig2_mixture(0, i)
        f = fully_entangled_fraction(rho).f
        margin_a = bell_max(rho, mode="angles", budget=LEAN) / TSIRELSON - f
        margin_u = bell_max(rho, mode="local_unitaries", budget=LEAN) / TSIRELSON - f
        worst_a = max(worst_a, margin_a)
        worst_u = max(worst_u, margin_u)
        if margin_a > 1e-9 or margin_u > 1e-9:
            violations += 1
    dt = time.perf_counter() - t0
    ok = violations == 0
    _line(acceptance_report, 6, ok,
          f"bell maxima bounded by fef on {count} mixture states: {violations} violations, "
          f"worst margins angles {worst_a:.2e}, unitaries {worst_u:.2e} (tol 1e-9), "
          f"{dt / 60:.1f} min on 1 worker (target 30 min on 8)")
    assert violations == 0


def test_07_concurrence_window_at_scale(acceptance_report):
    count = 100000
    t0 = time.perf_counter()
    violations = 0
    worst_lo = worst_hi = -1.0
    for i in range(count):
        rho, _ = fig2_mixture(0, i)
        e = fully_entangled_fraction(rho).e
        c = concurrence(rho).c
        worst_lo = max(worst_lo, e - c)
        worst_hi = max(worst_hi, c - (e + 1.0) / 2.0)
        if e > c + 1e-9 or c > (e + 1.0) / 2.0 + 1e-9:
            violations += 1
    dt = time.perf_counter() - t0

    dev_lower = 0.0
    for eps in np.linspace(0.0, 0.9, 10):
        for theta in np.linspace(0.0, np.pi / 2.0, 10):
            rho = lower_family(eps, theta)
            target = max(0.0, (1.0 - eps) * np.sin(theta) - eps / 2.0)
            dev_lower = max(dev_lower, abs(fully_entangled_fraction(rho).e - target))
            dev_lower = max(dev_lower, abs(concurrence(rho).c - target))
    dev_upper = 0.0
    for zeta in np.linspace(0.0, 0.5, 100):
        rho = upper_family(zeta)
        e = fully_entangled_fraction(rho).e
        c = concurrence(rho).c
        dev_upper = max(dev_upper, abs(e - (2.0 * c - 1.0)))
        dev_upper = max(dev_upper, abs(c - (1.0 - zeta)))
    ok = violations == 0 and dev_lower <= 1e-10 and dev_upper <= 1e-10
    _line(acceptance_report, 7, ok,
          f"concurrence window on {count} mixture states: {violations} violations, worst "
          f"E-C {worst_lo:.2e}, C-(E+1)/2 {worst_hi:.2e} (tol 1e-9), {dt:.0f}s; "
          f"boundary grids dev lower {dev_lower:.2e}, upper {dev_upper:.2e} (tol 1e-10)")
    assert violations == 0
    assert dev_lower <= 1e-10
    assert dev_upper <= 1e-10


def test_08_werner_line(acceptance_report):
    dev = 0.0
    for p in np.arange(0.0, 1.05, 0.1):
        p = min(p, 1.0)
        rho = werner(p)
        ec = max(0.0, (3.0 * p - 1.0) / 2.0)
        dev = max(dev, abs(fully_entangled_fraction(rho).f - (1.0 + 3.0 * p) / 4.0))
        dev = max(dev, abs(fully_entangled_fraction(rho).e - ec))
        dev = max(dev, abs(concurrence(rho).c - ec))
    ok = dev <= 1e-10
    _line(acceptance_report, 8, ok,
          f"werner line closed forms over p in 0..1 step 0.1: dev {dev:.2e} (tol 1e-10)")
    assert dev <= 1e-10


def test_09_fiducial_gap_peak(acceptance_report):
    budget = SearchBudget.from_level(1)
    thetas = np.linspace(0.0, np.pi, 181)
    t0 = time.perf_counter()
    gaps = np.array([fiducial_gap(t, budget) for t in thetas])
    dt = time.perf_counter() - t0
    k = int(np.argmax(gaps))
    k_half = int(np.argmin(np.abs(thetas - np.pi / 2.0)))
    dev = abs(gaps[k] - 0.5)
    ok = k == k_half and dev <= 1e-6
    _line(acceptance_report, 9, ok,
          f"fiducial gap peak on 181-point grid at theta={thetas[k]:.6f} "
          f"(expected grid point {thetas[k_half]:.6f}), value dev {dev:.2e} (tol 1e-6), {dt:.1f}s")
    assert k == k_half
    assert dev <= 1e-6


def test_10_d_level_identities(acceptance_report):
    dev_red = 0.0
    for d in (2, 3):
        unitaries = clock_shift_unitaries(d)
        phi = phi1_d(d)
        for i in range(20):
            rho = _random_density_d(d, 0, i)
            v = float((phi.conj() @ rho @ phi).real)
            dev_red = max(dev_red, abs(dense_coding_fidelity_d(rho, unitaries) - v))
    budget = SearchBudget()
    dev_fef = 0.0
    for i in range(100):
        rho = _random_density_d(2, 1, i)
        dev_fef = max(dev_fef, abs(fef_numeric_d(rho, budget) - fully_entangled_fraction(rho).f))
    dev_end = max(
        abs(teleport_max_d(1.0, 2) - 1.0),
        abs(teleport_max_d(1.0, 3) - 1.0),
        abs(teleport_max_d(0.5, 2) - 2.0 / 3.0),
    )
    ok = dev_red <= 1e-12 and dev_fef <= 1e-6 and dev_end <= 1e-12
    _line(acceptance_report, 10, ok,
          f"d-level checks: reduction dev {dev_red:.2e} (tol 1e-12), numeric fef dev "
          f"{dev_fef:.2e} on 100 states (tol 1e-6), formula endpoints dev {dev_end:.2e} (tol 1e-12)")
    assert dev_red <= 1e-12
    assert dev_fef <= 1e-6
    assert dev_end <= 1e-12


def test_11_sampling_determinism(acceptance_report, tmp_path):
    outs = [tmp_path / name for name in ("r1.csv", "r2.csv", "w4.csv")]
    args = [
        ["--command", "sample", "--count", "1000", "--seed", "7", "--out", str(outs[0])],
        ["--command", "sample", "--count", "1000", "--seed", "7", "--out", str(outs[1])],
        ["--command", "sample", "--count", "1000", "--seed", "7", "--workers", "4", "--out", str(outs[2])],
    ]
    t0 = time.perf_counter()
    codes = [cli.main(a) for a in args]
    dt = time.perf_counter() - t0
    blobs = [p.read_bytes() for p in outs]
    same_rerun = blobs[0] == blobs[1]
    same_workers = blobs[0] == blobs[2]
    ok = codes == [0, 0, 0] and same_rerun and same_workers
    _line(acceptance_report, 11, ok,
          f"sample --count 1000 --seed 7: rerun identical {same_rerun}, workers 1 vs 4 "
          f"identical {same_workers}, exit codes {codes}, {dt:.1f}s for 3 runs")
    assert codes == [0, 0, 0]
    assert same_rerun
    assert same_workers
