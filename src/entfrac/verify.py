"""Identity suite: every closed form checked against its independent route.

Each identity is evaluated over a seeded sample and reported as a named
result with the worst observed deviation, so a regression shows up as a
number, not just a boolean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .applications import (
    CANONICAL_ANGLES,
    _phi1_overlap,
    bell_canonical,
    bell_chsh,
    dense_coding_fidelity,
    fef_correlation_form,
    swapping_fidelity,
    teleportation_fidelity,
)
from .concurrence import concurrence
from .ddim import (
    clock_shift_unitaries,
    dense_coding_fidelity_d,
    fef_numeric_d,
    haar_unitary,
    phi1_d,
    teleport_max_d,
)
from .fef import fully_entangled_fraction
from .optimize import SearchBudget
from .states import density_violations, lower_family, random_density, upper_family, werner

# the numeric-search oracle is the slow part of the suite; it sees at most
# this many states regardless of --count
ORACLE_CAP = 50


@dataclass(frozen=True)
class IdentityResult:
    name: str
    deviation: float
    tolerance: float
    count: int
    passed: bool


def _result(name, deviation, tolerance, count) -> IdentityResult:
    deviation = float(deviation)
    return IdentityResult(
        name=name,
        deviation=deviation,
        tolerance=tolerance,
        count=count,
        passed=bool(deviation <= tolerance),
    )


def _random_density_d(d, seed, index):
    rng = np.random.default_rng((seed, index, d))
    t = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    rho = t @ t.conj().T
    return rho / np.trace(rho).real


def run_identity_suite(
    count: int = 200,
    seed: int = 0,
    budget: SearchBudget | None = None,
    *,
    quick: bool = False,
    state_source=None,
) -> list[IdentityResult]:
    """Run every identity over `count` sampled states.

    The closed-form F is checked against the exact correlation-matrix form
    on every state, and against the polar-factor ascent ``fef_numeric_d`` at
    ``budget`` on at most ORACLE_CAP states.  quick loosens the ascent's
    tolerance to 1e-5 (the search is then allowed to run cold); the exact
    form keeps 1e-12.  state_source overrides the sampler, which is how the
    corrupted-input negative test gets its states in.
    """
    if budget is None:
        budget = SearchBudget()
    if state_source is None:
        state_source = lambda i: random_density(seed, i)
    oracle_tol = 1e-5 if quick else 1e-6

    states = [np.asarray(state_source(i), dtype=complex) for i in range(count)]

    # gate everything else on state validity so a corrupt source fails loudly
    # instead of poisoning the downstream identities
    bad = sum(len(density_violations(rho)) for rho in states)
    validity = _result("sampled states satisfy the density invariants", float(bad), 0.0, count)
    if not validity.passed:
        return [validity]
    results = [validity]

    fs = [fully_entangled_fraction(rho).f for rho in states]
    dev_dense = dev_tele = dev_swap = dev_bell = dev_tform = 0.0
    for rho, f in zip(states, fs):
        v = _phi1_overlap(rho)
        dev_tform = max(dev_tform, abs(f - fef_correlation_form(rho)))
        dev_dense = max(dev_dense, abs(dense_coding_fidelity(rho) - v))
        dev_tele = max(dev_tele, abs(teleportation_fidelity(rho) - (1.0 + 2.0 * v) / 3.0))
        dev_swap = max(dev_swap, abs(swapping_fidelity(rho) - v))
        dev_bell = max(dev_bell, abs(bell_canonical(rho) - bell_chsh(rho, *CANONICAL_ANGLES)))
    results.append(_result("dense coding average equals the base bell overlap", dev_dense, 1e-12, count))
    results.append(_result("teleportation average equals (1 + 2 overlap)/3", dev_tele, 1e-10, count))
    results.append(_result("swapping average equals the base bell overlap", dev_swap, 1e-12, count))
    results.append(_result("canonical bell value equals the four-term sum", dev_bell, 1e-12, count))

    results.append(_result("closed-form fef matches the correlation-matrix form", dev_tform, 1e-12, count))

    n_oracle = min(count, ORACLE_CAP)
    dev_unitary = 0.0
    for rho, f in zip(states[:n_oracle], fs):
        dev_unitary = max(dev_unitary, abs(f - fef_numeric_d(rho, budget)))
    results.append(_result(
        "closed-form fef matches the local-unitary oracle",
        dev_unitary, oracle_tol, n_oracle,
    ))

    dev = 0.0
    for eps in np.linspace(0.0, 0.99, 10):
        for theta in np.linspace(0.0, np.pi / 2.0, 10):
            rho = lower_family(eps, theta)
            target = max(0.0, (1.0 - eps) * np.sin(theta) - eps / 2.0)
            dev = max(dev, abs(fully_entangled_fraction(rho).e - target))
            dev = max(dev, abs(concurrence(rho).c - target))
    results.append(_result("lower boundary family attains E = C", dev, 1e-10, 100))

    dev = 0.0
    for zeta in np.linspace(0.0, 1.0, 21):
        rho = upper_family(zeta)
        dev = max(dev, abs(fully_entangled_fraction(rho).e - max(0.0, 1.0 - 2.0 * zeta)))
        dev = max(dev, abs(concurrence(rho).c - (1.0 - zeta)))
    results.append(_result("upper boundary family attains E = 2C - 1", dev, 1e-10, 21))

    dev = 0.0
    for p in np.linspace(0.0, 1.0, 11):
        rho = werner(p)
        ec = max(0.0, (3.0 * p - 1.0) / 2.0)
        dev = max(dev, abs(fully_entangled_fraction(rho).f - (1.0 + 3.0 * p) / 4.0))
        dev = max(dev, abs(fully_entangled_fraction(rho).e - ec))
        dev = max(dev, abs(concurrence(rho).c - ec))
    results.append(_result("werner line follows the linear closed forms", dev, 1e-10, 11))

    results.append(_ddim_reduction_identity(count, seed))
    results.append(_teleport_formula_identity())
    return results


def _ddim_reduction_identity(count, seed) -> IdentityResult:
    dev = 0.0
    n_per_d = min(max(count // 10, 5), 20)
    for d in (2, 3):
        unitaries = clock_shift_unitaries(d)
        phi = phi1_d(d)
        for i in range(n_per_d):
            rho = _random_density_d(d, seed, i)
            v = float((phi.conj() @ rho @ phi).real)
            dev = max(dev, abs(dense_coding_fidelity_d(rho, unitaries) - v))
    return _result("d-level dense coding average equals the base overlap", dev, 1e-12, 2 * n_per_d)


def _teleport_formula_identity() -> IdentityResult:
    dev = max(
        abs(teleport_max_d(1.0, 2) - 1.0),
        abs(teleport_max_d(0.5, 2) - 2.0 / 3.0),
        abs(teleport_max_d(1.0, 5) - 1.0),
    )
    for f in np.linspace(0.25, 1.0, 7):
        dev = max(dev, abs(teleport_max_d(f, 2) - (1.0 + 2.0 * f) / 3.0))
    return _result("teleportation formula endpoints and d=2 line", dev, 1e-12, 10)


def run_ddim_suite(
    count: int = 10,
    seed: int = 0,
    budget: SearchBudget | None = None,
    *,
    quick: bool = False,
) -> list[IdentityResult]:
    """The d-level subset plus numeric-fef spot checks, for the ddim command."""
    if budget is None:
        budget = SearchBudget()
    tol = 1e-5 if quick else 1e-6

    results = [_ddim_reduction_identity(max(count * 10, 50), seed)]

    n = min(count, 10)
    dev = 0.0
    for i in range(n):
        rho = _random_density_d(2, seed, 100 + i)
        dev = max(dev, abs(fef_numeric_d(rho, budget) - fully_entangled_fraction(rho).f))
    results.append(_result("numeric fef agrees with the closed form at d=2", dev, tol, n))

    u = haar_unitary(np.random.default_rng((seed, 3)), 3)
    phi = phi1_d(3)
    ket = np.kron(np.eye(3), u) @ phi
    rho = np.outer(ket, ket.conj())
    dev = abs(fef_numeric_d(rho, budget) - 1.0)
    results.append(_result("numeric fef saturates on a rotated d=3 pair", dev, tol, 1))

    dev = abs(fef_numeric_d(np.eye(9) / 9.0, budget) - 1.0 / 9.0)
    results.append(_result("numeric fef on the maximally mixed d=3 state", dev, 1e-9, 1))

    results.append(_teleport_formula_identity())
    return results


def format_report(results) -> str:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{mark}  {r.name:<{width}}  max_dev={r.deviation:.3e}  "
            f"tol={r.tolerance:.0e}  n={r.count}"
        )
    failed = [r for r in results if not r.passed]
    if failed:
        lines.append(f"{len(failed)} identity check(s) failed:")
        for r in failed:
            lines.append(f"  - {r.name}")
    else:
        lines.append(f"all {len(results)} identity checks passed")
    return "\n".join(lines) + "\n"
