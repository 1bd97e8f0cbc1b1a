import numpy as np

from entfrac.optimize import SearchBudget
from entfrac.verify import format_report, run_ddim_suite, run_identity_suite


def test_suite_passes_on_default_sampler():
    results = run_identity_suite(count=40, seed=0)
    assert len(results) == 12
    assert all(r.passed for r in results)


def test_quick_mode_loosens_oracle_tolerances():
    results = run_identity_suite(count=8, seed=1, quick=True)
    by_name = {r.name: r for r in results}
    assert by_name["closed-form fef matches the correlation-matrix form"].tolerance == 1e-12
    assert by_name["closed-form fef matches the local-unitary oracle"].tolerance == 1e-5
    assert all(r.passed for r in results)


def test_oracle_identities_capped():
    results = run_identity_suite(count=60, seed=2, budget=SearchBudget.from_level(1), quick=True)
    by_name = {r.name: r for r in results}
    assert by_name["closed-form fef matches the local-unitary oracle"].count == 50
    assert by_name["closed-form fef matches the correlation-matrix form"].count == 60
    assert by_name["dense coding average equals the base bell overlap"].count == 60


def test_corrupt_source_fails_validity_and_short_circuits():
    bad = np.diag([0.5, 0.5, 0.5, 0.5])  # trace 2

    results = run_identity_suite(count=4, seed=0, state_source=lambda i: bad)
    assert len(results) == 1
    assert results[0].name == "sampled states satisfy the density invariants"
    assert not results[0].passed
    assert results[0].deviation > 0


def test_partly_corrupt_source_still_caught():
    from entfrac.states import random_density

    def source(i):
        if i == 2:
            m = random_density(0, i).copy()
            m[0, 1] += 0.3  # break hermiticity
            return m
        return random_density(0, i)

    results = run_identity_suite(count=4, seed=0, state_source=source)
    assert len(results) == 1 and not results[0].passed


def test_report_formatting():
    results = run_identity_suite(count=3, seed=3, quick=True)
    text = format_report(results)
    assert text.count("PASS") == len(results)
    assert f"all {len(results)} identity checks passed" in text

    bad = run_identity_suite(count=2, seed=0, state_source=lambda i: np.eye(4))
    text = format_report(bad)
    assert "FAIL" in text
    assert "1 identity check(s) failed" in text


def test_ddim_suite_passes():
    results = run_ddim_suite(count=2, seed=0)
    assert len(results) == 5
    assert all(r.passed for r in results)
