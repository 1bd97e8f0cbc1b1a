import itertools
import json
import warnings

import numpy as np
import pytest

from entfrac.errors import DensityMatrixError, OutOfRangeError
from entfrac.linalg import I2, X, Y, Z, kron
from entfrac.states import (
    MAGIC,
    PHI1,
    check_density,
    density_violations,
    fig2_mixture,
    load_density_json,
    lower_family,
    random_density,
    random_unitary_pair,
    save_density_json,
    upper_family,
    werner,
)

BELL = np.outer(PHI1, PHI1.conj())


def test_magic_basis_orthonormal():
    gram = MAGIC.conj() @ MAGIC.T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_magic_basis_maximally_entangled():
    for n in range(4):
        proj = np.outer(MAGIC[n], MAGIC[n].conj())
        t = proj.reshape(2, 2, 2, 2)
        for red in (np.einsum("ijkj->ik", t), np.einsum("jijk->ik", t)):
            assert np.max(np.abs(red - I2 / 2)) < 1e-12


def test_magic_basis_unitary_relations():
    # Each later basis ket is (1 x i*sigma) applied to the first, phases included.
    for op, n in ((X, 1), (Y, 2), (Z, 3)):
        v = kron(I2, 1j * op) @ MAGIC[0]
        assert np.max(np.abs(v - MAGIC[n])) < 1e-12


def test_magic_basis_entries():
    s = 1 / np.sqrt(2)
    assert np.allclose(MAGIC[0], [s, 0, 0, s])
    assert np.allclose(MAGIC[1], [0, 1j * s, 1j * s, 0])
    assert np.allclose(MAGIC[2], [0, -s, s, 0])
    assert np.allclose(MAGIC[3], [1j * s, 0, 0, -1j * s])


def test_random_density_invariants():
    for i in range(200):
        r = random_density(42, i)
        assert density_violations(r) == []
        w = np.linalg.eigvalsh(r)
        assert w[0] >= -1e-12
        assert abs(np.trace(r).real - 1) < 1e-12


def test_random_density_deterministic():
    a = random_density(7, 123)
    b = random_density(7, 123)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, random_density(7, 124))
    assert not np.array_equal(a, random_density(8, 123))


def test_seed_range_is_enforced():
    for seed in (-1, 2**64):
        with pytest.raises(OutOfRangeError):
            random_density(seed, 0)
        with pytest.raises(OutOfRangeError):
            fig2_mixture(seed, 0)


def test_highest_seeds_have_distinct_streams():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = [random_density(seed, 0) for seed in (2**63, 2**63 + 1, 2**64 - 1)]
    for a, b in itertools.combinations(draws, 2):
        assert not np.array_equal(a, b)


def test_random_density_purity_regression():
    # Self-consistency anchor: mean purity over the first 10,000 draws at
    # seed 0, frozen at first computation.  Any PRNG or layout change trips it.
    ps = [np.trace(r @ r).real for r in (random_density(0, i) for i in range(10000))]
    assert abs(np.mean(ps) - 0.7536579053181793) < 1e-12


def test_werner_endpoints():
    assert np.max(np.abs(werner(1.0) - BELL)) < 1e-15
    assert np.max(np.abs(werner(0.0) - np.eye(4) / 4)) < 1e-15
    mid = werner(0.5)
    assert abs((PHI1.conj() @ mid @ PHI1).real - 0.625) < 1e-14


def test_werner_range():
    with pytest.raises(OutOfRangeError):
        werner(-0.01)
    with pytest.raises(OutOfRangeError):
        werner(1.01)


def test_lower_family_endpoints():
    assert np.max(np.abs(lower_family(0.0, np.pi / 2) - BELL)) < 1e-15
    assert np.max(np.abs(lower_family(1.0, 0.3) - np.eye(4) / 4)) < 1e-15


def test_lower_family_range():
    with pytest.raises(OutOfRangeError):
        lower_family(1.5, 1.0)
    with pytest.raises(OutOfRangeError):
        lower_family(0.5, -0.1)


def test_upper_family_structure():
    assert np.max(np.abs(upper_family(0.0) - BELL)) < 1e-15
    z = upper_family(1.0)
    expect = np.zeros((4, 4))
    expect[1, 1] = 1.0
    assert np.max(np.abs(z - expect)) < 1e-15
    with pytest.raises(OutOfRangeError):
        upper_family(2.0)


def test_fig2_mixture_valid_and_param_ranges():
    for i in range(100):
        rho, (w, zeta) = fig2_mixture(3, i)
        assert density_violations(rho) == []
        assert 0.0 <= w <= 0.5
        assert 0.0 <= zeta <= 1.0


def test_fig2_mixture_shares_stream_prefix():
    # The random part of the mixture is exactly the raw draw for (seed, index).
    r = random_density(123, 45)
    rho, (w, zeta) = fig2_mixture(123, 45)
    assert w > 0.05  # this particular draw divides safely
    back = (rho - (1 - w) * upper_family(zeta)) / w
    assert np.max(np.abs(back - r)) < 1e-12


def test_density_violations_reporting():
    assert density_violations(np.eye(4) / 4) == []
    assert density_violations(np.eye(4)) == ["trace"]
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.5
    assert "hermiticity" in density_violations(m)
    m = np.diag([0.7, 0.5, -0.2, 0.0]).astype(complex)
    assert density_violations(m) == ["positivity"]
    assert density_violations(np.ones((2, 3))) == ["shape"]
    assert density_violations(np.eye(4) / 4, dim=9) == ["shape"]
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        m = np.eye(4, dtype=complex) / 4
        m[2, 1] = bad
        assert density_violations(m) == ["finite"]


def test_density_violations_free_of_overflow():
    # entries near the float limit: every check still names what fails, and
    # nothing overflows on the way
    huge = 1.5e308
    cases = (
        (np.diag([1e308, -1e308, 0.5, 0.5]), ["positivity"]),
        (np.diag([huge, huge, 0.5, 0.5]), ["trace"]),
        (np.array([[0.5, huge * (1 + 1j)], [huge * (1 + 1j), 0.5]]), ["hermiticity", "positivity"]),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m, want in cases:
            assert density_violations(m) == want


def test_check_density_raises_with_violations():
    with pytest.raises(DensityMatrixError) as err:
        check_density(np.eye(4, dtype=complex))
    assert err.value.violations == ["trace"]


def test_json_round_trip(tmp_path):
    rho = random_density(11, 0)
    path = tmp_path / "state.json"
    save_density_json(rho, path)
    back = load_density_json(path)
    assert np.max(np.abs(back - rho)) < 1e-15
    doc = json.loads(path.read_text())
    assert doc["dim"] == 4 and len(doc["re"]) == 4 and len(doc["im"]) == 4


def test_json_loader_rejects_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("not json at all")
    with pytest.raises(ValueError):
        load_density_json(p)
    p.write_text(json.dumps({"dim": 4, "re": [[1.0] * 4] * 4}))
    with pytest.raises(ValueError):
        load_density_json(p)
    p.write_text(json.dumps({"dim": 3, "re": [[1.0] * 4] * 4, "im": [[0.0] * 4] * 4}))
    with pytest.raises(ValueError):
        load_density_json(p)


def test_json_loader_rejects_invalid_state(tmp_path):
    p = tmp_path / "invalid.json"
    save_density_json(np.eye(4, dtype=complex), p)  # trace 4
    with pytest.raises(DensityMatrixError) as err:
        load_density_json(p)
    assert "trace" in err.value.violations


def test_random_unitary_pair():
    ua, ub = random_unitary_pair(9)
    for u in (ua, ub):
        assert np.max(np.abs(u.conj().T @ u - I2)) < 1e-12
    ua2, _ = random_unitary_pair(9)
    assert np.array_equal(ua, ua2)
    ua3, _ = random_unitary_pair(9, index=1)
    assert not np.array_equal(ua, ua3)
