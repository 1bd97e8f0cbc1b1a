"""Golden output bytes: each command's output is regenerated in-process
through ``cli.main`` and compared byte for byte with a committed fixture.

A change that moves output bytes on purpose rewrites the fixtures with

    PYTHONPATH=src python tests/test_golden.py

and lists every changed field in CHANGES.md.
"""

from pathlib import Path

import numpy as np
import pytest

from entfrac import cli
from entfrac.states import PHI1, random_density, save_density_json, werner

FIXTURES = Path(__file__).resolve().parent / "fixtures"
STATES = FIXTURES / "states"

SAMPLE_FAMILIES = ("raw", "fig2", "werner", "lower", "upper")
SAMPLE_SEEDS = (0, 7)
SAMPLE_ROWS = 50
FIG2_SEED = 11


def _pure(ket):
    ket = np.asarray(ket, dtype=complex)
    ket = ket / np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


def _input_states():
    """The analyze inputs by name: Bell, Werner, three raw draws, one rank-1
    and one rank-2 state (kets drawn from a fixed generator)."""
    rng = np.random.default_rng(20)
    kets = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    return {
        "bell": np.outer(PHI1, PHI1.conj()),
        "werner_0.8": werner(0.8),
        "raw_0_0": random_density(0, 0),
        "raw_7_3": random_density(7, 3),
        "raw_123_41": random_density(123, 41),
        "rank1": _pure(kets[0]),
        "rank2": 0.7 * _pure(kets[1]) + 0.3 * _pure(kets[2]),
    }


def _cases():
    """(fixture name, argv with OUT for the output path) for every case."""
    cases = []
    for family in SAMPLE_FAMILIES:
        for seed in SAMPLE_SEEDS:
            cases.append((
                f"sample_{family}_seed{seed}.csv",
                ["--command", "sample", "--family", family, "--seed", str(seed),
                 "--count", str(SAMPLE_ROWS), "--out", "OUT"],
            ))
    cases.append((
        "fig2.csv",
        ["--command", "fig2", "--seed", str(FIG2_SEED), "--count", str(SAMPLE_ROWS),
         "--out", "OUT"],
    ))
    for name in _input_states():
        for fmt in ("json", "csv"):
            cases.append((
                f"analyze_{name}.{fmt}",
                ["--command", "analyze", "--in", str(STATES / f"{name}.json"),
                 "--format", fmt, "--out", "OUT"],
            ))
    return cases


def _outputs(fixture, out_path):
    """Output files of one case: the fig2 case writes a bounds file too."""
    if fixture == "fig2.csv":
        return [(fixture, out_path), ("fig2_bounds.csv", out_path.with_name("fig2_bounds.csv"))]
    return [(fixture, out_path)]


def _run(argv, out_path):
    rc = cli.main([str(out_path) if a == "OUT" else a for a in argv])
    assert rc == 0, f"{' '.join(argv)} exited {rc}"


def _first_difference(got: bytes, want: bytes) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for k, (a, b) in enumerate(zip(got_lines, want_lines), start=1):
        if a != b:
            return f"line {k}:\n  got:  {a.decode()}\n  want: {b.decode()}"
    return f"line counts differ: got {len(got_lines)}, want {len(want_lines)}"


CASES = _cases()


@pytest.mark.parametrize("fixture,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(fixture, argv, tmp_path):
    out_path = tmp_path / fixture
    _run(argv, out_path)
    for name, path in _outputs(fixture, out_path):
        got, want = path.read_bytes(), (FIXTURES / name).read_bytes()
        assert got == want, f"{name} differs from its fixture at {_first_difference(got, want)}"


def regenerate():
    STATES.mkdir(parents=True, exist_ok=True)
    for name, rho in _input_states().items():
        save_density_json(rho, str(STATES / f"{name}.json"))
    for fixture, argv in CASES:
        _run(argv, FIXTURES / fixture)


if __name__ == "__main__":
    regenerate()
