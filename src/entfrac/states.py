# Two-qubit state construction: magic basis, named families, seeded samplers,
# density-matrix validation, and the JSON file format.
#
# Basis convention used everywhere: computational index = 2*(Bob bit) + (Alice bit),
# so operators written 1 (x) A act on Alice as the second Kronecker factor.

from __future__ import annotations

import json

import numpy as np

from .errors import DensityMatrixError, OutOfRangeError
from .linalg import DIM_LIMIT, hermiticity_defect

_SQ2 = np.sqrt(2.0)

#: Magic Bell basis, one ket per row.  Phases are fixed so that rows 1..3 are
#: (1 (x) iX), (1 (x) iY), (1 (x) iZ) applied to row 0, which makes the
#: entangled-fraction maximization a real symmetric eigenproblem.
MAGIC = np.array(
    [
        [1, 0, 0, 1],            # (|00> + |11>)/sqrt(2)
        [0, 1j, 1j, 0],          # i(|01> + |10>)/sqrt(2)
        [0, -1, 1, 0],           # (|10> - |01>)/sqrt(2)
        [1j, 0, 0, -1j],         # i(|00> - |11>)/sqrt(2)
    ],
    dtype=complex,
) / _SQ2
MAGIC.setflags(write=False)

PHI1 = MAGIC[0]

# Philox stream layout: key = (seed, stream * 2^56 + index), both uint64.
# Stream 2 holds the campaign's family parameters; stream 1 is unused.
_STREAM_DENSITY = 0

#: Seeds are the first word of the Philox key: integers in [0, 2^64).
SEED_LIMIT = 1 << 64

# Tolerance of each numeric density-matrix invariant.
_DENSITY_TOL = 1e-10


def _rng(seed: int, index: int, stream: int = _STREAM_DENSITY) -> np.random.Generator:
    if not 0 <= seed < SEED_LIMIT:
        raise OutOfRangeError(f"seed {seed} outside [0, 2^64)")
    if index < 0 or index >= 1 << 56:
        raise OutOfRangeError(f"index {index} outside [0, 2^56)")
    key = np.array([seed, (stream << 56) + index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def density_violations(m: np.ndarray, *, dim: int | None = None) -> list[str]:
    """Names of the density-matrix invariants ``m`` fails (empty list if valid).

    Checked in order: finite entries, shape (square, within the supported
    dimension, matching ``dim`` when given), hermiticity, unit trace,
    positivity.  A finiteness or shape failure short-circuits the remaining
    checks.
    """
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        return ["finite"]
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] > DIM_LIMIT:
        return ["shape"]
    if dim is not None and m.shape[0] != dim:
        return ["shape"]
    # No entry of a state exceeds 1 in modulus.  Checking m / scale against
    # tolerances divided by scale keeps sums and eigenvalues of larger
    # entries from overflowing; scale is 1, and changes nothing, for states.
    scale = max(1.0, float(np.abs(m.real).max()), float(np.abs(m.imag).max()))
    m = m / scale
    tol = _DENSITY_TOL / scale
    bad = []
    if hermiticity_defect(m) > tol:
        bad.append("hermiticity")
    trace = np.trace(m)
    if abs(trace.real - 1.0 / scale) > tol or abs(trace.imag) > tol:
        bad.append("trace")
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    if w[0] < -tol:
        bad.append("positivity")
    return bad


def check_density(m: np.ndarray, *, dim: int | None = None) -> np.ndarray:
    """Validate ``m`` as a density matrix, raising ``DensityMatrixError`` on failure."""
    bad = density_violations(m, dim=dim)
    if bad:
        raise DensityMatrixError(bad)
    return np.asarray(m, dtype=complex)


def random_density(seed: int, index: int) -> np.ndarray:
    """Seeded random 4x4 density matrix R = T T^dag / Tr{T T^dag}.

    T has entries t_r + i*t_i with both parts uniform on [0, 1], drawn from a
    Philox stream keyed by (seed, index): same pair, same matrix, on any
    platform.  Normalization makes the result Hermitian, unit-trace, and
    positive semidefinite by construction.
    """
    return _draw_density(_rng(seed, index))


def _draw_density(rng: np.random.Generator) -> np.ndarray:
    while True:
        u = rng.random(32)
        t = (u[:16] + 1j * u[16:]).reshape(4, 4)
        g = t @ t.conj().T
        tr = np.trace(g).real
        if tr >= 1e-30:  # zero trace has measure zero; redraw just in case
            return g / tr


def werner(p: float) -> np.ndarray:
    """Werner state p|Phi1><Phi1| + (1-p) I/4."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRangeError(f"p={p} outside [0, 1]")
    return p * np.outer(PHI1, PHI1.conj()) + (1.0 - p) * np.eye(4) / 4.0


def lower_family(epsilon: float, theta: float) -> np.ndarray:
    """Mixed-with-identity Schmidt state eps*I/4 + (1-eps)|psi><psi|.

    |psi> = cos(theta/2)|00> + sin(theta/2)|11>.  This family saturates the
    lower concurrence bound: E = C = max{0, (1-eps)sin(theta) - eps/2}.  All
    reported measures are invariant under local unitaries, so the Schmidt form
    is used directly.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise OutOfRangeError(f"epsilon={epsilon} outside [0, 1]")
    if not 0.0 <= theta <= np.pi:
        raise OutOfRangeError(f"theta={theta} outside [0, pi]")
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.cos(theta / 2)
    psi[3] = np.sin(theta / 2)
    return epsilon * np.eye(4) / 4.0 + (1.0 - epsilon) * np.outer(psi, psi.conj())


def upper_family(zeta: float) -> np.ndarray:
    """Product-plus-Bell mixture zeta|01><01| + (1-zeta)|Phi1><Phi1|.

    Saturates the upper concurrence bound where E is positive:
    C = 1 - zeta and E = max{0, 2C - 1}.
    """
    if not 0.0 <= zeta <= 1.0:
        raise OutOfRangeError(f"zeta={zeta} outside [0, 1]")
    rho = (1.0 - zeta) * np.outer(PHI1, PHI1.conj())
    rho[1, 1] += zeta  # |01><01| in the 2*bob + alice index convention
    return rho


def fig2_mixture(seed: int, index: int) -> tuple[np.ndarray, tuple[float, float]]:
    """Scatter-campaign sampler: w * R + (1-w) * upper_family(zeta).

    R is exactly ``random_density(seed, index)`` (same stream prefix), then
    zeta ~ U[0,1] and w ~ U[0, 0.5] are drawn from the continuation of that
    stream.  Returns the state and its (w, zeta) parameters.  Raw draws
    cluster at low concurrence; giving the majority weight to the
    boundary-family component is what spreads the sample across the whole
    allowed wedge, up to concurrence near 1, and raises the sample mean.
    """
    rng = _rng(seed, index)
    r = _draw_density(rng)
    zeta = float(rng.random())
    w = float(rng.random()) * 0.5
    return w * r + (1.0 - w) * upper_family(zeta), (w, zeta)


def save_density_json(rho: np.ndarray, path: str) -> None:
    """Write a density matrix as {"dim": n, "re": [[..]], "im": [[..]]}."""
    rho = np.asarray(rho, dtype=complex)
    doc = {
        "dim": rho.shape[0],
        "re": rho.real.tolist(),
        "im": rho.imag.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _number_rows(rows, dim: int) -> np.ndarray:
    """``rows`` as a float array, if it is a dim x dim list of JSON numbers."""
    if not (
        isinstance(rows, list)
        and len(rows) == dim
        and all(isinstance(row, list) and len(row) == dim for row in rows)
    ):
        raise ValueError(f"re/im must both be {dim}x{dim} arrays")
    # bool is an int subclass, and numpy would read the string "0.25" as 0.25
    if not all(type(x) in (int, float) for row in rows for x in row):
        raise ValueError("re/im entries must be JSON numbers")
    try:
        return np.array(rows, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"re/im entries must lie in float range: {exc}") from exc


def load_density_json(path: str) -> np.ndarray:
    """Read and validate a density matrix from the JSON file format.

    Raises ``ValueError`` (or ``json.JSONDecodeError``) on malformed input and
    ``DensityMatrixError``, with the failed invariants, on a well-formed matrix
    that is not a valid state.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError as exc:
            raise ValueError("JSON nested too deeply") from exc
    if not isinstance(doc, dict) or not {"dim", "re", "im"} <= set(doc):
        raise ValueError("expected an object with keys dim, re, im")
    dim = doc["dim"]
    if type(dim) is not int or dim < 2:
        raise ValueError(f"bad dim {dim!r}")
    m = _number_rows(doc["re"], dim) + 1j * _number_rows(doc["im"], dim)
    bad = density_violations(m, dim=dim)
    if bad:
        raise DensityMatrixError(bad, detail=path)
    return m
