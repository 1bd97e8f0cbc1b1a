"""Fuzz the analyze input: generated JSON documents through ``cli.main``.

The grammar mixes ragged arrays, strings, bools, nulls, huge integers, NaN
and Infinity tokens, truncated text and states perturbed at the density
tolerance.  Whatever the document, analyze exits 0, 2 or 3, never 4, and
raises nothing; it exits 0 exactly when the document spells a 4x4 matrix
of JSON numbers that ``density_violations(m, dim=4)`` accepts.
"""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entfrac import cli
from entfrac.states import PHI1, density_violations

FUZZ = settings(derandomize=True, deadline=None, max_examples=300)

# the density check's tolerance on each invariant
TOL = 1e-10

scalars = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.sampled_from([10**400, -(10**400)]),
    st.booleans(),
    st.none(),
    st.sampled_from(["0.25", "NaN", "", "x"]),
)
ragged = st.lists(
    st.one_of(st.lists(scalars, max_size=5), scalars), max_size=5
)


@st.composite
def square(draw, entries):
    n = draw(st.sampled_from([2, 3, 4, 4, 4]))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


@st.composite
def edge_state(draw):
    """A 4x4 state pushed toward or past one density tolerance."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16))
    kets = (np.array(parts[:8]) + 1j * np.array(parts[8:])).reshape(2, 4)
    kets = np.vstack([kets, PHI1])
    p = np.array([1.0, 0.5, 1.0])
    rho = sum(w * np.outer(k, k.conj()) for w, k in zip(p, kets))
    rho = rho / np.trace(rho).real
    scale = draw(st.sampled_from([0.0, 0.5, 0.99, 1.01, 2.0])) * TOL
    kind = draw(st.sampled_from(["trace", "positivity", "hermiticity"]))
    if kind == "trace":
        rho = rho * (1.0 + scale)
    elif kind == "positivity":
        low = np.linalg.eigh(rho)[1][:, 0]
        rho = rho - (np.linalg.eigvalsh(rho)[0] + scale) * np.outer(low, low.conj())
    else:
        rho = rho.copy()
        rho[0, 1] += scale
    return {"dim": 4, "re": rho.real.tolist(), "im": rho.imag.tolist()}


numbers = st.one_of(st.floats(-1.0, 1.0), st.integers(-1, 1))
documents = st.one_of(
    edge_state(),
    st.fixed_dictionaries({
        "dim": st.one_of(st.just(4), st.integers(-2, 5), scalars),
        "re": st.one_of(square(numbers), square(scalars), ragged),
        "im": st.one_of(square(numbers), square(scalars), ragged),
    }),
    st.dictionaries(st.sampled_from(["dim", "re", "im", "extra"]), scalars, max_size=4),
    ragged,
    scalars,
)


@st.composite
def texts(draw):
    text = json.dumps(draw(documents))  # writes NaN and Infinity tokens
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def spelled_matrix(text):
    """The 4x4 matrix ``text`` spells as JSON numbers, or None."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):
        return None
    if not isinstance(doc, dict) or doc.get("dim") != 4 or type(doc["dim"]) is not int:
        return None
    parts = []
    for key in ("re", "im"):
        rows = doc.get(key)
        if not (isinstance(rows, list) and len(rows) == 4):
            return None
        if not all(isinstance(r, list) and len(r) == 4 for r in rows):
            return None
        if not all(type(x) in (int, float) for r in rows for x in r):
            return None
        try:
            parts.append(np.array(rows, dtype=float))
        except OverflowError:  # an integer beyond float range
            return None
    return parts[0] + 1j * parts[1]


def _deep(depth):
    return '{"dim": 4, "re": ' + "[" * depth + "]" * depth + ', "im": []}'


@FUZZ
@given(texts())
@example(_deep(100_000))
@example(json.dumps({"dim": 4, "re": [["0.25", 0, 0, 0]] * 4, "im": [[0] * 4] * 4}))
@example(json.dumps({"dim": True, "re": [[1]], "im": [[0]]}))
@example('{"dim": 4, "re": [[NaN, 0, 0, 0]], "im": [[Infinity]]}')
def test_analyze_exit_code_contract(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz_state.json"
    path.write_text(text, encoding="utf-8")
    rc = cli.main(["--command", "analyze", "--in", str(path), "--out", str(path) + ".out"])
    assert rc in (0, 2, 3)
    m = spelled_matrix(text)
    assert (rc == 0) == (m is not None and density_violations(m, dim=4) == [])
