"""Seeded Monte Carlo campaigns over two-qubit state families.

Each row is computed independently from (seed, index), so a campaign can be
partitioned across workers in contiguous index chunks and still produce
byte-identical output for any worker count.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .applications import bell_canonical, bell_max
from .concurrence import concurrence, window_ok
from .errors import OutOfRangeError
from .fef import fully_entangled_fraction
from .optimize import SearchBudget
from .states import _rng, fig2_mixture, lower_family, random_density, upper_family, werner

FAMILIES = ("raw", "fig2", "werner", "lower", "upper")

CSV_COLUMNS = (
    "index,family,param1,param2,F,E,C,F_T_max,"
    "B_canonical,B_max_angles,lower_ok,upper_ok"
)

# family parameters draw from their own stream so adding a family never
# shifts the density or unitary draws
_STREAM_FAMILY = 2

# campaign default: the detector-angle search lands on the analytic optimum
# long before the full analysis budget is spent
SAMPLER_BUDGET = dataclasses.replace(SearchBudget(), starts=2, maxiter=60)


@dataclasses.dataclass(frozen=True)
class SampleRecord:
    index: int
    family: str
    param1: float | None
    param2: float | None
    f: float
    e: float
    c: float
    f_t_max: float
    b_canonical: float
    b_max_angles: float
    lower_ok: bool
    upper_ok: bool


def _draw_state(family, seed, index):
    """One (state, param1, param2) draw for a campaign row."""
    if family == "raw":
        return random_density(seed, index), None, None
    if family == "fig2":
        rho, (w, zeta) = fig2_mixture(seed, index)
        return rho, w, zeta
    rng = _rng(seed, index, _STREAM_FAMILY)
    if family == "werner":
        p = rng.random()
        return werner(p), p, None
    if family == "lower":
        epsilon = rng.random()
        theta = rng.random() * (np.pi / 2.0)
        return lower_family(epsilon, theta), epsilon, theta
    if family == "upper":
        zeta = rng.random()
        return upper_family(zeta), zeta, None
    raise OutOfRangeError(f"unknown family {family!r}, expected one of {FAMILIES}")


def sample_record(family: str, seed: int, index: int, budget: SearchBudget | None = None) -> SampleRecord:
    """Compute the full row for one campaign index."""
    if budget is None:
        budget = SAMPLER_BUDGET
    rho, p1, p2 = _draw_state(family, seed, index)
    fef = fully_entangled_fraction(rho)
    c = concurrence(rho).c
    lower_ok, upper_ok = window_ok(fef.e, c)
    return SampleRecord(
        index=index,
        family=family,
        param1=p1,
        param2=p2,
        f=fef.f,
        e=fef.e,
        c=c,
        f_t_max=(1.0 + 2.0 * fef.f) / 3.0,
        b_canonical=bell_canonical(rho),
        b_max_angles=bell_max(rho, mode="angles", budget=budget),
        lower_ok=lower_ok,
        upper_ok=upper_ok,
    )


def _chunk_records(args):
    family, seed, start, stop, budget = args
    return [sample_record(family, seed, i, budget) for i in range(start, stop)]


def run_campaign(
    count: int,
    seed: int = 0,
    family: str = "raw",
    workers: int = 1,
    budget: SearchBudget | None = None,
) -> list[SampleRecord]:
    """count rows of family draws, index-ordered, worker-count independent."""
    if count < 1:
        raise OutOfRangeError(f"count must be >= 1, got {count}")
    if family not in FAMILIES:
        raise OutOfRangeError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if workers < 1:
        raise OutOfRangeError(f"workers must be >= 1, got {workers}")
    if budget is None:
        budget = SAMPLER_BUDGET
    workers = min(workers, count, os.cpu_count() or 1)
    if workers == 1:
        return _chunk_records((family, seed, 0, count, budget))
    edges = [count * k // workers for k in range(workers + 1)]
    chunks = [
        (family, seed, edges[k], edges[k + 1], budget)
        for k in range(workers)
        if edges[k] < edges[k + 1]
    ]
    records = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_chunk_records, chunks):
            records.extend(part)
    return records


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return f"{value:.12g}"


def record_row(rec: SampleRecord) -> str:
    fields = (
        str(rec.index),
        rec.family,
        _fmt(rec.param1),
        _fmt(rec.param2),
        _fmt(rec.f),
        _fmt(rec.e),
        _fmt(rec.c),
        _fmt(rec.f_t_max),
        _fmt(rec.b_canonical),
        _fmt(rec.b_max_angles),
        _fmt(rec.lower_ok),
        _fmt(rec.upper_ok),
    )
    return ",".join(fields)


def records_csv(records) -> str:
    """Full CSV document: header row, LF endings, trailing newline."""
    lines = [CSV_COLUMNS]
    lines.extend(record_row(r) for r in records)
    return "\n".join(lines) + "\n"


def records_json(records) -> list[dict]:
    out = []
    for r in records:
        d = dataclasses.asdict(r)
        d["lower_ok"] = bool(r.lower_ok)
        d["upper_ok"] = bool(r.upper_ok)
        out.append(d)
    return out


def first_bound_violation(records):
    """First record breaking the concurrence window, or None."""
    for r in records:
        if not (r.lower_ok and r.upper_ok):
            return r
    return None


def bound_lines_csv(points: int = 101) -> str:
    """The two boundary lines of the E-C window, tabulated for plotting.

    At fixed E the window is E <= C <= (E+1)/2, so the columns give the
    saturating families C = E and C = (E+1)/2 on a uniform E grid.
    """
    if points < 2:
        raise OutOfRangeError(f"need at least 2 points, got {points}")
    lines = ["E,C_min,C_max"]
    for k in range(points):
        e = k / (points - 1)
        lines.append(f"{_fmt(e)},{_fmt(e)},{_fmt((e + 1.0) / 2.0)}")
    return "\n".join(lines) + "\n"
