# Minimal derivative-free minimizer used by the numeric search routines.
#
# A dependency-light Nelder-Mead keeps per-call overhead low; the campaigns
# call it hundreds of thousands of times on 3..6 parameter objectives.

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import add, sub

import numpy as np


@dataclass(frozen=True)
class SearchBudget:
    """Effort knobs shared by all numeric maximizers.

    ``starts`` and ``maxiter`` drive the multi-start simplex searches (the
    CHSH maxima and the fiducial gap) and the polar-factor ascent of
    ``ddim.fef_numeric_d``; ``seed`` fixes the start-point stream so results
    are reproducible.
    """

    starts: int = 8
    maxiter: int = 150
    seed: int = 0

    @classmethod
    def from_level(cls, level: int) -> "SearchBudget":
        """Preset ladder for the command line: 1 lean, 2 default, 3 thorough."""
        if level <= 1:
            return cls(starts=4, maxiter=80)
        if level == 2:
            return cls()
        return cls(starts=16, maxiter=300)


def nelder_mead(f, x0, *, step: float = 0.5, maxiter: int = 200):
    """Minimize ``f`` from ``x0`` with the Nelder-Mead simplex method.

    Returns ``(x_best, f_best)``.  Fully deterministic: the initial simplex is
    ``x0`` plus ``step`` along each coordinate, and ties are broken by stable
    sorting.  Convergence is declared when the simplex collapses below 1e-8
    in every coordinate and the function spread falls below 1e-10; hitting
    ``maxiter`` returns the best point seen so far.
    """
    # The simplex is kept as lists of Python floats: on 1 to 6 parameters,
    # numpy's per-call overhead would cost more than the arithmetic.  Each
    # update below is the same float operation, in the same order, as the
    # array form (the centroid sums the vertices in order, then divides), and
    # re-inserting the one replaced vertex by bisection orders the simplex as
    # a stable sort would.
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    base = x0.tolist()
    simplex = [base]
    for i in range(n):
        vertex = list(base)
        vertex[i] += step
        simplex.append(vertex)
    fvals = [float(f(np.array(p))) for p in simplex]
    order = sorted(range(n + 1), key=fvals.__getitem__)
    simplex = [simplex[k] for k in order]
    fvals = [fvals[k] for k in order]

    for _ in range(maxiter):
        best_x = simplex[0]
        if fvals[-1] - fvals[0] <= 1e-10 and all(
            abs(a - b) <= 1e-8 for p in simplex[1:] for a, b in zip(p, best_x)
        ):
            break
        worst = simplex.pop()
        fworst = fvals.pop()
        centroid = [reduce(add, column) / n for column in zip(*simplex)]
        away = list(map(sub, centroid, worst))
        # Reflection.
        xr = list(map(add, centroid, away))
        fr = float(f(np.array(xr)))
        if fr < fvals[0]:
            # Expansion.
            xe = [c + 2.0 * a for c, a in zip(centroid, away)]
            fe = float(f(np.array(xe)))
            new, fnew = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fvals[-1]:
            new, fnew = xr, fr
        else:
            # Contraction (outside or inside).
            if fr < fworst:
                xc = [c + 0.5 * a for c, a in zip(centroid, away)]
            else:
                xc = [c - 0.5 * a for c, a in zip(centroid, away)]
            fc = float(f(np.array(xc)))
            if fc < min(fr, fworst):
                new, fnew = xc, fc
            else:
                # Shrink toward the best vertex.
                simplex.append(worst)
                simplex[1:] = [
                    [b + 0.5 * (a - b) for a, b in zip(p, best_x)] for p in simplex[1:]
                ]
                fvals[1:] = [float(f(np.array(p))) for p in simplex[1:]]
                order = sorted(range(n + 1), key=fvals.__getitem__)
                simplex = [simplex[k] for k in order]
                fvals = [fvals[k] for k in order]
                continue
        k = bisect_right(fvals, fnew)
        simplex.insert(k, new)
        fvals.insert(k, fnew)

    return np.array(simplex[0]), fvals[0]


def start_points(fixed, count: int, seed: int, low: float = 0.0, high: float = 2 * np.pi):
    """The ``fixed`` starts, then uniform draws on ``[low, high)`` from
    ``default_rng(seed)`` until there are ``count`` starts."""
    starts = [np.asarray(x0, dtype=float) for x0 in fixed]
    rng = np.random.default_rng(seed)
    while len(starts) < count:
        starts.append(rng.uniform(low, high, starts[0].size))
    return starts


def multistart_max(neg, starts, *, step: float = 0.5, maxiter: int) -> float:
    """Largest ``-neg`` reached by a simplex run of ``neg`` from each start."""
    return max(-nelder_mead(neg, x0, step=step, maxiter=maxiter)[1] for x0 in starts)
