"""Exact solution machinery for the inviscid Burgers equation on the axis.

In the symmetric class the scalar restricted to the x2 = 0 axis obeys
d(theta)/dt + theta d(theta)/dx1 = 0, whose implicit solution
theta = g(x - t*theta), g an AxisProfile, is evaluated here by
characteristics, with the first-crossing blowup time -1/min(g').
Extrema are found by a dense scan whose best cell is rescanned, 16-fold
narrower each round; on a periodic profile the cell of a best node at
either end of the scan wraps across the seam.  A family of times is refined together: one scan per
time, then each round one call on the cells of every time still refining.
Rows never mix, so each extremum is bit for bit what its time alone gives.

The min-slope series scans characteristic labels xi, not positions x:
for t < t* the map xi -> xi + t*g(xi) is a strictly increasing bijection
of the period (its derivative 1 + t*g'(xi) >= 1 - t/t* > 0), so the
minimum over x of the slope equals the minimum over xi of
g'(xi)/(1 + t*g'(xi)), and no implicit equation is solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .diagnostics import TimeSeries
from .spectral import TWO_PI

__all__ = [
    "AxisProfile",
    "BurgersSolution",
    "blowup_time",
    "evaluate_many",
    "min_slope_series",
]

SCAN_POINTS = 4096
# each round rescans the best cell (two spacings wide) on 33 nodes, so the
# cell shrinks 16-fold a round: 6 rounds take a 4096-point period to ~2e-10
REFINE_POINTS = 33
REFINE_ROUNDS = 6
_REFINE_NODES = np.arange(REFINE_POINTS, dtype=float)


@dataclass(frozen=True)
class AxisProfile:
    """Closed-form profile f of one coordinate with its exact derivative df.

    It is the axis trace g = f of period 2 pi here and every profile of the
    oracle families, which read the optional rest: d2f for the modified-
    family vorticity, W(s) = int_0^s (s - y) f(y) dy, the second primitive
    of f from 0, and dW for the moving-domain stream function.  Every
    function must accept numpy arrays (plain ufunc expressions do).
    """

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    d2f: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dW: Optional[Callable[[np.ndarray], np.ndarray]] = None
    W: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""


def _sample(fn: Callable, xs: np.ndarray, *args) -> np.ndarray:
    vals = np.asarray(fn(xs, *args), dtype=float)
    if vals.shape != xs.shape:  # constant profiles may ignore the argument
        vals = np.broadcast_to(vals, xs.shape).copy()
    return vals


def _refine_minima(
    fn: Callable[[np.ndarray, object], np.ndarray], xs: np.ndarray, params, period: float | None = None
) -> np.ndarray:
    """Minimum over x of fn(x, p) for each p in params.

    Each p has a scan of the nodes xs with p a scalar.  A round rescans
    the best cells of all R rows still refining in one call, on (R, 33)
    nodes with p an (R, 1) column.  A row whose samples are all equal
    leaves, so a constant function costs its scan alone.  Given the period
    of fn, xs must cover one period, and the cell of a best scan node at
    either end reaches across the seam; otherwise it stops at the end.
    """
    params = np.asarray(params, dtype=float)
    best = np.full(params.size, math.inf)
    rows, lo, hi = [], [], []
    last = len(xs) - 1
    for r, p in enumerate(params):
        values = _sample(fn, xs, float(p))
        i = int(np.argmin(values))
        best[r] = min(best[r], values[i])
        if values[i] != np.max(values):
            rows.append(r)
            lo.append(xs[i - 1] if i > 0 else (xs[last] - period if period else xs[0]))
            hi.append(xs[i + 1] if i < last else (xs[0] + period if period else xs[last]))
    rows, lo, hi = np.asarray(rows, dtype=int), np.asarray(lo), np.asarray(hi)
    for _ in range(REFINE_ROUNDS):
        if not rows.size:
            break
        # np.linspace(lo, hi, REFINE_POINTS) per row bit for bit, without its overhead
        nodes = _REFINE_NODES * ((hi - lo) / (REFINE_POINTS - 1))[:, None] + lo[:, None]
        nodes[:, -1] = hi
        values = _sample(fn, nodes, params[rows, None])
        i = np.argmin(values, axis=1)
        at = np.arange(rows.size)
        low = values[at, i]
        best[rows] = np.where(low < best[rows], low, best[rows])
        keep = low != np.max(values, axis=1)
        i, at = i[keep], at[keep]
        lo = nodes[at, np.maximum(i - 1, 0)]
        hi = nodes[at, np.minimum(i + 1, REFINE_POINTS - 1)]
        rows = rows[keep]
    return best


def _periodic_minimum(fn: Callable[[np.ndarray, object], np.ndarray], params=(0.0,)) -> np.ndarray:
    """Minimum over one period of fn(x, p) for each p, fn of period 2 pi in x, scanned over [0, 2 pi)."""
    xs = np.linspace(0.0, TWO_PI, SCAN_POINTS, endpoint=False)
    return _refine_minima(fn, xs, params, TWO_PI)


def blowup_time(p: AxisProfile) -> float:
    """First characteristic-crossing time -1/min(g'); +inf when min(g') >= 0."""
    min_dg = float(_periodic_minimum(lambda x, _: p.df(x))[0])
    if min_dg >= 0.0:
        return math.inf
    return -1.0 / min_dg


@dataclass(frozen=True)
class BurgersSolution:
    """An axis profile together with its blowup time and value range."""

    profile: AxisProfile
    tstar: float = field(init=False)
    _gmin: float = field(init=False, repr=False)
    _gmax: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tstar", blowup_time(self.profile))
        g = self.profile.f
        # min g and min(-g) as two rows of one refinement
        low, neg_high = _periodic_minimum(lambda x, s: s * _sample(g, x), (1.0, -1.0))
        object.__setattr__(self, "_gmin", float(low))
        object.__setattr__(self, "_gmax", -float(neg_high))


def _check_time(sol: BurgersSolution, t: float) -> None:
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if t >= sol.tstar:
        raise ValueError(
            f"t = {t:.6g} is at or past the blowup time {sol.tstar:.6g}; "
            "the solution is singular there"
        )


def _evaluate_array(sol: BurgersSolution, xs: np.ndarray, t: float) -> np.ndarray:
    """Root of theta - g(x - t*theta) per point, by bisection.

    The implicit function is strictly increasing in theta for t < tstar,
    so the bracket [min g, max g] always contains exactly one root.
    """
    g = sol.profile.f
    if t == 0.0:
        return _sample(g, xs)
    pad = 1e-9 * max(1.0, abs(sol._gmax), abs(sol._gmin))
    lo = np.full_like(xs, sol._gmin - pad)
    hi = np.full_like(xs, sol._gmax + pad)

    def implicit(theta: np.ndarray) -> np.ndarray:
        return theta - _sample(g, xs - t * theta)

    flo = implicit(lo)
    fhi = implicit(hi)
    if np.any(flo > 0) or np.any(fhi < 0):
        raise RuntimeError(
            "root bracket failure in the characteristic solve; "
            "profile bounds inconsistent with tstar"
        )
    # 60 halvings shrink the bracket below one ulp of the range of g
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = implicit(mid) <= 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def evaluate_many(sol: BurgersSolution, xs, t: float) -> np.ndarray:
    """Values theta(x, t) on the axis at an array of positions, exact by characteristics."""
    _check_time(sol, t)
    return _evaluate_array(sol, np.asarray(xs, dtype=float), t)


def min_slope_series(sol: BurgersSolution, times) -> TimeSeries:
    """Minimum over x of the slope at each time: a scan over characteristic
    labels xi of g'(xi)/(1 + t*g'(xi)), with no characteristic solve."""
    times = np.asarray(times, dtype=float)
    for t in times:
        _check_time(sol, float(t))
    dg = sol.profile.df

    def label_slope(xi: np.ndarray, t) -> np.ndarray:
        s = _sample(dg, xi)
        return s / (1.0 + t * s)

    return TimeSeries(times, _periodic_minimum(label_slope, times))
