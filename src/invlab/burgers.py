"""Exact solution machinery for the inviscid Burgers equation on the axis.

In the symmetric class the scalar restricted to the x2 = 0 axis obeys
d(theta)/dt + theta d(theta)/dx1 = 0, whose implicit solution
theta = g(x - t*theta) is evaluated here by characteristics, together
with the first-crossing blowup time -1/min(g').  Extrema are found by a
dense scan whose best cell is rescanned, 16-fold narrower each round; on
a periodic profile the cell of a best node at either end of the scan wraps
across the seam.

The min-slope series scans characteristic labels xi, not positions x:
for t < t* the map xi -> xi + t*g(xi) is a strictly increasing bijection
of the period (its derivative 1 + t*g'(xi) >= 1 - t/t* > 0), so the
minimum over x of the slope equals the minimum over xi of
g'(xi)/(1 + t*g'(xi)), and no implicit equation is solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

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
    """Closed-form axis trace g of period 2 pi with its exact derivative dg.

    g and dg must accept numpy arrays (plain ufunc expressions do).
    """

    g: Callable[[np.ndarray], np.ndarray]
    dg: Callable[[np.ndarray], np.ndarray]


def _sample(fn: Callable, xs: np.ndarray) -> np.ndarray:
    vals = np.asarray(fn(xs), dtype=float)
    if vals.shape != xs.shape:  # constant profiles may ignore the argument
        vals = np.broadcast_to(vals, xs.shape).copy()
    return vals


def _refine_minimum(
    fn: Callable[[np.ndarray], np.ndarray], xs: np.ndarray, period: float | None = None
) -> float:
    """Minimum of fn: scan the nodes xs, then rescan the best node's cell.

    fn is evaluated on whole arrays, once for the scan and once per
    round.  A round whose samples are all equal ends the refinement, so a
    constant function costs the scan alone.  Given the period of fn, the
    scan's nodes must cover one period, and the cell of a best node at
    either end reaches across the seam; otherwise it stops at the end.
    """
    best = math.inf
    for _ in range(REFINE_ROUNDS + 1):
        values = _sample(fn, xs)
        i = int(np.argmin(values))
        best = min(best, float(values[i]))
        if values[i] == np.max(values):
            break
        last = len(xs) - 1
        lo = xs[i - 1] if i > 0 else (xs[last] - period if period else xs[0])
        hi = xs[i + 1] if i < last else (xs[0] + period if period else xs[last])
        # np.linspace(lo, hi, REFINE_POINTS) bit for bit, without its overhead
        xs = _REFINE_NODES * ((hi - lo) / (REFINE_POINTS - 1)) + lo
        xs[-1] = hi
        period = None  # a refined cell lies inside the scan
    return best


def _periodic_minimum(fn: Callable[[np.ndarray], np.ndarray]) -> float:
    """Minimum of a function of period 2 pi, scanned over [0, 2 pi)."""
    xs = np.linspace(0.0, TWO_PI, SCAN_POINTS, endpoint=False)
    return _refine_minimum(fn, xs, TWO_PI)


def blowup_time(p: AxisProfile) -> float:
    """First characteristic-crossing time -1/min(dg); +inf when min(dg) >= 0.

    The minimum is located by a 4096-point scan over one period followed
    by rescans of the bracketing cell.
    """
    min_dg = _periodic_minimum(p.dg)
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
        g = self.profile.g
        gmin = _periodic_minimum(g)
        gmax = -_periodic_minimum(lambda x: -_sample(g, x))
        object.__setattr__(self, "_gmin", gmin)
        object.__setattr__(self, "_gmax", gmax)


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
    g = sol.profile.g
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
    labels xi of dg(xi)/(1 + t*dg(xi)), with no characteristic solve."""
    times = np.asarray(times, dtype=float)
    dg = sol.profile.dg
    values = []
    for t in times:
        t = float(t)
        _check_time(sol, t)

        def label_slope(xi: np.ndarray) -> np.ndarray:
            s = _sample(dg, xi)
            return s / (1.0 + t * s)

        values.append(_periodic_minimum(label_slope))
    return TimeSeries(times, np.asarray(values))
