"""Measurement layer: norms, residuals, symmetry errors, growth and blowup fits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dynamics import ModelKind, State
from .spectral import Field

__all__ = [
    "TimeSeries",
    "GrowthFit",
    "BlowupEstimate",
    "min_axis_slope",
    "fit_growth_rate",
    "extrapolate_blowup",
    "residual",
    "symmetry_error",
    "l2_norm",
]


@dataclass
class TimeSeries:
    """Samples (t, v) with strictly increasing t and finite values."""

    t: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.t.shape != self.v.shape or self.t.ndim != 1:
            raise ValueError("t and v must be matching one-dimensional arrays")
        if len(self.t) and np.any(np.diff(self.t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if not np.all(np.isfinite(self.t)) or not np.all(np.isfinite(self.v)):
            raise ValueError("time series samples must be finite")

    def window(self, t_lo: float, t_hi: float) -> "TimeSeries":
        mask = (self.t >= t_lo) & (self.t <= t_hi)
        return TimeSeries(self.t[mask], self.v[mask])


@dataclass
class GrowthFit:
    rate: float
    intercept: float
    r2: float
    window: tuple[float, float]


@dataclass
class BlowupEstimate:
    t_est: float  # may be +inf
    r2: float
    window: tuple[float, float]
    warning: Optional[str] = None


def _linefit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y ~ a + b*x; returns (b, a, r2)."""
    coeffs = np.polyfit(x, y, 1)
    b, a = float(coeffs[0]), float(coeffs[1])
    pred = a + b * x
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return b, a, min(max(r2, 0.0), 1.0)


def fit_growth_rate(series: TimeSeries, window: Optional[tuple[float, float]] = None) -> GrowthFit:
    """Exponential rate from a least-squares line through (t, log v).

    The default window is the last half of the series (early transients
    pollute the rate).  Nonpositive values inside the window are rejected.
    """
    if window is None:
        mid = 0.5 * (series.t[0] + series.t[-1])
        window = (float(mid), float(series.t[-1]))
    sub = series.window(*window)
    if len(sub.t) < 5:
        raise ValueError(f"need at least 5 samples in the window, got {len(sub.t)}")
    if np.any(sub.v <= 0):
        raise ValueError("window contains nonpositive values; log growth undefined")
    rate, intercept, r2 = _linefit(sub.t, np.log(sub.v))
    return GrowthFit(rate, intercept, r2, window)


def extrapolate_blowup(series: TimeSeries, window: Optional[tuple[float, float]] = None) -> BlowupEstimate:
    """Blowup time from a least-squares line through (t, 1/v).

    The reciprocal of the axis min-slope magnitude is affine in t, so its
    root estimates the singularity time; a nonnegative fitted slope means
    no blowup (+inf).  A non-monotone window attaches a low-confidence
    warning instead of failing.
    """
    if window is None:
        window = (float(series.t[0]), float(series.t[-1]))
    sub = series.window(*window)
    if len(sub.t) < 2:
        raise ValueError(f"need at least 2 samples in the window, got {len(sub.t)}")
    if np.any(sub.v == 0):
        raise ValueError("window contains zero values; reciprocal undefined")
    warning = None
    if np.any(np.diff(sub.v) <= 0):
        warning = "series is not increasing over the window; low-confidence estimate"
    slope, intercept, r2 = _linefit(sub.t, 1.0 / sub.v)
    if slope >= 0:
        return BlowupEstimate(math.inf, r2, window, warning)
    return BlowupEstimate(-intercept / slope, r2, window, warning)


def min_axis_slope(state: State) -> float:
    """Min over the x2 = 0 row of the state's spectral d(theta)/dx1."""
    return float(np.min(state.kinematics.dtheta_dx1[:, 0]))


def _require(value, name: str):
    if value is None:
        raise ValueError(f"residual evaluation needs the partial '{name}' but the bundle lacks it")
    return value


def _transport_terms(sample, scalar: str) -> np.ndarray:
    dt = _require(getattr(sample, f"d{scalar}_dt"), f"d{scalar}_dt")
    dx1 = _require(getattr(sample, f"d{scalar}_dx1"), f"d{scalar}_dx1")
    dx2 = _require(getattr(sample, f"d{scalar}_dx2"), f"d{scalar}_dx2")
    u2 = _require(sample.u2, "u2")
    total = dt + u2 * dx2
    if np.any(dx1 != 0.0):
        total = total + _require(sample.u1, "u1") * dx1
    return total


def residual(sampler, model: ModelKind, points: Sequence[tuple[float, float, float]]):
    """Max absolute equation residuals over (x1, x2, t) points.

    The sampler provides field values and first partials at arrays of
    points (an oracle family, or any object with a compatible .sample
    method); it is called once, on the x1, x2 and t columns of the points.
    Returns (max theta residual, max omega residual or None).
    """
    sample_fn = getattr(sampler, "sample", sampler)
    coords = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(coords) == 0:
        raise ValueError("residual evaluation needs at least one point")
    s = sample_fn(*coords.T)
    max_theta = float(np.max(np.abs(_transport_terms(s, "theta"))))
    if model is ModelKind.SINGULAR_SCALAR:
        return max_theta, None
    lhs = _transport_terms(s, "omega")
    if model is ModelKind.BOUSSINESQ:
        rhs = _require(s.dtheta_dx1, "dtheta_dx1")
    else:
        rhs = -2.0 * _require(s.theta, "theta") * _require(s.dtheta_dx2, "dtheta_dx2")
    return max_theta, float(np.max(np.abs(lhs - rhs)))


def symmetry_error(f: Field, parity: str) -> float:
    """Max |f(x1, x2) -+ f(x1, -x2)| over nodes for parity 'even' or 'odd'."""
    reflected = np.roll(f.values[:, ::-1], 1, axis=1)
    if parity == "even":
        return float(np.max(np.abs(f.values - reflected)))
    if parity == "odd":
        return float(np.max(np.abs(f.values + reflected)))
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def l2_norm(f: Field) -> float:
    grid = f.grid
    return float(np.sqrt(np.sum(f.values**2) * grid.dx * grid.dy))
