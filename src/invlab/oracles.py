"""Closed-form space-time solution families with exact partial derivatives.

Every family but the stationary one is carried by the flow u2 = -x2: with
s = e^t x2 it is one CarriedSolution,

  theta = theta0(s),  omega = omega0(s) - (e^t - 1) q(s)  (q absent: 0),

and adds only what is its own:

  moving domain   psi = e^{-2t} W(s) - x1 x2 and u1 = x1 - e^{-t} W'(s), with
                  W(s) = int_0^s (s - y) omega0(y) dy the profile's second
                  primitive, so that Laplacian psi = W''(s) = omega0(s)
  wedge           the moving domain of omega0 = sign: psi = +-x2^2/2 - x1 x2
  modified        q = (rho0^2)' = 2 rho0 rho0' and no u1

Along u2 = -x2 each t-partial is x2 times the x2-partial, plus the
vorticity's explicit source -e^t q(s); the x1-partials vanish.  So for a
carried family the theta residual and the Boussinesq omega residual of
diagnostics.residual are x2 df/dx2 - x2 df/dx2 = 0 whatever psi and u1
are, and the modified omega residual is e^t ((theta0^2)' - q)(s), zero
for the modified family's q.

Each profile theta0, omega0, rho0 and q is a burgers.AxisProfile.
Formulas are piecewise across x2 = 0; evaluation at x2 = 0 uses the
x2 >= 0 branch.  All evaluators take arrays of points.

FAMILIES holds the presets that `invlab oracle-check` runs; a solver run
never imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .burgers import AxisProfile, _refine_minima
from .diagnostics import TimeSeries
from .dynamics import ModelKind

__all__ = [
    "OracleSample",
    "CarriedSolution",
    "WedgeSolution",
    "MovingDomainSolution",
    "ModifiedSolution",
    "UniformScalarSolution",
    "growth_envelope",
    "PROFILES",
    "FAMILIES",
]


def _sign(s):
    """+-1 with the x2 >= 0 branch at 0, where np.sign would give 0."""
    return np.where(s >= 0, 1.0, -1.0)


PROFILES = {
    "identity": AxisProfile(lambda s: s * 1.0, lambda s: np.ones_like(np.asarray(s, dtype=float)),
                            lambda s: np.zeros_like(np.asarray(s, dtype=float)),
                            dW=lambda s: s * s / 2.0, W=lambda s: s * s * s / 6.0, name="identity"),
    "sin": AxisProfile(np.sin, np.cos, lambda s: -np.sin(s),
                       dW=lambda s: 1.0 - np.cos(s), W=lambda s: s - np.sin(s), name="sin"),
    "sign": AxisProfile(_sign, lambda s: np.zeros_like(np.asarray(s, dtype=float)),
                        dW=np.abs, W=lambda s: s * np.abs(s) / 2.0, name="sign"),
}


@dataclass
class OracleSample:
    """Field values and first partials at an array of space-time points.

    Every entry has the broadcast shape of the sample coordinates (0-d for
    a single point).  Entries a family does not define are None; the
    residual checker rejects evaluations that would need them.
    """

    theta: np.ndarray
    u2: np.ndarray
    dtheta_dt: np.ndarray
    dtheta_dx1: np.ndarray
    dtheta_dx2: np.ndarray
    u1: Optional[np.ndarray] = None
    psi: Optional[np.ndarray] = None
    omega: Optional[np.ndarray] = None
    domega_dt: Optional[np.ndarray] = None
    domega_dx1: Optional[np.ndarray] = None
    domega_dx2: Optional[np.ndarray] = None


def _coords(x1, x2, t):
    """Sample coordinates as float arrays of one broadcast shape."""
    return np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x1, x2, t)))


@dataclass(frozen=True)
class CarriedSolution:
    """theta = theta0(s) and omega = omega0(s) - (e^t - 1) q(s), s = e^t x2, with u2 = -x2.

    velocity(x1, x2, t) gives (u1, psi); without it samples carry neither.
    """

    theta0: AxisProfile
    omega0: AxisProfile
    q: Optional[AxisProfile] = None
    velocity: Optional[Callable] = None

    def dtheta_dx2(self, x2, t):
        et = np.exp(t)
        return et * self.theta0.df(et * np.asarray(x2, dtype=float))

    def domega_dx2(self, x2, t):
        et = np.exp(t)
        s = et * np.asarray(x2, dtype=float)
        if self.q is None:
            return et * self.omega0.df(s)
        return et * (self.omega0.df(s) - (et - 1.0) * self.q.df(s))

    def sample(self, x1, x2, t) -> OracleSample:
        x1, x2, t = _coords(x1, x2, t)
        et = np.exp(t)
        s = et * x2
        zero = np.zeros_like(x2)
        dtheta, domega = self.dtheta_dx2(x2, t), self.domega_dx2(x2, t)
        omega, domega_dt = self.omega0.f(s), x2 * domega
        if self.q is not None:
            q = self.q.f(s)
            # the explicit e^t of the factor (e^t - 1) gives d omega/dt its source -e^t q
            omega, domega_dt = omega - (et - 1.0) * q, domega_dt - et * q
        u1, psi = self.velocity(x1, x2, t) if self.velocity else (None, None)
        return OracleSample(
            theta=self.theta0.f(s), u2=-x2, dtheta_dt=x2 * dtheta, dtheta_dx1=zero, dtheta_dx2=dtheta,
            u1=u1, psi=psi, omega=omega, domega_dt=domega_dt, domega_dx1=zero, domega_dx2=domega,
        )


def MovingDomainSolution(omega0: AxisProfile, theta0: AxisProfile) -> CarriedSolution:
    """Smooth fields in the moving domain of the vorticity omega0(e^t x2).

    omega = omega0(s), theta = theta0(s), u2 = -x2 with s = e^t x2, and
    psi = e^{-2t} W(s) - x1 x2, u1 = x1 - e^{-t} W'(s) with W the second
    primitive of omega0 from 0, on both sides of the axis.  omega0 must
    carry W and dW.
    """
    if omega0.W is None or omega0.dW is None:
        raise ValueError(f"profile {omega0.name or 'anonymous'} needs W and dW for the moving-domain family")

    def velocity(x1, x2, t):
        et = np.exp(t)
        s = et * x2
        return x1 - omega0.dW(s) / et, omega0.W(s) / (et * et) - x1 * x2

    return CarriedSolution(theta0, omega0, velocity=velocity)


def WedgeSolution(theta0: AxisProfile) -> CarriedSolution:
    """Fields on the wedge between x2 = 2 x1 and x2 = -2 x1: the moving domain of omega0 = sign.

    psi = +-x2^2/2 - x1 x2, u1 = -+x2 + x1, u2 = -x2, omega = +-1,
    theta = theta0(e^t x2) with theta0 odd.
    """
    return MovingDomainSolution(PROFILES["sign"], theta0)


def ModifiedSolution(rho0: AxisProfile, omega0: AxisProfile) -> CarriedSolution:
    """x1-independent family of the quadratic-forcing vorticity system.

    rho = rho0(e^t x2), u2 = -x2 and omega = omega0(e^t x2) - (e^t - 1) q(e^t x2)
    with q = (rho0^2)' = 2 rho0 rho0', so q' = 2 (rho0'^2 + rho0 rho0'') needs
    rho0.d2f.  The reduced system never references u1, so samples carry none.
    """
    if rho0.d2f is None:
        raise ValueError(f"profile {rho0.name or 'anonymous'} needs d2f for the modified family")
    q = AxisProfile(
        lambda s: 2.0 * rho0.f(s) * rho0.df(s), lambda s: 2.0 * (rho0.df(s) ** 2 + rho0.f(s) * rho0.d2f(s))
    )
    return CarriedSolution(rho0, omega0, q)


@dataclass(frozen=True)
class UniformScalarSolution:
    """Stationary check for the scalar model: theta = c, u = (c, 0)."""

    c: float = 1.0

    def dtheta_dx2(self, x2, t):
        return np.zeros_like(np.asarray(x2, dtype=float))

    def sample(self, x1, x2, t) -> OracleSample:
        x1, x2, t = _coords(x1, x2, t)
        c = np.full_like(x2, self.c)
        zero = np.zeros_like(x2)
        return OracleSample(
            theta=c, u2=zero, dtheta_dt=zero, dtheta_dx1=zero, dtheta_dx2=zero, u1=c, psi=-self.c * x2
        )


def growth_envelope(solution, interval: tuple[float, float], times, field: str = "theta") -> TimeSeries:
    """Sup over the x2 interval of |d(field)/dx2| at each time.

    field selects 'theta' or 'omega'; exact partials are sampled on 4097
    nodes per time and the best node's cell is rescanned, each round one
    call on the cells of every time still refining (burgers._refine_minima),
    so each time's sup is what it would be alone.
    """
    if field == "theta":
        deriv = solution.dtheta_dx2
    elif field == "omega":
        deriv = solution.domega_dx2
    else:
        raise ValueError(f"field must be 'theta' or 'omega', got {field!r}")
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise ValueError("interval must have positive length")
    xs = np.linspace(lo, hi, 4097)
    times = np.asarray(times, dtype=float)
    return TimeSeries(times, -_refine_minima(lambda x, t: -np.abs(deriv(x, t)), xs, times))


# the published oscillatory pairing: theta0 = q = sin 2s, omega0 = sign; its q is
# not (theta0^2)' = 2 sin 4s, so the residual checker fails it
_SIN2 = AxisProfile(lambda s: np.sin(2.0 * s), lambda s: 2.0 * np.cos(2.0 * s), name="sin2")

# family -> (model checked against, default envelope interval, {preset: solution});
# the first preset is the family's default
FAMILIES = {
    "wedge": (ModelKind.BOUSSINESQ, (-math.pi, math.pi), {"sin": WedgeSolution(PROFILES["sin"])}),
    "moving-domain": (
        ModelKind.BOUSSINESQ,
        (-math.pi, math.pi),
        {"identity": MovingDomainSolution(PROFILES["identity"], PROFILES["identity"])},
    ),
    "modified": (
        ModelKind.MODIFIED_BOUSSINESQ,
        (0.0, 1.0),
        {
            "linear": ModifiedSolution(PROFILES["identity"], PROFILES["sign"]),
            "oscillatory": ModifiedSolution(PROFILES["sin"], PROFILES["sign"]),
            "paper-printed": CarriedSolution(_SIN2, PROFILES["sign"], q=_SIN2),
        },
    ),
    "stationary": (ModelKind.SINGULAR_SCALAR, (-math.pi, math.pi), {"const": UniformScalarSolution(1.0)}),
}
