"""Closed-form space-time solution families with exact partial derivatives.

Three families share the compressing velocity u2 = -x2 and the transported
profile structure f0(exp(t) x2):

  wedge           piecewise-constant vorticity, theta = theta0(e^t x2)
  moving domain   vorticity omega0(e^t x2) with stream coefficient sigma
                  reconstructed from d2/dx2^2 (sigma x2^2) = 2 omega0(e^t x2)
  modified        x1-independent pair rho = rho0(e^t x2),
                  omega = omega0(e^t x2) - 2(e^t - 1) rho0 rho0'(e^t x2)

Formulas are piecewise across x2 = 0; evaluation at x2 = 0 uses the
x2 >= 0 branch.  All evaluators are defined on the whole plane, with the
nominal domain boundary reported as metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .burgers import _refine_minimum
from .diagnostics import TimeSeries

__all__ = [
    "Profile1D",
    "OracleSample",
    "WedgeSolution",
    "MovingDomainSolution",
    "ModifiedSolution",
    "PrintedOscillatorySolution",
    "UniformScalarSolution",
    "sigma_from_omega0",
    "growth_envelope",
    "PROFILES",
]


@dataclass(frozen=True)
class Profile1D:
    """One-dimensional closed-form profile with exact derivatives.

    d2f is only needed where a family differentiates a product of the
    profile with its own derivative (the modified-family vorticity).
    """

    f: Callable
    df: Callable
    d2f: Optional[Callable] = None
    name: str = ""

    def __call__(self, s):
        return self.f(s)


PROFILES = {
    "identity": Profile1D(lambda s: s * 1.0, lambda s: np.ones_like(np.asarray(s, dtype=float)),
                          lambda s: np.zeros_like(np.asarray(s, dtype=float)), name="identity"),
    "sin": Profile1D(np.sin, np.cos, lambda s: -np.sin(s), name="sin"),
    "sign": Profile1D(np.sign, lambda s: np.zeros_like(np.asarray(s, dtype=float)), name="sign"),
}


@dataclass
class OracleSample:
    """Field values and first partials at one space-time point.

    Entries a family does not define are None; the residual checker
    rejects evaluations that would need them.
    """

    theta: float
    u2: float
    dtheta_dt: float
    dtheta_dx1: float
    dtheta_dx2: float
    u1: Optional[float] = None
    psi: Optional[float] = None
    omega: Optional[float] = None
    domega_dt: Optional[float] = None
    domega_dx1: Optional[float] = None
    domega_dx2: Optional[float] = None


def _branch(x2: float) -> float:
    return 1.0 if x2 >= 0 else -1.0


@dataclass(frozen=True)
class WedgeSolution:
    """Fields on the wedge between x2 = 2 x1 and x2 = -2 x1.

    psi = +-x2^2/2 - x1 x2, u1 = -+x2 + x1, u2 = -x2, omega = +-1,
    theta = theta0(e^t x2) with theta0 odd.
    """

    theta0: Profile1D
    family: str = "wedge"

    def boundary(self) -> str:
        return "x2 = 2*x1 and x2 = -2*x1, x1 >= 0"

    def theta(self, x2, t):
        return self.theta0.f(np.exp(t) * np.asarray(x2, dtype=float))

    def dtheta_dx2(self, x2, t):
        et = np.exp(t)
        return et * self.theta0.df(et * np.asarray(x2, dtype=float))

    def domega_dx2(self, x2, t):
        return np.zeros_like(np.asarray(x2, dtype=float))

    def sample(self, x1: float, x2: float, t: float) -> OracleSample:
        sgn = _branch(x2)
        et = math.exp(t)
        s = et * x2
        return OracleSample(
            theta=float(self.theta0.f(s)),
            dtheta_dt=float(x2 * et * self.theta0.df(s)),
            dtheta_dx1=0.0,
            dtheta_dx2=float(et * self.theta0.df(s)),
            psi=sgn * x2 * x2 / 2.0 - x1 * x2,
            u1=-sgn * x2 + x1,
            u2=-x2,
            omega=sgn,
            domega_dt=0.0,
            domega_dx1=0.0,
            domega_dx2=0.0,
        )


def sigma_from_omega0(omega0: Profile1D, x2: float, t: float) -> float:
    """Stream coefficient sigma(x2, t) solving d2/dx2^2 (sigma x2^2) = 2 omega0(e^t x2).

    Both integration constants are zero (regularity at the corner), which
    makes sigma x2^2 the double primitive of 2 omega0(e^t .) from 0; the
    x2 < 0 branch carries the sign flip of the piecewise definition.
    The double integral collapses to a single weighted quadrature.
    """
    from scipy.integrate import quad  # imported here so that no other code path loads scipy

    et = math.exp(t)
    sgn = _branch(x2)
    if abs(x2) < 1e-6:
        # two-term expansion; the quotient by x2^2 is ill-conditioned near 0
        return sgn * (float(omega0.f(0.0)) + et * float(omega0.df(0.0)) * x2 / 3.0)
    integrand = lambda z: (x2 - z) * 2.0 * float(omega0.f(et * z))
    value, err = quad(integrand, 0.0, x2, epsabs=1e-12, epsrel=1e-12, limit=200)
    if err > 1e-8 * max(1.0, abs(value)):
        raise RuntimeError(
            f"quadrature for sigma did not converge (profile {omega0.name or 'anonymous'}, "
            f"x2 = {x2:.6g}, t = {t:.6g}, error estimate {err:.3e})"
        )
    return sgn * value / (x2 * x2)


def _dsigma_dx2(omega0: Profile1D, x2: float, t: float) -> float:
    from scipy.integrate import quad

    et = math.exp(t)
    sgn = _branch(x2)
    if abs(x2) < 1e-6:
        return sgn * et * float(omega0.df(0.0)) / 3.0
    inner, _ = quad(lambda z: 2.0 * float(omega0.f(et * z)), 0.0, x2, epsabs=1e-12, epsrel=1e-12, limit=200)
    weighted, _ = quad(lambda z: (x2 - z) * 2.0 * float(omega0.f(et * z)), 0.0, x2,
                       epsabs=1e-12, epsrel=1e-12, limit=200)
    return sgn * (inner / (x2 * x2) - 2.0 * weighted / (x2 * x2 * x2))


@dataclass(frozen=True)
class MovingDomainSolution:
    """Smooth fields in the domain bounded by 2 x1 = +-sigma(x2, t) x2.

    omega = omega0(e^t x2), theta = theta0(e^t x2), u2 = -x2, and
    psi = +-sigma x2^2/2 - x1 x2 with sigma from sigma_from_omega0.
    """

    omega0: Profile1D
    theta0: Profile1D
    family: str = "moving-domain"

    def boundary(self, x2: float, t: float) -> str:
        sigma = sigma_from_omega0(self.omega0, x2, t)
        return f"2*x1 = +-{sigma:.6g}*x2 at x2 = {x2:.6g}"

    def theta(self, x2, t):
        return self.theta0.f(np.exp(t) * np.asarray(x2, dtype=float))

    def dtheta_dx2(self, x2, t):
        et = np.exp(t)
        return et * self.theta0.df(et * np.asarray(x2, dtype=float))

    def domega_dx2(self, x2, t):
        et = np.exp(t)
        return et * self.omega0.df(et * np.asarray(x2, dtype=float))

    def sample(self, x1: float, x2: float, t: float) -> OracleSample:
        sgn = _branch(x2)
        et = math.exp(t)
        s = et * x2
        sigma = sigma_from_omega0(self.omega0, x2, t)
        dsigma = _dsigma_dx2(self.omega0, x2, t)
        return OracleSample(
            theta=float(self.theta0.f(s)),
            dtheta_dt=float(x2 * et * self.theta0.df(s)),
            dtheta_dx1=0.0,
            dtheta_dx2=float(et * self.theta0.df(s)),
            psi=sgn * sigma * x2 * x2 / 2.0 - x1 * x2,
            u1=-sgn * (sigma * x2 + 0.5 * x2 * x2 * dsigma) + x1,
            u2=-x2,
            omega=float(self.omega0.f(s)),
            domega_dt=float(x2 * et * self.omega0.df(s)),
            domega_dx1=0.0,
            domega_dx2=float(et * self.omega0.df(s)),
        )


def _modified_omega_terms(rho0: Profile1D, omega0: Profile1D, s: float, t: float):
    """omega = omega0(s) - (e^t - 1) Q(s) with Q = (rho0^2)' = 2 rho0 rho0'."""
    if rho0.d2f is None:
        raise ValueError(f"profile {rho0.name or 'anonymous'} needs d2f for the modified family")
    et = math.exp(t)
    q = 2.0 * float(rho0.f(s)) * float(rho0.df(s))
    dq = 2.0 * (float(rho0.df(s)) ** 2 + float(rho0.f(s)) * float(rho0.d2f(s)))
    omega = float(omega0.f(s)) - (et - 1.0) * q
    d_ds = float(omega0.df(s)) - (et - 1.0) * dq
    return et, q, omega, d_ds


@dataclass(frozen=True)
class ModifiedSolution:
    """x1-independent family of the quadratic-forcing vorticity system.

    rho = rho0(e^t x2), u2 = -x2, and
    omega = omega0(e^t x2) - 2 (e^t - 1) rho0(e^t x2) rho0'(e^t x2).
    The reduced system never references u1, so samples carry none.
    """

    rho0: Profile1D
    omega0: Profile1D
    family: str = "modified"

    def theta(self, x2, t):
        return self.rho0.f(np.exp(t) * np.asarray(x2, dtype=float))

    def dtheta_dx2(self, x2, t):
        et = np.exp(t)
        return et * self.rho0.df(et * np.asarray(x2, dtype=float))

    def domega_dx2(self, x2, t):
        if self.rho0.d2f is None:
            raise ValueError(f"profile {self.rho0.name or 'anonymous'} needs d2f for the modified family")
        et = np.exp(t)
        s = et * np.asarray(x2, dtype=float)
        dq = 2.0 * (self.rho0.df(s) ** 2 + self.rho0.f(s) * self.rho0.d2f(s))
        return et * (self.omega0.df(s) - (et - 1.0) * dq)

    def sample(self, x1: float, x2: float, t: float) -> OracleSample:
        s = math.exp(t) * x2
        et, q, omega, d_ds = _modified_omega_terms(self.rho0, self.omega0, s, t)
        return OracleSample(
            theta=float(self.rho0.f(s)),
            dtheta_dt=float(x2 * et * self.rho0.df(s)),
            dtheta_dx1=0.0,
            dtheta_dx2=float(et * self.rho0.df(s)),
            u2=-x2,
            omega=omega,
            # d/dt at fixed x2: chain rule through s = e^t x2 plus the explicit e^t factor
            domega_dt=float(x2 * et * d_ds - et * q),
            domega_dx1=0.0,
            domega_dx2=float(et * d_ds),
        )


@dataclass(frozen=True)
class PrintedOscillatorySolution:
    """The published oscillatory pairing, kept verbatim for the checker.

    rho = sin(2 x2 e^t) with omega = +-1 - (e^t - 1) sin(2 x2 e^t).  The
    pair is mutually inconsistent (the vorticity matches rho = sin(x2 e^t)
    instead), so its vorticity-equation residual is genuinely nonzero;
    the residual checker is expected to fail on it.
    """

    family: str = "modified"

    def theta(self, x2, t):
        return np.sin(2.0 * np.exp(t) * np.asarray(x2, dtype=float))

    def dtheta_dx2(self, x2, t):
        et = np.exp(t)
        return 2.0 * et * np.cos(2.0 * et * np.asarray(x2, dtype=float))

    def domega_dx2(self, x2, t):
        et = np.exp(t)
        return -(et - 1.0) * 2.0 * et * np.cos(2.0 * et * np.asarray(x2, dtype=float))

    def sample(self, x1: float, x2: float, t: float) -> OracleSample:
        sgn = _branch(x2)
        et = math.exp(t)
        s2 = 2.0 * et * x2
        return OracleSample(
            theta=math.sin(s2),
            dtheta_dt=s2 * math.cos(s2),
            dtheta_dx1=0.0,
            dtheta_dx2=2.0 * et * math.cos(s2),
            u2=-x2,
            omega=sgn - (et - 1.0) * math.sin(s2),
            domega_dt=-et * math.sin(s2) - (et - 1.0) * s2 * math.cos(s2),
            domega_dx1=0.0,
            domega_dx2=-(et - 1.0) * 2.0 * et * math.cos(s2),
        )


@dataclass(frozen=True)
class UniformScalarSolution:
    """Stationary check for the scalar model: theta = c, u = (c, 0)."""

    c: float = 1.0
    family: str = "stationary"

    def theta(self, x2, t):
        return np.full_like(np.asarray(x2, dtype=float), self.c)

    def dtheta_dx2(self, x2, t):
        return np.zeros_like(np.asarray(x2, dtype=float))

    def sample(self, x1: float, x2: float, t: float) -> OracleSample:
        return OracleSample(
            theta=self.c,
            dtheta_dt=0.0,
            dtheta_dx1=0.0,
            dtheta_dx2=0.0,
            u1=self.c,
            u2=0.0,
            psi=-self.c * x2,
        )


def growth_envelope(solution, interval: tuple[float, float], times, field: str = "theta") -> TimeSeries:
    """Sup over the x2 interval of |d(field)/dx2| at each time.

    field selects 'theta' or 'omega'; exact partials are sampled on 4097
    nodes and the best node's cell is rescanned.
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
    values = [-_refine_minimum(lambda x: -np.abs(deriv(x, float(t))), xs) for t in times]
    return TimeSeries(times, np.asarray(values))
