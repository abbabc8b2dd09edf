"""Closed-form space-time solution families with exact partial derivatives.

Three families share the compressing velocity u2 = -x2 and the transported
profile structure f0(exp(t) x2):

  wedge           piecewise-constant vorticity, theta = theta0(e^t x2)
  moving domain   vorticity omega0(e^t x2) with stream coefficient sigma
                  reconstructed from d2/dx2^2 (sigma x2^2) = 2 omega0(e^t x2)
  modified        x1-independent pair rho = rho0(e^t x2),
                  omega = omega0(e^t x2) - 2(e^t - 1) rho0 rho0'(e^t x2)

Formulas are piecewise across x2 = 0; evaluation at x2 = 0 uses the
x2 >= 0 branch.  All evaluators are defined on the whole plane and take
arrays of points: a family's `sample` evaluates every point in one set of
array operations.  Each family states its x2-partials once, in its
dtheta_dx2 / domega_dx2 methods, the carried profiles through one helper
(_carried_dx2); the shared sampler derives the other partials from them.
"""

from __future__ import annotations

import functools
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


def _sign(s):
    """+-1 with the x2 >= 0 branch at 0, where np.sign would give 0."""
    return np.where(s >= 0, 1.0, -1.0)


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


PROFILES = {
    "identity": Profile1D(lambda s: s * 1.0, lambda s: np.ones_like(np.asarray(s, dtype=float)),
                          lambda s: np.zeros_like(np.asarray(s, dtype=float)), name="identity"),
    "sin": Profile1D(np.sin, np.cos, lambda s: -np.sin(s), name="sin"),
    "sign": Profile1D(_sign, lambda s: np.zeros_like(np.asarray(s, dtype=float)), name="sign"),
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


def _carried_dx2(profile: Profile1D, x2, t):
    """d/dx2 of profile.f(e^t x2), the x2-partial of a field carried by u2 = -x2."""
    et = np.exp(t)
    return et * profile.df(et * np.asarray(x2, dtype=float))


def _carried(family, x2, t, theta, omega=None, omega_source=0.0, **velocity) -> OracleSample:
    """Sample of a family carried by u2 = -x2: fields of (e^t x2, t), independent of x1.

    The x2-partials are the family's own dtheta_dx2 / domega_dx2.  Along
    u2 = -x2 each t-partial is x2 times the x2-partial, plus the explicit
    source omega_source of the vorticity; the x1-partials vanish.
    velocity passes u1 and psi through.
    """
    zero = np.zeros_like(x2)
    dtheta_dx2 = family.dtheta_dx2(x2, t)
    if omega is not None:
        dw = family.domega_dx2(x2, t)
        velocity.update(omega=omega, domega_dt=x2 * dw + omega_source, domega_dx1=zero, domega_dx2=dw)
    return OracleSample(
        theta=theta, u2=-x2, dtheta_dt=x2 * dtheta_dx2, dtheta_dx1=zero, dtheta_dx2=dtheta_dx2, **velocity
    )


@dataclass(frozen=True)
class WedgeSolution:
    """Fields on the wedge between x2 = 2 x1 and x2 = -2 x1.

    psi = +-x2^2/2 - x1 x2, u1 = -+x2 + x1, u2 = -x2, omega = +-1,
    theta = theta0(e^t x2) with theta0 odd.
    """

    theta0: Profile1D

    def dtheta_dx2(self, x2, t):
        return _carried_dx2(self.theta0, x2, t)

    def domega_dx2(self, x2, t):
        return np.zeros_like(np.asarray(x2, dtype=float))

    def sample(self, x1, x2, t) -> OracleSample:
        x1, x2, t = _coords(x1, x2, t)
        sgn = _sign(x2)
        theta = self.theta0.f(np.exp(t) * x2)
        return _carried(self, x2, t, theta, sgn, psi=sgn * x2 * x2 / 2.0 - x1 * x2, u1=-sgn * x2 + x1)


# Gauss-Legendre nodes of the sigma quadrature; the 2n-node rule checks the n-node one
_QUAD_NODES = 48
_QUAD_RTOL = 1e-12


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre rule on [0, 1] (Golub & Welsch, Math. Comp. 23 (1969) 221).

    Built on first use: importing numpy.polynomial and computing the nodes
    take milliseconds, which no code path but the sigma quadrature pays.
    """
    from numpy.polynomial.legendre import leggauss

    xi, w = leggauss(n)
    nodes, weights = 0.5 * (1.0 + xi), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _omega0_moments(omega0: Profile1D, x2: np.ndarray, t: np.ndarray, n: int):
    """Per row, the integrals of F(u) and (1 - u) F(u) over [0, 1], plus that of |F|.

    F(u) = 2 omega0(e^t x2 u) is the integrand after z = x2 u, so the two
    sigma integrals are x2 times the first and x2^2 times the second.
    """
    u, w = _gauss_legendre(n)
    values = 2.0 * omega0.f((np.exp(t) * x2)[:, None] * u)
    return values @ w, values @ (w * (1.0 - u)), np.abs(values) @ w


def _sigma_terms(omega0: Profile1D, x2, t):
    """sigma and d sigma/dx2 at every (x2, t), from one quadrature of each row.

    sigma x2^2 = +-int_0^x2 (x2 - z) 2 omega0(e^t z) dz and
    d sigma/dx2 = +-int_0^x2 2 omega0(e^t z) dz / x2^2 - 2 sigma / x2, both
    integrals on mapped Gauss-Legendre nodes.  The n-node values must
    agree with the 2n-node ones to 1e-12 of the integral of |integrand|,
    else RuntimeError.  Rows with |x2| < 1e-6 use the two-term expansion,
    since the quotient by x2 is ill-conditioned there.
    """
    x2, t = np.broadcast_arrays(np.asarray(x2, dtype=float), np.asarray(t, dtype=float))
    shape = x2.shape
    x2, t = x2.ravel(), t.ravel()
    sgn = _sign(x2)
    et = np.exp(t)
    f0, df0 = float(omega0.f(0.0)), float(omega0.df(0.0))
    sigma = sgn * (f0 + et * df0 * x2 / 3.0)
    dsigma = sgn * et * df0 / 3.0
    far = np.abs(x2) >= 1e-6
    if np.any(far):
        xf, tf = x2[far], t[far]
        inner, weighted, scale = _omega0_moments(omega0, xf, tf, 2 * _QUAD_NODES)
        coarse_inner, coarse_weighted, _ = _omega0_moments(omega0, xf, tf, _QUAD_NODES)
        err = np.maximum(np.abs(inner - coarse_inner), np.abs(weighted - coarse_weighted))
        bad = err > _QUAD_RTOL * scale
        if np.any(bad):
            i = int(np.argmax(bad))  # the first row that failed the check
            raise RuntimeError(
                f"quadrature for sigma did not converge (profile {omega0.name or 'anonymous'}, "
                f"x2 = {xf[i]:.6g}, t = {tf[i]:.6g}, error estimate {err[i] / scale[i]:.3e})"
            )
        sigma[far] = sgn[far] * weighted
        dsigma[far] = sgn[far] * (inner - 2.0 * weighted) / xf
    return sigma.reshape(shape)[()], dsigma.reshape(shape)[()]


def sigma_from_omega0(omega0: Profile1D, x2, t):
    """Stream coefficient sigma(x2, t) solving d2/dx2^2 (sigma x2^2) = 2 omega0(e^t x2).

    Both integration constants are zero (regularity at the corner), which
    makes sigma x2^2 the double primitive of 2 omega0(e^t .) from 0; the
    x2 < 0 branch carries the sign flip of the piecewise definition.
    The double integral collapses to a single weighted quadrature.
    x2 and t may be arrays; scalars give a scalar.
    """
    return _sigma_terms(omega0, x2, t)[0]


@dataclass(frozen=True)
class MovingDomainSolution:
    """Smooth fields in the domain bounded by 2 x1 = +-sigma(x2, t) x2.

    omega = omega0(e^t x2), theta = theta0(e^t x2), u2 = -x2, and
    psi = +-sigma x2^2/2 - x1 x2 with sigma from sigma_from_omega0.
    """

    omega0: Profile1D
    theta0: Profile1D

    def dtheta_dx2(self, x2, t):
        return _carried_dx2(self.theta0, x2, t)

    def domega_dx2(self, x2, t):
        return _carried_dx2(self.omega0, x2, t)

    def sample(self, x1, x2, t) -> OracleSample:
        x1, x2, t = _coords(x1, x2, t)
        sgn = _sign(x2)
        s = np.exp(t) * x2
        sigma, dsigma = _sigma_terms(self.omega0, x2, t)
        return _carried(
            self, x2, t, self.theta0.f(s), self.omega0.f(s),
            psi=sgn * sigma * x2 * x2 / 2.0 - x1 * x2,
            u1=-sgn * (sigma * x2 + 0.5 * x2 * x2 * dsigma) + x1,
        )


def _modified_omega_terms(rho0: Profile1D, omega0: Profile1D, s, et):
    """Q = (rho0^2)' = 2 rho0 rho0' and omega = omega0(s) - (e^t - 1) Q(s)."""
    q = 2.0 * rho0.f(s) * rho0.df(s)
    return q, omega0.f(s) - (et - 1.0) * q


@dataclass(frozen=True)
class ModifiedSolution:
    """x1-independent family of the quadratic-forcing vorticity system.

    rho = rho0(e^t x2), u2 = -x2, and
    omega = omega0(e^t x2) - 2 (e^t - 1) rho0(e^t x2) rho0'(e^t x2).
    The reduced system never references u1, so samples carry none.
    """

    rho0: Profile1D
    omega0: Profile1D

    def dtheta_dx2(self, x2, t):
        return _carried_dx2(self.rho0, x2, t)

    def domega_dx2(self, x2, t):
        if self.rho0.d2f is None:
            raise ValueError(f"profile {self.rho0.name or 'anonymous'} needs d2f for the modified family")
        et = np.exp(t)
        s = et * np.asarray(x2, dtype=float)
        dq = 2.0 * (self.rho0.df(s) ** 2 + self.rho0.f(s) * self.rho0.d2f(s))
        return et * (self.omega0.df(s) - (et - 1.0) * dq)

    def sample(self, x1, x2, t) -> OracleSample:
        x1, x2, t = _coords(x1, x2, t)
        et = np.exp(t)
        s = et * x2
        q, omega = _modified_omega_terms(self.rho0, self.omega0, s, et)
        # the explicit e^t of the factor (e^t - 1) gives d omega/dt its source -e^t Q
        return _carried(self, x2, t, self.rho0.f(s), omega, omega_source=-et * q)


@dataclass(frozen=True)
class PrintedOscillatorySolution:
    """The published oscillatory pairing, kept verbatim for the checker.

    rho = sin(2 x2 e^t) with omega = +-1 - (e^t - 1) sin(2 x2 e^t).  The
    pair is mutually inconsistent (the vorticity matches rho = sin(x2 e^t)
    instead), so its vorticity-equation residual is genuinely nonzero;
    the residual checker is expected to fail on it.
    """

    def dtheta_dx2(self, x2, t):
        et = np.exp(t)
        return 2.0 * et * np.cos(2.0 * et * np.asarray(x2, dtype=float))

    def domega_dx2(self, x2, t):
        et = np.exp(t)
        return -(et - 1.0) * 2.0 * et * np.cos(2.0 * et * np.asarray(x2, dtype=float))

    def sample(self, x1, x2, t) -> OracleSample:
        x1, x2, t = _coords(x1, x2, t)
        et = np.exp(t)
        sin2 = np.sin(2.0 * et * x2)
        return _carried(self, x2, t, sin2, _sign(x2) - (et - 1.0) * sin2, omega_source=-et * sin2)


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
    nodes and the best node's cell is rescanned.
    """
    # partials, not `sample`: on 4097 nodes the moving-domain sigma quadrature costs ~600x dtheta_dx2
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
