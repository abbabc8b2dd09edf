"""Closed-form space-time solution families with exact partial derivatives.

Every family but the stationary one is carried by the flow u2 = -x2: with
s = e^t x2 it is one CarriedSolution,

  theta = theta0(s),  omega = omega0(s) - (e^t - 1) q(s)  (q absent: 0),

and adds only what is its own:

  wedge           omega0 = +-1, closed-form psi and u1
  moving domain   psi and u1 from the stream coefficient sigma, reconstructed
                  from d2/dx2^2 (sigma x2^2) = 2 omega0(e^t x2)
  modified        q = (rho0^2)' = 2 rho0 rho0' and no u1

Along u2 = -x2 each t-partial is x2 times the x2-partial, plus the
vorticity's explicit source -e^t q(s); the x1-partials vanish.  So for a
carried family the theta residual and the Boussinesq omega residual of
diagnostics.residual are x2 df/dx2 - x2 df/dx2 = 0 whatever psi and u1
are, and the modified omega residual is e^t ((theta0^2)' - q)(s), zero
for the modified family's q.

Formulas are piecewise across x2 = 0; evaluation at x2 = 0 uses the
x2 >= 0 branch.  All evaluators take arrays of points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .burgers import _refine_minima
from .diagnostics import TimeSeries

__all__ = [
    "Profile1D",
    "OracleSample",
    "CarriedSolution",
    "WedgeSolution",
    "MovingDomainSolution",
    "ModifiedSolution",
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


@dataclass(frozen=True)
class CarriedSolution:
    """theta = theta0(s) and omega = omega0(s) - (e^t - 1) q(s), s = e^t x2, with u2 = -x2.

    velocity(x1, x2, t) gives (u1, psi); without it samples carry neither.
    """

    theta0: Profile1D
    omega0: Profile1D
    q: Optional[Profile1D] = None
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


def _wedge_velocity(x1, x2, t):
    sgn = _sign(x2)
    return -sgn * x2 + x1, sgn * x2 * x2 / 2.0 - x1 * x2


def WedgeSolution(theta0: Profile1D) -> CarriedSolution:
    """Fields on the wedge between x2 = 2 x1 and x2 = -2 x1.

    psi = +-x2^2/2 - x1 x2, u1 = -+x2 + x1, u2 = -x2, omega = +-1,
    theta = theta0(e^t x2) with theta0 odd.
    """
    return CarriedSolution(theta0, PROFILES["sign"], velocity=_wedge_velocity)


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


def MovingDomainSolution(omega0: Profile1D, theta0: Profile1D) -> CarriedSolution:
    """Smooth fields in the domain bounded by 2 x1 = +-sigma(x2, t) x2.

    omega = omega0(e^t x2), theta = theta0(e^t x2), u2 = -x2, and
    psi = +-sigma x2^2/2 - x1 x2 with sigma from sigma_from_omega0.
    """

    def velocity(x1, x2, t):
        sgn = _sign(x2)
        sigma, dsigma = _sigma_terms(omega0, x2, t)
        return -sgn * (sigma * x2 + 0.5 * x2 * x2 * dsigma) + x1, sgn * sigma * x2 * x2 / 2.0 - x1 * x2

    return CarriedSolution(theta0, omega0, velocity=velocity)


def ModifiedSolution(rho0: Profile1D, omega0: Profile1D) -> CarriedSolution:
    """x1-independent family of the quadratic-forcing vorticity system.

    rho = rho0(e^t x2), u2 = -x2 and omega = omega0(e^t x2) - (e^t - 1) q(e^t x2)
    with q = (rho0^2)' = 2 rho0 rho0', so q' = 2 (rho0'^2 + rho0 rho0'') needs
    rho0.d2f.  The reduced system never references u1, so samples carry none.
    """
    if rho0.d2f is None:
        raise ValueError(f"profile {rho0.name or 'anonymous'} needs d2f for the modified family")
    q = Profile1D(
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
    return TimeSeries(times, -_refine_minima(lambda x, t: -np.abs(deriv(x, t)), xs, times))
