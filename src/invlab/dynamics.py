"""Model tendencies, velocity reconstruction, and RK4 time integration.

Three inviscid models share one transport core:

  singular scalar      d theta/dt + u.grad(theta) = 0
  Boussinesq           adds vorticity with forcing  +d(theta)/dx1
  modified Boussinesq  vorticity forcing            -d(theta^2)/dx2

The velocity u = (-d(psi)/dx2, d(psi)/dx1) of the stream function psi
never forms psi: each component multiplies a spectrum by its Fourier
symbol.  In the scalar model -d(psi)/dx2 = theta, so u1 = theta and
u2 = -(k1/k2) theta (k2 != 0); in the vorticity models Delta psi = omega,
so u1 = i k2 omega/|k|^2 and u2 = -i k1 omega/|k|^2.

The RK4 stages run on band spectra (see invlab.spectral): a stage hands
the next one its spectrum, never nodal values to transform straight back.
One generator, _kinematics, makes the nodal pairs (u_i, d(theta)/dx_i).
An accepted state caches both (State.kinematics) for the CFL bound, the
gradient ceiling and the axis slope.  The next step's first stage consumes
them, forming its products in their arrays (see tendency), and the step
frees each of its fields' nodal values at its last reader: the state keeps
only the maxima, taken with no full-size temporary (_max_norm).  Stages
k2-k4 stream the generator, and the step sums k1 + 2 k2 + 2 k3 + k4 in
k1's arrays.  A vorticity stage transforms theta's product, freeing it,
before it makes d(omega)/dx2.

rk4_step is a plain step of the dt it is given; integrate is the one
step controller, which chooses and checks every dt.

The modified forcing enters the omega advection's single forward as
2 theta d(theta)/dx2.  This is exact: the band is alias-free, so the band
cut commutes with d/dx2 and 2 theta d(theta)/dx2 = d(theta^2)/dx2 holds
at the nodes of band fields.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .spectral import (
    Field,
    Grid2D,
    NonFiniteFieldError,
    ddx1,
    ddx2,
    forward,
    inverse,
)

__all__ = [
    "ModelKind",
    "State",
    "StepControl",
    "BlowupSignal",
    "IntegrationResult",
    "tendency",
    "rk4_step",
    "integrate",
    "admissible_dt",
]


class ModelKind(Enum):
    SINGULAR_SCALAR = "singular-scalar"
    BOUSSINESQ = "boussinesq"
    MODIFIED_BOUSSINESQ = "modified-boussinesq"

    @property
    def evolves_vorticity(self) -> bool:
        return self is not ModelKind.SINGULAR_SCALAR


def _max_norm(a: np.ndarray, b: np.ndarray) -> float:
    """max of hypot(a, b) over the grid, from the largest a^2 + b^2, formed a ninth of the rows at
    a time with b^2 added in place: under a quarter of a nodal array, and exact, as max is."""
    rows = -(-len(a) // 9)
    maxima = []
    with np.errstate(over="ignore"):
        for s in (slice(i, i + rows) for i in range(0, len(a), rows)):
            sq = a[s] * a[s]
            sq += b[s] * b[s]
            maxima.append(sq.max())
    sq = float(np.max(maxima))
    if not math.isfinite(sq):  # overflowed squares or non-finite input: hypot decides
        return float(np.max(np.hypot(a, b)))
    return math.sqrt(sq)


@dataclass
class State:
    """Evolved fields at time t.

    theta holds the active scalar (called rho in the modified model);
    omega is present exactly when the model evolves vorticity.  A state
    is not changed after it is built.  Its kinematics and its fields'
    nodal values are cached from first use until a step from it frees
    them (see rk4_step); max_speed and max_grad are floats it keeps.
    """

    model: ModelKind
    t: float
    theta: Field
    omega: Optional[Field] = None

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"time must be nonnegative, got {self.t}")
        if self.model.evolves_vorticity:
            if self.omega is None:
                raise ValueError(f"model {self.model.value} requires a vorticity field")
            if self.omega.grid != self.theta.grid:
                raise ValueError("theta and omega must share one grid")
        elif self.omega is not None:
            raise ValueError("the scalar model does not carry a vorticity field")

    @property
    def grid(self) -> Grid2D:
        return self.theta.grid

    @property
    def fields(self) -> list[Field]:
        """theta, then omega when the model evolves it."""
        return [self.theta] if self.omega is None else [self.theta, self.omega]

    @cached_property
    def kinematics(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """[(u1, d(theta)/dx1), (u2, d(theta)/dx2)]: four real inverse transforms, once per state."""
        return list(_kinematics(self))

    # The maxima are computed on first use: the CFL bound and the gradient
    # ceiling read them for each step's end state, never for RK4 stages.
    @cached_property
    def max_speed(self) -> float:
        """max|u| over the grid nodes."""
        (u1, _), (u2, _) = self.kinematics
        return _max_norm(u1, u2)

    @cached_property
    def max_grad(self) -> float:
        """max|grad theta| over the grid nodes."""
        (_, g1), (_, g2) = self.kinematics
        return _max_norm(g1, g2)


@dataclass
class StepControl:
    """Time-stepping parameters.

    dt is the maximum step (None lets the CFL bound pick it); cfl is the
    safety factor of the bound dt <= cfl * min(dx, dy) / max|u|, which
    integrate takes at each step's start (see integrate).  NaN fails every check.
    """

    dt: Optional[float] = None
    cfl: float = 0.4
    max_grad: float = 1e6

    def __post_init__(self) -> None:
        if self.dt is not None and not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0 < self.cfl <= 1:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not self.max_grad > 0:
            raise ValueError(f"max_grad must be positive, got {self.max_grad}")


@dataclass(frozen=True)
class BlowupSignal:
    """Why integrate stopped before t_end: the run left the smooth regime.

    reason is "non-finite" (a step made non-finite data, max|u| or
    max|grad theta|; t is that step's end) or "gradient-ceiling"
    (max|grad theta| passed StepControl.max_grad at t); trace holds the
    recent accepted (t, max|grad theta|).
    """

    t: float
    max_grad: float
    reason: str
    trace: list


@dataclass
class IntegrationResult:
    state: State
    blowup: Optional[BlowupSignal]
    steps: int


def _velocity_hat(model: ModelKind, grid: Grid2D, theta_hat: np.ndarray, omega_hat: Optional[np.ndarray] = None):
    """Velocity spectra (u1_hat, u2_hat) from the Fourier symbols of the model."""
    if model is ModelKind.SINGULAR_SCALAR:
        # The x2-mean modes m(x1) of theta (the k2 = 0 column) have no
        # periodic primitive in x2.  Carry them with the divergence-free closure
        #   u1 += m(x1) cos x2,  u2 -= m'(x1) sin x2,
        # which is exact on the x2 = 0 axis (u1 = theta, u2 unchanged) and
        # vanishes with the mean modes.  Only the k2 = +1 column is stored;
        # its k2 = -1 partner is implied.  The mean of theta stays in u1.
        u1 = theta_hat.copy()
        m = u1[:, 0].copy()
        m[0] = 0.0
        u1[1:, 0] = 0.0
        k2 = grid.ky_deriv.copy()
        k2[0] = 1.0  # the k2 = 0 column of u1 holds only the mean, whose k1 factor is 0
        u2 = u1 * (-grid.k1int)[:, None]
        u2 /= k2
        u1[:, 1] += 0.5 * m
        u2[:, 1] -= 0.5 * grid.k1int * m
        return u1, u2
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = omega_hat / grid.k_squared
    # the gauge of psi; it drops the roundoff-level mean that the tendency
    # leaves on the zero-mean initial vorticity (see build_initial_state)
    scaled[0, 0] = 0.0
    u1 = scaled * (1j * grid.ky_deriv)[None, :]
    u2 = scaled * (-1j * grid.k1int)[:, None]
    return u1, u2


def _kinematics(state: State):
    """Yield the nodal (u_i, d(theta)/dx_i) for i = 1, 2, each spectrum
    dropped once inverted and u_i let go of before the next pair."""
    grid, theta_hat = state.grid, state.theta.hat
    u_hats = list(_velocity_hat(state.model, grid, *(f.hat for f in state.fields)))
    for d in (ddx1, ddx2):
        u = inverse(grid, u_hats.pop(0))
        yield u, inverse(grid, d(grid, theta_hat))
        del u


def tendency(state: State) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Right-hand side band spectra (dtheta/dt, domega/dt or None).

    Every nonlinear product goes through forward(), so it is dealiased by
    the two-thirds rule.  In the modified model the forcing -d(theta^2)/dx2
    enters the omega advection's forward as 2 theta d(theta)/dx2, exact
    because the band is alias-free: one forward per field and stage.

    The products are formed one direction i at a time, in the cached
    d_i(theta) of the state's kinematics, which this consumes pair by pair,
    or else from _kinematics(state): u_i and each field's d_i are
    multiplied in place and dropped before the next direction, and
    forward() frees each product.  Every product keeps the order
    u1 g1 + u2 g2, then the modified forcing (2 theta) d(theta)/dx2; theta's
    product is transformed before d(omega)/dx2 is made, and theta's nodal
    values after u2 and d(omega)/dx2 are dropped.  A product that overflows
    makes forward() raise NonFiniteFieldError.
    """
    cached = vars(state).pop("kinematics", None)
    grid = state.grid
    omega_hat = None if state.omega is None else state.omega.hat
    forced = state.model is ModelKind.MODIFIED_BOUSSINESQ
    # next(), not a loop or zip: each pair (u_i, d_i theta) is dropped before the next is made
    pairs = _kinematics(state) if cached is None else (cached.pop(0) for _ in range(2))
    u, g = next(pairs)
    products = [np.multiply(u, g, out=g)]
    if omega_hat is not None:
        w = inverse(grid, ddx1(grid, omega_hat))
        products.append(np.multiply(u, w, out=w))
    del u, g
    u, g = next(pairs)
    del pairs
    products[0] += np.multiply(u, g, out=None if forced else g)
    if not forced:
        g = None  # u2 g2 was formed in its buffer; only the modified forcing reads d(theta)/dx2
    if omega_hat is None:
        del u
        return -forward(grid, products.pop()), None
    dtheta_hat = -forward(grid, products.pop(0))
    w = inverse(grid, ddx2(grid, omega_hat))
    products[0] += np.multiply(u, w, out=w)
    del u, w
    if forced:
        forcing = np.multiply(2.0, state.theta.values)
        forcing *= g
        products[0] += forcing
        del forcing
    del g
    domega_hat = -forward(grid, products.pop())
    if state.model is ModelKind.BOUSSINESQ:
        domega_hat += ddx1(grid, state.theta.hat)
    return dtheta_hat, domega_hat


def admissible_dt(state: State, ctrl: StepControl) -> float:
    """CFL-admissible step for the state; inf when the flow is at rest."""
    umax = state.max_speed
    if umax == 0.0:
        return math.inf
    return ctrl.cfl * min(state.grid.dx, state.grid.dy) / umax


@np.errstate(over="ignore", invalid="ignore")  # non-finite data raises instead
def rk4_step(state: State, dt: float) -> State:
    """One classical four-stage Runge-Kutta step of size dt; integrate chooses and checks dt.

    Raises NonFiniteFieldError if a stage's data or its nonlinear products
    are not finite.  Caches state.max_speed and state.max_grad; the first
    stage consumes the state's kinematics, and each cached nodal value of
    its fields is freed once no stage reads it.
    """
    state.max_speed, state.max_grad  # the state keeps its maxima after the release below

    grid = state.grid

    def at(t: float, hats: Sequence[np.ndarray]) -> State:
        for hat in hats:
            if not np.all(np.isfinite(hat)):
                raise NonFiniteFieldError(f"non-finite spectrum at t = {t:.6g}")
        return State(state.model, t, *(Field(grid, hat) for hat in hats))

    t0 = state.t
    y0 = [f.hat for f in state.fields]
    # k1 consumes the kinematics, and of the nodal values reads only theta's, for the modified forcing
    forcing_reads_theta = state.model is ModelKind.MODIFIED_BOUSSINESQ
    for f in state.fields[forcing_reads_theta:]:
        vars(f).pop("values", None)
    k = acc = [d for d in tendency(state) if d is not None]
    vars(state.theta).pop("values", None)
    # acc = k1 + 2 k2 + 2 k3 + k4, summed in k1's arrays in that order; each
    # k is dropped once the next stage's input and the sum have read it
    for h in (dt / 2, dt / 2, dt):
        stage = at(t0 + h, [y + h * d for y, d in zip(y0, k)])
        if k is not acc:  # k2 and k3, each entered twice
            for j in range(len(k)):
                k[j] *= 2
                acc[j] += k[j]
        del k
        k = [d for d in tendency(stage) if d is not None]
        del stage
    for j, y in enumerate(y0):
        acc[j] += k[j]
        acc[j] *= dt / 6
        acc[j] += y
    del k
    return at(t0 + dt, acc)


def integrate(
    state: State,
    ctrl: StepControl,
    t_end: float,
    observers: Sequence[Callable[[State], None]] = (),
) -> IntegrationResult:
    """Advance to t_end; the one place that chooses and checks each dt.

    A step is dt = min(ctrl.dt, admissible_dt, t_end - t), the CFL bound
    taken at its start.  If its end state moves more than a cell in dt
    (dt max|u| > min(dx, dy)), as from rest, where the bound is inf, the
    step is retaken at that end state's bound.  Observers are called after
    every accepted step.  The run stops early, with a BlowupSignal, when
    a step makes non-finite data, max|u| or max|grad theta| (the result
    keeps the last finite state), or max|grad theta| passes ctrl.max_grad.
    """
    if t_end < state.t:
        raise ValueError(f"t_end = {t_end} lies before the state time {state.t}")
    trace: deque = deque(maxlen=32)
    current = state
    del state  # so the initial state is freed once the first step replaces it
    cell = min(current.grid.dx, current.grid.dy)
    steps = 0
    retake = None  # the dt of a step to retake
    stop = None  # (t, max|grad theta|, reason) of an early stop
    eps = 1e-12 * max(1.0, abs(t_end))
    while current.t < t_end - eps:
        dt = retake or min(d for d in (ctrl.dt, admissible_dt(current, ctrl), t_end - current.t) if d is not None)
        try:
            new = rk4_step(current, dt)
        except NonFiniteFieldError:
            stop = (current.t + dt, current.max_grad, "non-finite")
            break
        grad, speed = new.max_grad, new.max_speed
        if not (math.isfinite(grad) and math.isfinite(speed)):
            stop = (new.t, grad, "non-finite")
            break
        if dt * speed > cell:
            retake = admissible_dt(new, ctrl)
            del new
            continue
        retake = None
        trace.append((new.t, grad))
        current = new
        steps += 1
        for obs in observers:
            obs(current)
        if grad > ctrl.max_grad:
            stop = (current.t, grad, "gradient-ceiling")
            break
    signal = None if stop is None else BlowupSignal(*stop, list(trace))
    return IntegrationResult(current, signal, steps)
