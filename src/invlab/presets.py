"""Named initial conditions, solver configs, and oracle families.

The documented experiments, each built from a preset here:

  singular-cos      solver run, theta0 = cos(x1) cos(x2)
  wedge-sin         oracle, theta0 = sin
  moving-identity   oracle, omega0 = theta0 = identity
  modified-linear   oracle, rho0 = identity, omega0 = sign
  modified-oscillatory          oracle, rho0 = sin, omega0 = sign (self-consistent)
  modified-paper-printed        oracle, published inconsistent pairing (checker fails)
  stationary-const  oracle, constant scalar
"""

from __future__ import annotations

import ast
import math
import operator

import numpy as np

from .burgers import AxisProfile
from .config import ConfigError, RunConfig
from .dynamics import ModelKind, State
from .oracles import (
    ModifiedSolution,
    MovingDomainSolution,
    PrintedOscillatorySolution,
    UniformScalarSolution,
    WedgeSolution,
    PROFILES,
)
from .spectral import Field, Grid2D, NonFiniteFieldError, forward

__all__ = [
    "IC_PRESETS",
    "SOLVER_PRESETS",
    "ORACLE_FAMILIES",
    "build_initial_state",
    "oracle_solution",
    "grid_for",
]

_EXPR_PREFIX = "expr:"

# expressions may call these functions and name x1, x2 and pi, nothing else
_NAMESPACE = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sign": np.sign,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
}

_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
_UNARY = {ast.USub: operator.neg, ast.UAdd: operator.pos}


def _walk(node: ast.AST, names: dict):
    """Value of one expression node; anything outside the grammar raises ConfigError."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)  # no unbounded integer powers such as 9**9**9
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_walk(node.left, names), _walk(node.right, names))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_walk(node.operand, names))
    if isinstance(node, ast.Call):
        func = node.func
        if not isinstance(func, ast.Name) or func.id not in _NAMESPACE:
            callee = repr(func.id) if isinstance(func, ast.Name) else type(func).__name__
            raise ConfigError(f"Call of {callee} is not allowed")
        if node.keywords:
            raise ConfigError("keyword arguments are not allowed")
        return _NAMESPACE[func.id](*(_walk(arg, names) for arg in node.args))
    what = type(node.op if isinstance(node, (ast.BinOp, ast.UnaryOp)) else node).__name__
    detail = f" {node.id!r}" if isinstance(node, ast.Name) else ""
    raise ConfigError(f"{what}{detail} is not allowed")


def _eval_expr(expr: str, grid: Grid2D) -> np.ndarray:
    """Field of an expression in x1, x2 and pi: numbers, + - * / **, unary -/+,
    and calls of the _NAMESPACE functions."""
    x1, x2 = np.meshgrid(grid.x1, grid.x2, indexing="ij", sparse=True)
    try:
        with np.errstate(all="ignore"):  # forward names the first non-finite node instead
            values = _walk(ast.parse(expr.strip(), mode="eval").body, {"x1": x1, "x2": x2, "pi": math.pi})
    except Exception as exc:
        raise ConfigError(f"cannot evaluate expression {expr!r}: {exc}") from None
    return np.broadcast_to(np.asarray(values, dtype=np.float64), grid.shape).copy()


def _band_field(key: str, expr: str, grid: Grid2D) -> Field:
    """The band field of config key `key`'s expression; non-finite data is a ConfigError."""
    try:
        return Field(grid, forward(grid, _eval_expr(expr, grid)))
    except NonFiniteFieldError as exc:
        raise ConfigError(f"{key}: {exc}") from None


# ic presets usable in configs: name -> (the one model it serves, theta0 expression,
# exact axis trace theta0(x1, 0), whose Burgers solution convergence studies check)
IC_PRESETS = {
    "singular-cos": (ModelKind.SINGULAR_SCALAR, "cos(x1)*cos(x2)", AxisProfile(np.cos, lambda x: -np.sin(x))),
}

# full config documents for `run <preset>`
SOLVER_PRESETS = {
    "singular-cos": (
        "model = singular-scalar\n"
        "ic = singular-cos\n"
        "t_end = 0.5\n"
        "dt = 0.001\n"
    ),
}


def build_initial_state(cfg: RunConfig, grid: Grid2D) -> State:
    """Fields at t = 0: the band spectra (see spectral.forward) of the
    config's ic / ic_omega data sampled on the grid.  Vorticity of nonzero
    mean is a ConfigError."""
    if cfg.ic.startswith(_EXPR_PREFIX):
        theta_expr = cfg.ic[len(_EXPR_PREFIX):]
    elif cfg.ic in IC_PRESETS:
        model, theta_expr, _ = IC_PRESETS[cfg.ic]
        if model is not cfg.model:
            raise ConfigError(
                f"ic preset {cfg.ic!r} belongs to model {model.value}, config says {cfg.model.value}"
            )
    else:
        known = ", ".join(sorted(IC_PRESETS))
        raise ConfigError(
            f"unknown ic preset {cfg.ic!r}; known presets: {known} "
            f"(use '{_EXPR_PREFIX} <expression in x1, x2>' for custom data)"
        )
    theta = _band_field("ic", theta_expr, grid)
    omega = None
    if cfg.model.evolves_vorticity:
        if not cfg.ic_omega:
            raise ConfigError(f"model {cfg.model.value} needs an ic_omega expression")
        if not cfg.ic_omega.startswith(_EXPR_PREFIX):
            raise ConfigError(f"ic_omega must be an '{_EXPR_PREFIX} ...' expression")
        omega = _band_field("ic_omega", cfg.ic_omega[len(_EXPR_PREFIX):], grid)
        # Delta psi = omega is solvable on the periodic box only for zero-mean
        # omega; the equations conserve the mean, so the initial data decide,
        # up to roundoff on the scale of the data's largest coefficient
        mean = omega.hat[0, 0].real
        if abs(mean) > 1e-10 * max(1.0, float(np.max(np.abs(omega.hat)))):
            raise ConfigError(
                f"vorticity has nonzero mean {mean:.3e}; the periodic Poisson problem is not solvable"
            )
    elif cfg.ic_omega:
        raise ConfigError("the scalar model takes no ic_omega")
    return State(cfg.model, 0.0, theta, omega)


def grid_for(cfg: RunConfig) -> Grid2D:
    return Grid2D(cfg.nx, cfg.ny)


# family -> (model checked against, default envelope interval, {preset: solution});
# the first preset is the family's default
ORACLE_FAMILIES = {
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
            "paper-printed": PrintedOscillatorySolution(),
        },
    ),
    "stationary": (ModelKind.SINGULAR_SCALAR, (-math.pi, math.pi), {"const": UniformScalarSolution(1.0)}),
}


def oracle_solution(family: str, preset: str | None = None):
    """A closed-form family's preset: `preset`, or the family's first if None.

    Returns (preset name, solution, model, envelope interval).
    """
    if family not in ORACLE_FAMILIES:
        known = ", ".join(sorted(ORACLE_FAMILIES))
        raise ConfigError(f"unknown oracle family {family!r}; known: {known}")
    model, interval, solutions = ORACLE_FAMILIES[family]
    preset = preset or next(iter(solutions))
    if preset not in solutions:
        raise ConfigError(f"unknown {family} preset {preset!r}; known: {', '.join(solutions)}")
    return preset, solutions[preset], model, interval
