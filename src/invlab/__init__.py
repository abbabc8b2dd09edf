"""Pseudo-spectral laboratory for inviscid 2D transport models.

Three systems share one toolbox: a singular active scalar whose axis
trace obeys the inviscid Burgers equation, the 2D Boussinesq equations,
and a modified Boussinesq variant with quadratic vorticity forcing.
Exact solution families and characteristic solvers provide the ground
truth the numerical runs are measured against.
"""

from .spectral import (
    Grid2D,
    Field,
    Spectrum,
    forward,
    inverse,
    ddx1,
    ddx2,
    poisson_solve,
    antideriv_x2,
    dealias,
)
from .dynamics import (
    ModelKind,
    State,
    StepControl,
    BlowupSignal,
    BlowupDetected,
    CFLViolationError,
    IntegrationResult,
    tendency,
    rk4_step,
    integrate,
)
from .burgers import AxisProfile, BurgersSolution, blowup_time, evaluate, eval_slope, min_slope_series
from .oracles import (
    Profile1D,
    OracleSample,
    WedgeSolution,
    MovingDomainSolution,
    ModifiedSolution,
    PrintedOscillatorySolution,
    UniformScalarSolution,
    sigma_from_omega0,
    growth_envelope,
    PROFILES,
)
from .diagnostics import (
    TimeSeries,
    GrowthFit,
    BlowupEstimate,
    min_axis_slope,
    fit_growth_rate,
    extrapolate_blowup,
    residual,
    residual_from_states,
    symmetry_error,
    l2_norm,
)
from .config import RunConfig, ConfigError, parse_config

__version__ = "0.1.0"
