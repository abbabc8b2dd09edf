"""Pseudo-spectral laboratory for inviscid 2D transport models.

Three systems share one toolbox: a singular active scalar whose axis
trace obeys the inviscid Burgers equation, the 2D Boussinesq equations,
and a modified Boussinesq variant with quadratic vorticity forcing.
Exact solution families and characteristic solvers provide the ground
truth the numerical runs are measured against.

Names are imported from their modules (`from invlab.runner import run`);
the package itself binds only the transform pair.
"""

from .spectral import forward, inverse

__version__ = "0.1.0"
