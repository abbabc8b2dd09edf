"""Experiment orchestration: solver runs, oracle checks, convergence studies.

A run loads no oracle machinery: oracle_check and convergence import
what they use of burgers and oracles when they are called.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ConfigError, RunConfig, config_echo
from .diagnostics import axis_error, l2_norm, min_axis_slope, residual, symmetry_error
from .dynamics import BlowupSignal, ModelKind, State, StepControl, integrate
from .presets import IC_PRESETS, build_initial_state, grid_for, oracle_solution
from .snapshots import write_snapshot
from .spectral import Grid2D, inverse

__all__ = ["RunArtifacts", "run", "OracleCheckReport", "oracle_check", "convergence", "ConvergenceRow",
           "solve_level"]

# columns of each CSV a run writes; every row is one measurement of one state
CSV_COLUMNS = {
    "series": ("t", "l2_theta", "linf_theta", "sup_grad_theta", "min_axis_slope"),
    "conservation": ("t", "l2_theta", "linf_theta", "mean_theta", "l2_omega"),
    "symmetry": ("t", "symmetry_error_theta", "symmetry_error_omega"),
}
RESIDUAL_THRESHOLD = 1e-10
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters of glibc's malloc.h


@functools.cache
def _retain_freed_memory() -> None:
    """Keep freed memory in the process instead of handing it back to the kernel.

    Each step frees arrays of a few MB; under glibc's default thresholds
    they go back to the kernel and the next ones fault their pages in anew,
    thousands of minor faults a step.  Both thresholds are set, because
    setting either one also stops glibc from moving them itself.  Outputs
    do not change.  Without a mallopt symbol (not glibc) this does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


@dataclass
class RunArtifacts:
    blowup: Optional[BlowupSignal]
    series_path: Path
    snapshot_paths: list[Path]
    steps: int


def _measure(state: State, diagnostics: tuple) -> dict[str, Optional[float]]:
    """One output row: the series columns, plus those of each requested diagnostic.

    max|grad theta| is the state's cached maximum and the axis slope is
    read from the same kinematics.  Both are read before theta's nodal
    values, so that the four kinematics arrays are not made beside them.
    None marks a column of a field the model does not evolve.
    """
    theta = state.theta
    scalar = state.model is ModelKind.SINGULAR_SCALAR
    row = {
        "t": state.t,
        "sup_grad_theta": state.max_grad,
        "min_axis_slope": min_axis_slope(state) if scalar else math.nan,
        "l2_theta": l2_norm(theta),
        "linf_theta": float(np.max(np.abs(theta.values))),
    }
    omega = state.omega
    if "conservation" in diagnostics:
        row["mean_theta"] = float(np.mean(theta.values))
        row["l2_omega"] = None if omega is None else l2_norm(omega)
    if "symmetry" in diagnostics:
        row["symmetry_error_theta"] = symmetry_error(theta, "even" if scalar else "odd")
        row["symmetry_error_omega"] = None if omega is None else symmetry_error(omega, "odd")
    return row


def _csv_value(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.17g}"


class _Schedule:
    """Output times t0 + k * interval: a state is due once it reaches the next one.

    An interval of 0 leaves only the first and the last state due.
    """

    def __init__(self, t0: float, interval: float):
        self.interval = interval
        self.next = t0 + interval
        self.last = t0

    def due(self, t: float) -> bool:
        if self.interval <= 0 or t < self.next - 1e-9:
            return False
        # one jump past t, however many output times the step crossed
        self.next += self.interval * ((t + 1e-9 - self.next) // self.interval + 1)
        self.last = t
        return True

    def missed(self, t: float) -> bool:
        """Whether a final state at t came after the last due one and still needs output."""
        return t > self.last + 1e-12


def run(cfg: RunConfig) -> RunArtifacts:
    """Execute one configured run, writing series.csv, snapshots, and meta.txt to cfg.output_dir.

    conservation.csv and symmetry.csv are written when `diagnostics` names
    them.  Every CSV row is written and flushed as its state is measured,
    so partial artifacts survive a blowup signal or a crash; the signal
    is recorded in meta.txt and reported in the returned artifacts.  In a
    used directory, an earlier run's meta.txt, CSVs and snapshots go first.
    meta.txt echoes the config.
    """
    start = time.perf_counter()
    _retain_freed_memory()
    # built before the output directory is made, so that bad initial data leaves no artifact
    pending = [build_initial_state(cfg, grid_for(cfg))]
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    owned = [outdir / "meta.txt", *(outdir / f"{name}.csv" for name in CSV_COLUMNS)]
    for path in owned + list(outdir.glob("snapshot-*.bin")):
        path.unlink(missing_ok=True)
    ctrl = StepControl(dt=cfg.dt, cfl=cfg.cfl, max_grad=cfg.max_grad)

    series_path = outdir / "series.csv"
    snapshot_paths: list[Path] = []

    def snapshot(s: State) -> None:
        path = outdir / f"snapshot-{len(snapshot_paths):04d}.bin"
        write_snapshot(path, s)
        snapshot_paths.append(path)

    with ExitStack() as stack:
        csvs = [
            (stack.enter_context(open(outdir / f"{name}.csv", "w")), columns)
            for name, columns in CSV_COLUMNS.items()
            if name == "series" or name in cfg.diagnostics
        ]
        for f, columns in csvs:
            f.write(",".join(columns) + "\n")

        def write_row(s: State) -> None:
            row = _measure(s, cfg.diagnostics)
            for f, columns in csvs:
                f.write(",".join(_csv_value(row[c]) for c in columns) + "\n")
                f.flush()

        series_due = _Schedule(pending[0].t, cfg.series_interval)
        snapshot_due = _Schedule(pending[0].t, cfg.snapshot_interval)

        def observer(s: State) -> None:
            if series_due.due(s.t):
                write_row(s)
            if snapshot_due.due(s.t):
                snapshot(s)

        write_row(pending[0])
        snapshot(pending[0])
        # popped, so integrate holds the initial state's only reference and
        # frees it once the first step replaces it
        result = integrate(pending.pop(), ctrl, cfg.t_end, observers=[observer])
        final = result.state
        if series_due.missed(final.t):
            write_row(final)
        if snapshot_due.missed(final.t):
            snapshot(final)

    wall = time.perf_counter() - start
    lines = [config_echo(cfg).rstrip("\n")]
    lines.append(f"steps = {result.steps}")
    lines.append(f"t_final = {final.t:.17g}")
    lines.append(f"wall_clock_seconds = {wall:.3f}")
    if result.blowup is not None:
        b = result.blowup
        lines.append("blowup = signalled")
        lines.append(f"blowup.t = {b.t:.17g}")
        lines.append(f"blowup.max_grad = {b.max_grad:.17g}")
        lines.append(f"blowup.reason = {b.reason}")
    else:
        lines.append("blowup = none")
    (outdir / "meta.txt").write_text("\n".join(lines) + "\n")
    return RunArtifacts(result.blowup, series_path, snapshot_paths, result.steps)


@dataclass
class OracleCheckReport:
    family: str
    preset: str
    max_theta_residual: float
    max_omega_residual: Optional[float]
    passed: bool
    npoints: int
    envelope_path: Optional[Path]


def oracle_check(
    family: str,
    preset: Optional[str] = None,
    npoints: int = 500,
    seed: int = 0,
    output_dir: Optional[Path] = None,
) -> OracleCheckReport:
    """Residual check of a closed-form family at random off-axis points.

    Fails (passed = False) when any equation residual exceeds 1e-10; a
    check of fewer than one point is a ConfigError, since it checks nothing.
    Also writes a growth-envelope CSV when an output directory is given.
    """
    if npoints < 1:
        raise ConfigError(f"npoints must be at least 1, got {npoints}")
    if seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
    from .oracles import growth_envelope

    preset, solution, model, interval = oracle_solution(family, preset)
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-2.0, 2.0, npoints)
    x2 = rng.uniform(0.05, 2.0, npoints) * rng.choice([-1.0, 1.0], npoints)
    t = rng.uniform(0.0, 2.0, npoints)
    max_theta, max_omega = residual(solution, model, np.column_stack((x1, x2, t)))
    passed = max_theta <= RESIDUAL_THRESHOLD and (max_omega is None or max_omega <= RESIDUAL_THRESHOLD)

    envelope_path = None
    if output_dir is not None:
        outdir = Path(output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        times = np.linspace(0.0, 6.0, 61)
        fields = ("theta", "omega") if model.evolves_vorticity else ("theta",)
        table = np.column_stack([times] + [growth_envelope(solution, interval, times, field=f).v for f in fields])
        rows = [",".join(["t"] + [f"sup_d{f}_dx2" for f in fields])]
        rows += [",".join(map(_csv_value, row)) for row in table]
        envelope_path = outdir / f"{family}-{preset}-envelope.csv"
        envelope_path.write_text("\n".join(rows) + "\n")

    return OracleCheckReport(family, preset, max_theta, max_omega, passed, npoints, envelope_path)


@dataclass
class ConvergenceRow:
    level: int
    nx: int
    ny: int
    dt: float
    steps: int
    error: float
    order: Optional[float]


def solve_level(cfg: RunConfig, grid: Grid2D, dt: float) -> tuple[list[np.ndarray], int]:
    """One study level: the config's initial data on grid, integrated to t_end in steps of
    at most dt.  Returns the final band spectra (State.fields order) and the steps taken."""
    _retain_freed_memory()
    result = integrate(build_initial_state(cfg, grid), StepControl(dt=dt, cfl=cfg.cfl), cfg.t_end)
    return [f.hat for f in result.state.fields], result.steps


def convergence(cfg: RunConfig, levels: int, mode: str = "temporal") -> list[ConvergenceRow]:
    """Refinement study against the exact axis solution.

    temporal: halve dt per level on the config's (nx, ny) grid (RK4 order ~ 4).
    spatial: double both nx and ny per level at fixed small dt (spectral plateau).
    A config with dt = 0 (CFL-chosen in a run) starts the study at
    dt = 8e-3 in temporal mode and runs it at dt = 5e-4 in spatial mode.
    Requires an ic preset of the config's model, whose exact axis trace
    IC_PRESETS holds.  Each row holds a solve_level run's dt, its steps
    (more than t_end/dt where the CFL bound cut steps) and its axis_error.
    """
    from .burgers import AxisProfile, BurgersSolution

    if levels < 3:
        raise ConfigError(f"need at least 3 refinement levels, got {levels}")
    if mode not in ("temporal", "spatial"):
        raise ConfigError(f"mode must be 'temporal' or 'spatial', got {mode!r}")
    model, _, axis_trace = IC_PRESETS.get(cfg.ic, (None, None, None))
    if model is not cfg.model:
        known = ", ".join(sorted(IC_PRESETS))
        raise ConfigError(
            f"convergence requires an ic preset of model {cfg.model.value} (exact axis oracle); "
            f"got ic {cfg.ic!r}, presets: {known}"
        )
    sol = BurgersSolution(AxisProfile(*axis_trace))
    if cfg.t_end >= sol.tstar:
        raise ConfigError(f"t_end must precede the axis blowup time {sol.tstar}")

    if mode == "temporal":
        dt0 = cfg.dt if cfg.dt is not None else 8e-3
        jobs = [(Grid2D(cfg.nx, cfg.ny), dt0 / 2**i) for i in range(levels)]
    else:
        dt = cfg.dt if cfg.dt is not None else 5e-4
        jobs = [(Grid2D(cfg.nx * 2**i, cfg.ny * 2**i), dt) for i in range(levels)]

    rows = []
    for i, (grid, dt) in enumerate(jobs):
        spectra, steps = solve_level(cfg, grid, dt)
        err = axis_error(inverse(grid, spectra[0]), sol, grid, cfg.t_end)
        order = math.log2(rows[-1].error / err) if i > 0 and err > 0 and rows[-1].error > 0 else None
        rows.append(ConvergenceRow(i, grid.nx, grid.ny, dt, steps, err, order))
    return rows
