"""The four benchmark workloads: inputs made from a seed, a timed body, output checks.

Every workload offers the same five steps:

  prepare(seed, workdir) -> inputs      outside all timing
  setup(inputs) -> state                what `setup_s` times after `import invlab.cli`
  body(inputs, state, outdir) -> result  what `run_s` times
  check(inputs, outdir, result, checks)  output checks at the acceptance thresholds
  fingerprint(outdir) -> bytes          output a rerun must reproduce byte for byte

The seed sets an x1 phase shift phi of the initial data and seeds the
oracle points.  Every seed writes its initial data as an `expr:`; for
seed 0 (phi = 0) the expression gives the acceptance configs'
`singular-cos` field bit for bit.  A shift changes neither the Burgers law
on the axis nor the cost of a run.

`body_takes_state` says whether `body` reads what `setup` built: the solver
bodies run the CLI, which builds its own state, so nothing is built for them.

The bodies call invlab through module attributes (`cli.main`, not a name
bound at import) so that a tracer installed later sees every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from invlab import burgers, cli, config, diagnostics, dynamics, oracles, presets, runner

TWO_PI = 2.0 * math.pi


class Checks:
    """Output checks made and failed; failures feed `fail_frac`."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def phase(seed: int) -> float:
    """x1 phase shift of the initial data for this seed."""
    if seed == 0:
        return 0.0
    return float(np.random.default_rng(seed).uniform(0.0, TWO_PI))


def _read_csv(path: Path):
    return np.genfromtxt(path, delimiter=",", names=True)


def _max_rel_dev(values: np.ndarray, reference: np.ndarray) -> float:
    return float(np.max(np.abs(values - reference) / np.abs(reference)))


def _check_slope_law(series, checks: Checks) -> None:
    # the axis obeys Burgers: min slope of cos(x1 + phi) data is -1/(1 - t)
    dev = _max_rel_dev(series["min_axis_slope"], -1.0 / (1.0 - series["t"]))
    checks.check(dev <= 0.02, f"slope column tracks -1/(1-t) within 2% (max rel dev {dev:.3e})")


def _check_l2_drift(series, checks: Checks) -> None:
    l2 = series["l2_theta"]
    drift = float(np.max(np.abs(l2 - l2[0]) / l2[0]))
    checks.check(drift <= 1e-6, f"L2(theta) drift <= 1e-6 (got {drift:.3e})")


def _meta(outdir: Path) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in (outdir / "meta.txt").read_text().splitlines())
    return {k: v for k, v in pairs}


def _check_scalar(outdir: Path, checks: Checks) -> None:
    series = _read_csv(outdir / "series.csv")
    _check_slope_law(series, checks)
    _check_l2_drift(series, checks)
    err = float(np.max(_read_csv(outdir / "symmetry.csv")["symmetry_error_theta"]))
    checks.check(err <= 1e-10, f"even-x2 symmetry error <= 1e-10 (got {err:.3e})")


def _check_blowup(outdir: Path, checks: Checks) -> None:
    _check_slope_law(_read_csv(outdir / "series.csv"), checks)
    # sup |grad theta| stays near 1 in this short window, far below
    # max_grad = 20, so no signal fires and this check cannot fail yet;
    # it guards a longer window
    meta = _meta(outdir)
    fired = meta["blowup"] != "none"
    t = float(meta["blowup.t"]) if fired else math.nan
    checks.check(not fired or 0.9 <= t <= 1.05, f"a blowup signal fires only in [0.9, 1.05] (t = {t})")


def _check_vorticity(outdir: Path, checks: Checks) -> None:
    _check_l2_drift(_read_csv(outdir / "series.csv"), checks)
    sym = _read_csv(outdir / "symmetry.csv")
    for column in ("symmetry_error_theta", "symmetry_error_omega"):
        err = float(np.max(sym[column]))
        checks.check(err <= 1e-10, f"odd-x2 {column} <= 1e-10 (got {err:.3e})")


@dataclass
class SolverInputs:
    seed: int
    phi: float
    text: str
    path: Path


@dataclass(frozen=True)
class SolverWorkload:
    """One `invlab run` through the CLI, from a config made from the seed."""

    name: str
    template: str  # config text with {theta} / {omega} initial-data slots
    theta: str  # initial theta as an expression of x1, x2 and phi
    omega: Optional[str]  # initial omega, for the vorticity models
    check_outputs: Callable[[Path, Checks], None]
    allowed_codes: tuple[int, ...] = (cli.EXIT_OK,)
    body_takes_state = False

    def prepare(self, seed: int, workdir: Path) -> SolverInputs:
        phi = phase(seed)
        theta = "expr: " + self.theta.format(phi=repr(phi))
        omega = "" if self.omega is None else "expr: " + self.omega.format(phi=repr(phi))
        text = self.template.format(theta=theta, omega=omega)
        path = workdir / f"{self.name}.cfg"
        path.write_text(text)
        return SolverInputs(seed, phi, text, path)

    def setup(self, inputs: SolverInputs):
        cfg = config.parse_config(inputs.text)
        grid = presets.grid_for(cfg)
        return presets.build_initial_state(cfg, grid)

    def body(self, inputs: SolverInputs, state, outdir: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["run", str(inputs.path), "--output", str(outdir)])

    def check(self, inputs: SolverInputs, outdir: Path, code: int, checks: Checks) -> None:
        """`code` is the CLI exit code that `body` returned."""
        checks.check(code in self.allowed_codes, f"exit code {code} in {self.allowed_codes}")
        if code in self.allowed_codes:
            self.check_outputs(outdir, checks)

    def fingerprint(self, outdir: Path) -> bytes:
        return (outdir / "series.csv").read_bytes()


SCALAR_256 = SolverWorkload(
    name="scalar-256",
    # the criterion-2 config, stopped after 20 of its 500 steps
    template=(
        "model = singular-scalar\n"
        "ic = {theta}\n"
        "t_end = 0.02\n"
        "nx = 256\n"
        "ny = 256\n"
        "dt = 0.001\n"
        "output.snapshot_interval = 0.01\n"
        "output.series_interval = 0.01\n"
        "diagnostics = symmetry\n"
    ),
    theta="cos(x1 + {phi})*cos(x2)",
    omega=None,
    check_outputs=_check_scalar,
)

BLOWUP_512 = SolverWorkload(
    name="blowup-512",
    # the criterion-3 config over its first 3 CFL steps; t_end sits about
    # half a step past the second, so no phase shift changes the count
    template=(
        "model = singular-scalar\n"
        "ic = {theta}\n"
        "t_end = 0.012\n"
        "nx = 512\n"
        "ny = 512\n"
        "max_grad = 20\n"
        "output.series_interval = 0.01\n"
    ),
    theta="cos(x1 + {phi})*cos(x2)",
    omega=None,
    check_outputs=_check_blowup,
    allowed_codes=(cli.EXIT_OK, cli.EXIT_BLOWUP),
)

VORTICITY_256 = SolverWorkload(
    name="vorticity-256",
    # 6 CFL steps; t_end sits about half a step past the fifth
    template=(
        "model = modified-boussinesq\n"
        "ic = {theta}\n"
        "ic_omega = {omega}\n"
        "t_end = 0.1\n"
        "nx = 256\n"
        "ny = 256\n"
        "output.series_interval = 0.01\n"
        "diagnostics = conservation, symmetry\n"
    ),
    theta="sin(x2)*(1 + 0.5*cos(x1 + {phi}))",
    omega="sin(x2)*cos(x1 + {phi})",
    check_outputs=_check_vorticity,
)


@dataclass
class OracleInputs:
    seed: int
    phi: float


@dataclass
class OracleState:
    profile: burgers.AxisProfile
    solution: burgers.BurgersSolution
    wedge: oracles.WedgeSolution
    modified: oracles.ModifiedSolution


# (family, preset) pairs that runner.oracle_check covers; paper-printed must fail
ORACLE_FAMILIES = (
    ("wedge", "sin"),
    ("moving-domain", "identity"),
    ("modified", "linear"),
    ("modified", "oscillatory"),
    ("modified", "paper-printed"),
    ("stationary", "const"),
)
ORACLE_NPOINTS = 500
SLOPE_TIMES = np.linspace(0.0, 0.9, 91)
EVAL_POINTS = 4096
EVAL_TIME = 0.9
PERTURBATION = 1e-3


class OracleWorkload:
    """Closed-form checks only: no transforms, the bypass for spectral work."""

    name = "oracles"
    body_takes_state = True

    def prepare(self, seed: int, workdir: Path) -> OracleInputs:
        return OracleInputs(seed, phase(seed))

    def setup(self, inputs: OracleInputs) -> OracleState:
        phi = inputs.phi
        profile = burgers.AxisProfile(lambda x: np.cos(x + phi), lambda x: -np.sin(x + phi))
        for fp in ORACLE_FAMILIES:  # what `invlab oracle-check` builds before its first residual
            presets.oracle_solution(*fp)
        return OracleState(
            profile=profile,
            solution=burgers.BurgersSolution(profile),
            wedge=oracles.WedgeSolution(oracles.PROFILES["sin"]),
            modified=oracles.ModifiedSolution(oracles.PROFILES["identity"], oracles.PROFILES["sign"]),
        )

    def body(self, inputs: OracleInputs, state: OracleState, outdir: Path) -> dict:
        rng = np.random.default_rng(inputs.seed)
        xs = rng.uniform(0.0, TWO_PI, EVAL_POINTS)
        points = list(zip(
            rng.uniform(-2.0, 2.0, ORACLE_NPOINTS),
            rng.uniform(0.05, 2.0, ORACLE_NPOINTS) * rng.choice([-1.0, 1.0], ORACLE_NPOINTS),
            rng.uniform(0.0, 2.0, ORACLE_NPOINTS),
        ))

        def perturbed(x1, x2, t):
            # the wedge family with theta += eps x1: no longer a solution
            s = state.wedge.sample(x1, x2, t)
            return dataclasses.replace(s, theta=s.theta + PERTURBATION * x1, dtheta_dx1=s.dtheta_dx1 + PERTURBATION)

        reports = {
            fp: runner.oracle_check(*fp, npoints=ORACLE_NPOINTS, seed=inputs.seed, output_dir=outdir)
            for fp in ORACLE_FAMILIES
        }
        wedge_env = oracles.growth_envelope(state.wedge, (-math.pi, math.pi), np.linspace(0.0, 3.0, 16), field="theta")
        modified_env = oracles.growth_envelope(state.modified, (0.0, 1.0), np.linspace(3.5, 6.5, 31), field="omega")
        slopes = burgers.min_slope_series(state.solution, SLOPE_TIMES)
        return {
            "reports": reports,
            "tstar": burgers.blowup_time(state.profile),
            "slopes": slopes,
            "estimate": diagnostics.extrapolate_blowup(
                diagnostics.TimeSeries(slopes.t, np.abs(slopes.v)), (0.0, 0.8)
            ),
            "xs": xs,
            "theta": burgers.evaluate_many(state.solution, xs, EVAL_TIME),
            "wedge_fit": diagnostics.fit_growth_rate(wedge_env, (0.0, 3.0)),
            "modified_fit": diagnostics.fit_growth_rate(modified_env, (4.0, 6.0)),
            "perturbed": diagnostics.residual(perturbed, dynamics.ModelKind.BOUSSINESQ, points)[1],
        }

    def check(self, inputs: OracleInputs, outdir: Path, result: dict, checks: Checks) -> None:
        # criterion 1
        tstar, est = result["tstar"], result["estimate"].t_est
        checks.check(abs(tstar - 1.0) <= 1e-10, f"blowup_time = 1 within 1e-10 (got {tstar!r})")
        checks.check(abs(est - 1.0) <= 1e-8, f"extrapolated t* = 1 within 1e-8 (got {est!r})")
        slopes = result["slopes"]
        dev = _max_rel_dev(slopes.v, -1.0 / (1.0 - slopes.t))
        checks.check(dev <= 1e-8, f"exact min slope is -1/(1-t) within 1e-8 (max rel dev {dev:.3e})")
        phi = inputs.phi
        xs, theta = result["xs"], result["theta"]
        implicit = float(np.max(np.abs(theta - np.cos(xs - EVAL_TIME * theta + phi))))
        checks.check(implicit <= 1e-12, f"evaluate_many solves theta = g(x - t theta) within 1e-12 (got {implicit:.3e})")
        # criteria 4 and 8
        for (family, preset), report in result["reports"].items():
            worst = max(report.max_theta_residual, report.max_omega_residual or 0.0)
            if preset == "paper-printed":
                ok = not report.passed and (report.max_omega_residual or 0.0) > 1e-2
                checks.check(ok, f"{family}-{preset} fails with omega residual > 1e-2 (got {worst:.3e})")
            else:
                ok = report.passed and worst <= 1e-11
                checks.check(ok, f"{family}-{preset} residual <= 1e-11 (got {worst:.3e})")
        perturbed = result["perturbed"]
        checks.check(perturbed >= PERTURBATION / 2, f"perturbed residual >= {PERTURBATION / 2} (got {perturbed:.3e})")
        # criterion 5
        rate = result["wedge_fit"].rate
        checks.check(abs(rate - 1.0) <= 1e-10, f"wedge envelope rate = 1 within 1e-10 (got {rate!r})")
        rate = result["modified_fit"].rate
        checks.check(abs(rate - 2.0) <= 0.01, f"modified omega-envelope rate = 2 within 1e-2 (got {rate!r})")

    def fingerprint(self, outdir: Path) -> bytes:
        return b"".join(p.read_bytes() for p in sorted(outdir.glob("*.csv")))


WORKLOADS = {w.name: w for w in (SCALAR_256, BLOWUP_512, VORTICITY_256, OracleWorkload())}
