"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The two solver fixtures
(256^2 to t = 0.5 and 512^2 through the singularity time) are shared across
criteria and dominate the runtime; the whole module finishes in a few
minutes on a laptop-class machine.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import off_axis_points, perturbed_wedge

from invlab.burgers import AxisProfile, BurgersSolution, blowup_time, min_slope_series
from invlab.cli import EXIT_OK, EXIT_ORACLE_FAIL, main as cli_main
from invlab.config import parse_config
from invlab.diagnostics import TimeSeries, axis_error, extrapolate_blowup, fit_growth_rate, residual
from invlab.dynamics import ModelKind
from invlab.oracles import (
    ModifiedSolution,
    MovingDomainSolution,
    UniformScalarSolution,
    WedgeSolution,
    growth_envelope,
    PROFILES,
)
from invlab.runner import convergence, oracle_check, run
from invlab.snapshots import read_snapshot
from invlab.spectral import inverse

COS_PROFILE = AxisProfile(np.cos, lambda x: -np.sin(x))
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def run256(tmp_path_factory):
    """Criterion-2 run: 256^2, dt = 1e-3, theta0 = cos x1 cos x2, to t = 0.5."""
    cfg = parse_config(
        "model = singular-scalar\n"
        "ic = singular-cos\n"
        "t_end = 0.5\n"
        "nx = 256\n"
        "ny = 256\n"
        "dt = 0.001\n"
        "output.snapshot_interval = 0.25\n"
        "output.series_interval = 0.01\n"
        "diagnostics = symmetry\n"
    )
    out = tmp_path_factory.mktemp("run256")
    start = time.perf_counter()
    artifacts = run(replace(cfg, output_dir=str(out)))
    wall = time.perf_counter() - start
    assert artifacts.blowup is None
    assert wall < 120.0, f"criterion-2 run took {wall:.1f}s, budget is 2 min"
    series = np.genfromtxt(artifacts.series_path, delimiter=",", names=True)
    symmetry = np.genfromtxt(out / "symmetry.csv", delimiter=",", names=True)
    return artifacts, series, symmetry


@pytest.fixture(scope="module")
def run512(tmp_path_factory):
    """Criterion-3 run: 512^2, CFL-chosen dt, continued past the blowup time.

    The two-thirds-truncated dynamics saturates gradients near the grid
    limit instead of overflowing, so the experiment pins the gradient
    ceiling at 20: the signal then fires during resolved steepening,
    when the axis slope law -1/(1 - t) reaches 20 at t ~ 0.95.
    """
    cfg = parse_config(
        "model = singular-scalar\n"
        "ic = singular-cos\n"
        "t_end = 1.05\n"
        "nx = 512\n"
        "ny = 512\n"
        "max_grad = 20\n"
        "output.series_interval = 0.01\n"
    )
    out = tmp_path_factory.mktemp("run512")
    start = time.perf_counter()
    artifacts = run(replace(cfg, output_dir=str(out)))
    wall = time.perf_counter() - start
    assert wall < 900.0, f"criterion-3 run took {wall:.1f}s, budget is 15 min"
    series = np.genfromtxt(artifacts.series_path, delimiter=",", names=True)
    return artifacts, series


def test_criterion_1_burgers_blowup_time():
    start = time.perf_counter()
    tstar = blowup_time(COS_PROFILE)
    sol = BurgersSolution(COS_PROFILE)
    series = min_slope_series(sol, np.linspace(0.0, 0.8, 17))
    magnitudes = TimeSeries(series.t, np.abs(series.v))
    est = extrapolate_blowup(magnitudes, (0.0, 0.8))
    wall = time.perf_counter() - start
    ok = abs(tstar - 1.0) < 1e-10 and abs(est.t_est - 1.0) < 1e-8 and wall < 1.0
    report(
        1,
        ok,
        f"blowup_time(cos) = {tstar:.12f} (|err| {abs(tstar - 1.0):.2e} <= 1e-10), "
        f"extrapolated t* = {est.t_est:.10f} (|err| {abs(est.t_est - 1.0):.2e} <= 1e-8), "
        f"runtime {wall:.2f}s < 1s",
    )


def test_criterion_2_solver_matches_axis_oracle(run256):
    artifacts, series, _ = run256
    sol = BurgersSolution(COS_PROFILE)
    t_snap, spectra, grid = read_snapshot(artifacts.snapshot_paths[1])
    assert abs(t_snap - 0.25) < 1e-9
    axis_err = axis_error(inverse(grid, spectra["theta"]), sol, grid, t_snap)

    final = series[-1]
    assert abs(final["t"] - 0.5) < 1e-9
    slope = float(final["min_axis_slope"])
    slope_rel = abs(slope - (-2.0)) / 2.0
    # the whole slope column follows the characteristic law -1/(1 - t)
    law = -1.0 / (1.0 - series["t"])
    column_rel = float(np.max(np.abs(series["min_axis_slope"] - law) / np.abs(law)))
    ok = axis_err < 1e-4 and slope_rel < 0.02 and column_rel < 0.02
    report(
        2,
        ok,
        f"axis slice error at t=0.25 is {axis_err:.2e} <= 1e-4; "
        f"min axis slope at t=0.5 is {slope:.6f} vs -2 (rel err {slope_rel:.2e} <= 2e-2); "
        f"slope column tracks -1/(1-t) to {column_rel:.2e}",
    )


def test_criterion_3_numerical_blowup_signature(run512):
    artifacts, series = run512
    signal = artifacts.blowup
    fired = signal is not None and 0.9 <= signal.t <= 1.05
    keep = np.isfinite(series["min_axis_slope"])
    magnitudes = TimeSeries(series["t"][keep], np.abs(series["min_axis_slope"][keep]))
    est = extrapolate_blowup(magnitudes, (0.3, 0.7))
    est_ok = abs(est.t_est - 1.0) < 0.05
    detail = (
        f"blowup signal {'fired at t = %.4f (%s)' % (signal.t, signal.reason) if signal else 'did not fire'}; "
        f"extrapolated t* from [0.3, 0.7] = {est.t_est:.4f} (|err| {abs(est.t_est - 1.0):.2%} < 5%)"
    )
    report(3, fired and est_ok, detail)


def test_criterion_4_oracle_residuals():
    start = time.perf_counter()
    families = {
        "wedge-sin": (WedgeSolution(PROFILES["sin"]), ModelKind.BOUSSINESQ),
        "moving-identity": (MovingDomainSolution(PROFILES["identity"], PROFILES["identity"]), ModelKind.BOUSSINESQ),
        "modified-linear": (ModifiedSolution(PROFILES["identity"], PROFILES["sign"]), ModelKind.MODIFIED_BOUSSINESQ),
        "modified-oscillatory": (ModifiedSolution(PROFILES["sin"], PROFILES["sign"]), ModelKind.MODIFIED_BOUSSINESQ),
        "stationary-const": (UniformScalarSolution(1.0), ModelKind.SINGULAR_SCALAR),
    }
    pts = off_axis_points(500, seed=0)
    worst = 0.0
    for name, (solution, model) in families.items():
        res_theta, res_omega = residual(solution, model, pts)
        worst = max(worst, res_theta, res_omega or 0.0)

    eps = 1e-3
    _, res_omega = residual(perturbed_wedge(eps), ModelKind.BOUSSINESQ, pts)
    wall = time.perf_counter() - start
    ok = worst <= 1e-11 and res_omega >= eps / 2 and wall < 5.0
    report(
        4,
        ok,
        f"max residual over 5 families at 500 off-axis points = {worst:.2e} <= 1e-11; "
        f"eps-perturbation residual {res_omega:.3e} >= eps/2 = {eps / 2:.1e}; runtime {wall:.2f}s < 5s",
    )


def test_criterion_5_exponential_growth_rates():
    start = time.perf_counter()
    wedge = WedgeSolution(PROFILES["sin"])
    env = growth_envelope(wedge, (-math.pi, math.pi), np.linspace(0.0, 3.0, 16), field="theta")
    fit_wedge = fit_growth_rate(env, (0.0, 3.0))

    modified = ModifiedSolution(PROFILES["identity"], PROFILES["sign"])
    env_omega = growth_envelope(modified, (0.0, 1.0), np.linspace(3.5, 6.5, 31), field="omega")
    fit_modified = fit_growth_rate(env_omega, (4.0, 6.0))
    wall = time.perf_counter() - start
    ok = (
        abs(fit_wedge.rate - 1.0) < 1e-10
        and abs(fit_modified.rate - 2.0) < 0.01
        and wall < 1.0
    )
    report(
        5,
        ok,
        f"wedge envelope rate = {fit_wedge.rate:.12f} (|err| {abs(fit_wedge.rate - 1.0):.2e} <= 1e-10); "
        f"modified omega-envelope rate on [4,6] = {fit_modified.rate:.4f} (|err| {abs(fit_modified.rate - 2.0):.2e} <= 1e-2); "
        f"runtime {wall:.2f}s < 1s",
    )


def test_criterion_6_conservation_and_symmetry(run256):
    _, series, symmetry = run256
    l2 = series["l2_theta"]
    drift = float(np.max(np.abs(l2 - l2[0]) / l2[0]))
    sym_err = float(np.max(symmetry["symmetry_error_theta"]))
    ok = drift <= 1e-6 and sym_err <= 1e-10
    report(
        6,
        ok,
        f"L2(theta) relative drift through t=0.5 is {drift:.2e} <= 1e-6; "
        f"even-x2 symmetry error peaks at {sym_err:.2e} <= 1e-10",
    )


def test_criterion_7_convergence_orders():
    # the README's convergence examples run these two configs
    temporal_cfg = parse_config((CONFIGS / "temporal.cfg").read_text())
    temporal = convergence(temporal_cfg, 4, mode="temporal")
    orders = [r.order for r in temporal[1:]]
    orders_ok = all(abs(o - 4.0) <= 0.3 for o in orders)

    spatial_cfg = parse_config((CONFIGS / "spatial.cfg").read_text())
    spatial = convergence(spatial_cfg, 3, mode="spatial")
    plateau = spatial[-1].error
    spatial_ok = spatial[-1].nx == 256 and plateau <= 1e-10
    report(
        7,
        orders_ok and spatial_ok,
        f"temporal orders over three dt-halvings = {[f'{o:.2f}' for o in orders]} (each within 4 +- 0.3); "
        f"spatial axis error at 256^2, t=0.25 is {plateau:.2e} <= 1e-10",
    )


def test_criterion_8_published_pairing_discrepancy(capsys):
    printed = oracle_check("modified", "paper-printed", npoints=400, seed=1)
    consistent = oracle_check("modified", "oscillatory", npoints=400, seed=1)
    cli_code = cli_main(["oracle-check", "modified", "--preset", "paper-printed", "--npoints", "100"])
    cli_ok_code = cli_main(["oracle-check", "modified", "--preset", "oscillatory", "--npoints", "100"])
    capsys.readouterr()
    ok = (
        not printed.passed
        and printed.max_omega_residual > 1e-2
        and consistent.passed
        and cli_code == EXIT_ORACLE_FAIL
        and cli_ok_code == EXIT_OK
    )
    report(
        8,
        ok,
        f"published oscillatory pairing fails the checker (omega residual {printed.max_omega_residual:.3e}, "
        f"exit {cli_code}); the consistent pairing passes (residual {consistent.max_omega_residual:.2e}, exit {cli_ok_code})",
    )
