import dataclasses
import math

import numpy as np
import pytest

from invlab.config import parse_config
from invlab.diagnostics import (
    TimeSeries,
    extrapolate_blowup,
    fit_growth_rate,
    l2_norm,
    min_axis_slope,
    residual,
    symmetry_error,
)
from invlab.dynamics import ModelKind, State
from invlab.oracles import ModifiedSolution, MovingDomainSolution, UniformScalarSolution, WedgeSolution, PROFILES
from invlab.presets import oracle_solution
from invlab.runner import run
from invlab.spectral import Field, Grid2D, forward


GRID = Grid2D(32, 32)
X1, X2 = GRID.mesh()


class TestTimeSeries:
    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            TimeSeries([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            TimeSeries([0.0, 1.0], [1.0, np.inf])

    def test_window(self):
        s = TimeSeries(np.arange(5.0), np.arange(5.0) + 1)
        w = s.window(1.0, 3.0)
        assert list(w.t) == [1.0, 2.0, 3.0]


def sup_grad(f: Field) -> float:
    """The series column sup_grad_theta: max|grad theta| of the state."""
    return State(ModelKind.SINGULAR_SCALAR, 0.0, f).max_grad


class TestSupGrad:
    def test_single_mode_x2(self):
        f = Field(GRID, forward(GRID, np.sin(X2)))
        assert sup_grad(f) == pytest.approx(1.0, abs=1e-12)

    def test_constant(self):
        assert sup_grad(Field(GRID, forward(GRID, np.full(GRID.shape, 4.0)))) < 1e-13

    def test_cos_cos(self):
        f = Field(GRID, forward(GRID, np.cos(X1) * np.cos(X2)))
        value = sup_grad(f)
        # dense brute force on the closed form
        xs = np.linspace(0, 2 * math.pi, 400)
        x1m, x2m = np.meshgrid(xs, xs, indexing="ij")
        brute = np.max(np.hypot(np.sin(x1m) * np.cos(x2m), np.cos(x1m) * np.sin(x2m)))
        assert value == pytest.approx(1.0, abs=1e-10)
        assert brute == pytest.approx(1.0, abs=1e-4)

    def test_mode_amplitude_rule(self):
        # |grad| of A cos(k.x) peaks at |A| |k|
        f = Field(GRID, forward(GRID, 2.5 * np.cos(3 * X1 + 4 * X2)))
        assert sup_grad(f) == pytest.approx(2.5 * 5.0, rel=1e-10)


class TestGrowthFit:
    def test_exact_exponential(self):
        t = np.linspace(0, 3, 20)
        fit = fit_growth_rate(TimeSeries(t, np.exp(t)), (0.0, 3.0))
        assert fit.rate == pytest.approx(1.0, abs=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        t = np.linspace(0, 3, 20)
        fit = fit_growth_rate(TimeSeries(t, np.full(20, 7.0)), (0.0, 3.0))
        assert fit.rate == pytest.approx(0.0, abs=1e-12)

    def test_window_default_is_last_half(self):
        t = np.linspace(0, 4, 41)
        fit = fit_growth_rate(TimeSeries(t, np.exp(2 * t)))
        assert fit.window[0] == pytest.approx(2.0)

    def test_late_window_of_transient_exponential(self):
        # 2 e^t (e^t - 1) has asymptotic rate 2
        t = np.linspace(3.0, 6.5, 36)
        fit = fit_growth_rate(TimeSeries(t, 2 * np.exp(t) * (np.exp(t) - 1)), (4.0, 6.0))
        assert fit.rate == pytest.approx(2.0, abs=1e-2)

    def test_rejects_nonpositive_values(self):
        t = np.linspace(0, 1, 6)
        v = np.array([1.0, 2.0, 0.0, 3.0, 4.0, 5.0])
        with pytest.raises(ValueError, match="nonpositive"):
            fit_growth_rate(TimeSeries(t, v), (0.0, 1.0))

    def test_rejects_short_window(self):
        t = np.linspace(0, 1, 10)
        with pytest.raises(ValueError, match="5 samples"):
            fit_growth_rate(TimeSeries(t, np.exp(t)), (0.0, 0.2))


class TestBlowupExtrapolation:
    def test_exact_reciprocal_law(self):
        t = np.linspace(0, 0.8, 17)
        est = extrapolate_blowup(TimeSeries(t, 1.0 / (1.0 - t)), (0.0, 0.8))
        assert est.t_est == pytest.approx(1.0, abs=1e-8)
        assert est.warning is None

    def test_constant_series_never_blows_up(self):
        t = np.linspace(0, 1, 11)
        est = extrapolate_blowup(TimeSeries(t, np.full(11, 3.0)), (0.0, 1.0))
        assert est.t_est == math.inf

    def test_non_monotone_window_warns(self):
        t = np.linspace(0, 1, 11)
        v = 2.0 + np.sin(6 * t)
        est = extrapolate_blowup(TimeSeries(t, v), (0.0, 1.0))
        assert est.warning is not None


def random_points(n, seed):
    """n off-axis (x1, x2, t) points as a list of tuples, like the oracle check draws them."""
    rng = np.random.default_rng(seed)
    return list(zip(rng.uniform(-2, 2, n),
                    rng.uniform(0.05, 2, n) * rng.choice([-1, 1], n),
                    rng.uniform(0, 2, n)))


def perturbed_wedge(eps):
    """The wedge family with theta += eps x1: no longer a solution."""
    base = WedgeSolution(PROFILES["sin"])

    def sample(x1, x2, t):
        s = base.sample(x1, x2, t)
        return dataclasses.replace(s, theta=s.theta + eps * x1, dtheta_dx1=s.dtheta_dx1 + eps)

    return sample


class TestResidual:
    def test_wedge_is_exact(self):
        res_theta, res_omega = residual(WedgeSolution(PROFILES["sin"]), ModelKind.BOUSSINESQ, random_points(500, seed=0))
        assert res_theta < 1e-11
        assert res_omega < 1e-11

    def test_moving_domain_special_example(self):
        solution = MovingDomainSolution(PROFILES["identity"], PROFILES["identity"])
        pts = random_points(50, seed=1)
        res_theta, res_omega = residual(solution, ModelKind.BOUSSINESQ, pts)
        assert res_theta < 1e-11
        assert res_omega < 1e-11

    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    def test_linear_perturbation_shifts_omega_residual_exactly(self, eps):
        _, res_omega = residual(perturbed_wedge(eps), ModelKind.BOUSSINESQ, random_points(100, seed=2))
        assert res_omega == pytest.approx(eps, rel=1e-10)

    def test_stationary_scalar(self):
        solution = UniformScalarSolution(1.0)
        pts = [(0.3, 0.5, 0.1), (-1.0, -0.7, 1.5)]
        res_theta, res_omega = residual(solution, ModelKind.SINGULAR_SCALAR, pts)
        assert res_theta == 0.0
        assert res_omega is None

    @pytest.mark.parametrize(
        "family, preset",
        [("wedge", "sin"), ("moving-domain", "identity"), ("modified", "linear"),
         ("modified", "oscillatory"), ("modified", "paper-printed"), ("stationary", "const"),
         ("wedge", "perturbed")],
    )
    def test_one_array_call_matches_pointwise_calls(self, family, preset):
        if preset == "perturbed":
            sampler, model = perturbed_wedge(1e-3), ModelKind.BOUSSINESQ
        else:
            _, sampler, model, _ = oracle_solution(family, preset)
        pts = random_points(500, seed=3)
        pointwise = [residual(sampler, model, [p]) for p in pts]
        expected_omega = None if model is ModelKind.SINGULAR_SCALAR else max(r[1] for r in pointwise)
        assert residual(sampler, model, pts) == (max(r[0] for r in pointwise), expected_omega)

    def test_no_points_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            residual(WedgeSolution(PROFILES["sin"]), ModelKind.BOUSSINESQ, [])

    def test_missing_partials_rejected(self):
        solution = ModifiedSolution(PROFILES["sin"], PROFILES["sign"])

        def broken(x1, x2, t):
            s = solution.sample(x1, x2, t)
            return dataclasses.replace(s, domega_dt=None)

        with pytest.raises(ValueError, match="domega_dt"):
            residual(broken, ModelKind.MODIFIED_BOUSSINESQ, [(0.0, 0.5, 0.5)])


class TestSymmetryError:
    def test_even_field(self):
        f = Field(GRID, forward(GRID, np.cos(X2)))
        assert symmetry_error(f, "even") < 1e-15

    def test_sine_against_even(self):
        f = Field(GRID, forward(GRID, np.sin(X2)))
        assert symmetry_error(f, "even") == pytest.approx(2.0, abs=1e-12)

    def test_sine_is_odd(self):
        f = Field(GRID, forward(GRID, np.sin(X2)))
        assert symmetry_error(f, "odd") < 1e-15

    def test_unknown_parity(self):
        with pytest.raises(ValueError):
            symmetry_error(Field(GRID, forward(GRID, np.zeros(GRID.shape))), "sideways")


class TestConservationReport:
    """Invariants of the oracle scalar and of a run's conservation.csv."""

    def test_transported_oracle_preserves_sup(self):
        # sampling the wedge scalar at two times: the sup norm is invariant
        solution = WedgeSolution(PROFILES["sin"])
        grid = Grid2D(64, 256)
        _, x2 = grid.mesh()
        linf0, linf1 = (float(np.max(np.abs(solution.sample(0.0, x2, t).theta))) for t in (0.0, 1.0))
        assert abs(linf1 - linf0) / linf0 < 1e-3

    def test_run_conservation(self, tmp_path):
        run(parse_config(
            "model = singular-scalar\nic = singular-cos\nt_end = 0.25\n"
            "nx = 64\nny = 64\ndt = 0.002\ndiagnostics = conservation\n"
        ), output_dir=tmp_path)
        rows = np.genfromtxt(tmp_path / "conservation.csv", delimiter=",", names=True)
        assert rows["t"][-1] == pytest.approx(0.25, abs=1e-12)
        l2 = rows["l2_theta"]
        assert float(np.max(np.abs(l2 - l2[0]) / l2[0])) < 1e-8

    def test_csv_rendering(self, tmp_path):
        run(parse_config(
            "model = boussinesq\nic = expr: sin(x1)\nic_omega = expr: sin(x2)\nt_end = 0\n"
            "nx = 16\nny = 16\ndiagnostics = conservation\n"
        ), output_dir=tmp_path)
        text = (tmp_path / "conservation.csv").read_text()
        assert text.splitlines()[0] == "t,l2_theta,linf_theta,mean_theta,l2_omega"
        assert len(text.splitlines()) == 2


class TestAxisSlope:
    def test_matches_full_gradient_on_axis(self):
        state = State(ModelKind.SINGULAR_SCALAR, 0.0, Field(GRID, forward(GRID, np.cos(X1) * np.cos(X2))))
        assert min_axis_slope(state) == pytest.approx(-1.0, abs=1e-12)

    def test_l2_norm_of_unit_constant(self):
        f = Field(GRID, forward(GRID, np.ones(GRID.shape)))
        assert l2_norm(f) == pytest.approx(2 * math.pi, rel=1e-14)
