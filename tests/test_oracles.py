import math

import numpy as np
import pytest
from conftest import off_axis_points

from invlab.burgers import AxisProfile
from invlab.diagnostics import residual
from invlab.dynamics import ModelKind
from invlab.oracles import (
    FAMILIES,
    ModifiedSolution,
    MovingDomainSolution,
    UniformScalarSolution,
    WedgeSolution,
    growth_envelope,
    PROFILES,
)
from invlab.presets import oracle_solution

IDENTITY = PROFILES["identity"]
SIN = PROFILES["sin"]
SIGN = PROFILES["sign"]

WEDGE = WedgeSolution(SIN)
MOVING = MovingDomainSolution(IDENTITY, IDENTITY)
MODIFIED_LINEAR = ModifiedSolution(IDENTITY, SIGN)
MODIFIED_OSC = ModifiedSolution(SIN, SIGN)
PRINTED = oracle_solution("modified", "paper-printed")[1]


class TestProfiles:
    @pytest.mark.parametrize("name", ["identity", "sin", "sign"])
    def test_df_matches_finite_differences(self, name):
        # df = f', dW' = f and W' = dW; the nodes miss the origin, where sign jumps
        p = PROFILES[name]
        h = 1e-5
        xs = np.linspace(-3, 3, 64)
        for fn, deriv in ((p.f, p.df), (p.dW, p.f), (p.W, p.dW)):
            fd = (fn(xs + h) - fn(xs - h)) / (2 * h)
            assert np.max(np.abs(fd - deriv(xs))) < 1e-9

    def test_primitives_vanish_at_the_origin(self):
        for p in PROFILES.values():
            assert p.dW(0.0) == 0.0 and p.W(0.0) == 0.0, p.name

    def test_sign_derivative_off_origin(self):
        xs = np.array([-2.0, -0.5, 0.7, 3.0])
        assert np.all(SIGN.df(xs) == 0.0)


class TestWedge:
    def test_special_values(self):
        # theta = sin(x2 e^t): value 1 at x2 = pi/2, t = 0; slope e^t cos(x2 e^t)
        s = WEDGE.sample(0.3, math.pi / 2, 0.0)
        assert s.theta == pytest.approx(1.0, abs=1e-15)
        s = WEDGE.sample(0.0, 0.0, math.log(2.0))
        assert s.dtheta_dx2 == pytest.approx(2.0, abs=1e-14)

    def test_odd_profile_vanishes_on_the_axis(self):
        for t in (0.0, 0.7, 2.0):
            assert WEDGE.sample(1.0, 0.0, t).theta == 0.0

    def test_transport_along_characteristics(self):
        # theta is carried along x2(t) = x2(0) exp(-t)
        x2_start = 0.3 * math.e  # position at t = 0 whose characteristic reaches 0.3 at t = 1
        value = WEDGE.sample(0.0, x2_start, 0.0).theta
        carried = WEDGE.sample(0.0, 0.3, 1.0).theta
        assert carried == pytest.approx(value, abs=1e-14)
        assert carried == pytest.approx(math.sin(0.3 * math.e), abs=1e-14)

    def test_fields_piecewise(self):
        up = WEDGE.sample(1.0, 0.5, 0.0)
        down = WEDGE.sample(1.0, -0.5, 0.0)
        assert up.omega == 1.0 and down.omega == -1.0
        assert up.u1 == pytest.approx(-0.5 + 1.0)
        assert down.u1 == pytest.approx(-0.5 + 1.0)
        assert up.u2 == -0.5 and down.u2 == 0.5
        assert up.psi == pytest.approx(0.125 - 0.5)


class TestMovingDomain:
    def test_paper_special_example(self):
        # omega0 = theta0 = identity gives psi = x2^3 e^t / 6 - x1 x2 on both branches
        for x1, x2, t in [(0.4, 0.8, 0.0), (1.0, -0.6, 1.0), (-0.3, 1.2, 0.5)]:
            s = MOVING.sample(x1, x2, t)
            et = math.exp(t)
            assert s.psi == pytest.approx(x2**3 * et / 6.0 - x1 * x2, rel=1e-9, abs=1e-12)
            assert s.omega == pytest.approx(x2 * et, rel=1e-12)
            assert s.theta == pytest.approx(x2 * et, rel=1e-12)

    def test_initial_data(self):
        s = MOVING.sample(0.0, 0.9, 0.0)
        assert s.omega == pytest.approx(0.9)
        assert s.theta == pytest.approx(0.9)

    def test_scalar_gradient_growth(self):
        # d theta / dx2 at the axis is e^t for the identity profile
        s = MOVING.sample(0.0, 0.0, 2.0)
        assert s.dtheta_dx2 == pytest.approx(math.e**2, rel=1e-12)

    def test_profile_without_primitives_refused_when_built(self):
        bare = AxisProfile(np.sin, np.cos, name="bare-sin")
        with pytest.raises(ValueError, match="profile bare-sin needs W and dW for the moving-domain family"):
            MovingDomainSolution(bare, SIN)

    def test_sign_vorticity_next_to_the_axis(self):
        # u1 = x1 - |x2| on both sides of the axis, however close to it
        x2 = np.array([-9e-7, -5e-7, -1e-9, -1e-300, 0.0, 1e-300, 1e-9, 5e-7, 9e-7])
        for t in (0.0, 0.5, 2.0):
            s = MovingDomainSolution(SIGN, SIN).sample(0.3, x2, t)
            np.testing.assert_allclose(s.u1, 0.3 - np.abs(x2), rtol=1e-15, atol=1e-16)


class TestModified:
    def test_paper_point(self):
        # rho0 = identity, omega0 = sign: omega(0.5, ln 2) = 1 - 2*0.5*2*(2-1) = -1
        s = MODIFIED_LINEAR.sample(0.0, 0.5, math.log(2.0))
        assert s.omega == pytest.approx(-1.0, abs=1e-14)

    def test_initial_data(self):
        s = MODIFIED_LINEAR.sample(0.0, 0.75, 0.0)
        assert s.omega == pytest.approx(1.0)
        assert s.theta == pytest.approx(0.75)

    def test_oscillatory_closed_form(self):
        # rho0 = sin, omega0 = sign: omega = sign - (e^t - 1) sin(2 x2 e^t)
        for x2, t in [(0.3, 0.5), (-0.8, 1.2), (1.5, 0.0)]:
            s = MODIFIED_OSC.sample(0.0, x2, t)
            et = math.exp(t)
            expected = math.copysign(1.0, x2) - (et - 1.0) * math.sin(2 * x2 * et)
            assert s.omega == pytest.approx(expected, rel=1e-13)

    def test_u1_not_defined(self):
        assert MODIFIED_LINEAR.sample(0.0, 0.5, 0.1).u1 is None

    def test_profile_without_d2f_refused_when_built(self):
        # q' = 2 (rho0'^2 + rho0 rho0'') needs rho0''; sign has none
        with pytest.raises(ValueError, match="profile sign needs d2f for the modified family"):
            ModifiedSolution(SIGN, SIGN)

    def test_printed_residual_is_the_q_defect(self):
        # the modified omega residual is e^t ((theta0^2)' - q)(s); the published
        # pairing has theta0 = q = sin 2s, so it is e^t |2 sin 4s - sin 2s|
        for x1, x2, t in off_axis_points(50, 6):
            s = math.exp(t) * x2
            expected = math.exp(t) * abs(2.0 * math.sin(4.0 * s) - math.sin(2.0 * s))
            _, res_omega = residual(PRINTED, ModelKind.MODIFIED_BOUSSINESQ, [(x1, x2, t)])
            assert res_omega == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestPartialsAgainstFiniteDifferences:
    @pytest.mark.parametrize(
        "solution",
        [WEDGE, MOVING, MODIFIED_LINEAR, MODIFIED_OSC, PRINTED, UniformScalarSolution(0.7)],
        ids=["wedge", "moving", "modified-linear", "modified", "printed", "stationary"],
    )
    def test_time_and_space_partials(self, solution):
        h = 1e-5
        rng = np.random.default_rng(9)
        for _ in range(50):
            x1 = float(rng.uniform(-1, 1))
            x2 = float(rng.uniform(0.2, 1.5)) * (1 if rng.random() < 0.5 else -1)
            t = float(rng.uniform(h, 1.5))
            s = solution.sample(x1, x2, t)
            fd_t = (solution.sample(x1, x2, t + h).theta - solution.sample(x1, x2, t - h).theta) / (2 * h)
            fd_x2 = (solution.sample(x1, x2 + h, t).theta - solution.sample(x1, x2 - h, t).theta) / (2 * h)
            assert abs(fd_t - s.dtheta_dt) < 5e-7
            assert abs(fd_x2 - s.dtheta_dx2) < 5e-7
            if s.omega is not None:
                fd_wt = (solution.sample(x1, x2, t + h).omega - solution.sample(x1, x2, t - h).omega) / (2 * h)
                fd_wx2 = (solution.sample(x1, x2 + h, t).omega - solution.sample(x1, x2 - h, t).omega) / (2 * h)
                assert abs(fd_wt - s.domega_dt) < 5e-7
                assert abs(fd_wx2 - s.domega_dx2) < 5e-7

    def test_moving_domain_partials(self):
        h = 1e-5
        for x1, x2, t in [(0.5, 0.8, 0.4), (-0.2, -1.1, 1.0)]:
            s = MOVING.sample(x1, x2, t)
            fd_t = (MOVING.sample(x1, x2, t + h).omega - MOVING.sample(x1, x2, t - h).omega) / (2 * h)
            assert abs(fd_t - s.domega_dt) < 5e-8
            # u1 = -d psi / dx2 on each branch
            fd_u1 = -(MOVING.sample(x1, x2 + h, t).psi - MOVING.sample(x1, x2 - h, t).psi) / (2 * h)
            assert abs(fd_u1 - s.u1) < 5e-7


def centred(f, x, fx, h=1e-4):
    """First and second centred differences of f at x, over the steps x +- h as rounded."""
    hp, hm = (x + h) - x, x - (x - h)
    fp, fm = f(x + h), f(x - h)
    return (fp - fm) / (hp + hm), 2.0 * ((fp - fx) / hp - (fx - fm) / hm) / (hp + hm)


class TestStreamFunction:
    """The residuals of a carried family vanish whatever psi and u1 are; these tie them to omega and u2."""

    @pytest.mark.parametrize(
        "solution", [WEDGE, MOVING, MovingDomainSolution(SIN, SIN)], ids=["wedge-sin", "moving-identity", "moving-sin"]
    )
    def test_velocity_and_vorticity_are_derivatives_of_psi(self, solution):
        x1, x2, t = np.array(off_axis_points(500, 0)).T
        s = solution.sample(x1, x2, t)
        d1, dd1 = centred(lambda y: solution.sample(y, x2, t).psi, x1, s.psi)
        d2, dd2 = centred(lambda y: solution.sample(x1, y, t).psi, x2, s.psi)
        assert np.max(np.abs(dd1 + dd2 - s.omega)) < 1e-6
        assert np.max(np.abs(-d2 - s.u1)) < 1e-6
        assert np.max(np.abs(d1 - s.u2)) < 1e-6

    def test_wedge_is_the_moving_domain_of_a_sign_vorticity(self):
        # the literal wedge formulas psi = +-x2^2/2 - x1 x2 and u1 = x1 -+ x2, down to the axis
        rng = np.random.default_rng(3)
        x1 = rng.uniform(-2, 2, 500)
        x2 = rng.choice([-1.0, 1.0], 500) * 10 ** rng.uniform(-12, 0.3, 500)
        t = rng.uniform(0, 2, 500)
        s = WEDGE.sample(x1, x2, t)
        sgn = np.where(x2 >= 0, 1.0, -1.0)
        np.testing.assert_allclose(s.psi, sgn * x2 * x2 / 2.0 - x1 * x2, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(s.u1, x1 - sgn * x2, rtol=1e-14, atol=1e-15)
        np.testing.assert_array_equal(s.omega, sgn)


class TestCommonStructure:
    @pytest.mark.parametrize(
        "solution", [WEDGE, MOVING, MODIFIED_LINEAR, MODIFIED_OSC], ids=["wedge", "moving", "mod-lin", "mod-osc"]
    )
    def test_u2_is_minus_x2(self, solution):
        for x1, x2, t in off_axis_points(20, 4):
            assert solution.sample(x1, x2, t).u2 == pytest.approx(-x2, rel=1e-15)

    def test_axis_evaluation_uses_upper_branch(self):
        # every family whose omega is piecewise across x2 = 0
        for solution in (WEDGE, MODIFIED_LINEAR, MODIFIED_OSC, PRINTED):
            for t in (0.0, 0.7):
                assert solution.sample(0.3, 0.0, t).omega == 1.0, solution  # x2 >= 0 branch

    def test_stationary_velocity_is_uniform(self):
        # u = (c, 0): the one family that u2 = -x2 does not carry
        x1, x2, t = np.array(off_axis_points(20, 5)).T
        s = UniformScalarSolution(0.7).sample(x1, x2, t)
        assert s.u1.shape == s.u2.shape == x2.shape
        assert np.all(s.u1 == 0.7) and np.all(s.u2 == 0.0)


class TestGrowthEnvelope:
    def test_wedge_sin_is_exactly_exponential(self):
        times = np.linspace(0.0, 3.0, 13)
        env = growth_envelope(WEDGE, (-math.pi, math.pi), times, field="theta")
        assert np.max(np.abs(env.v - np.exp(times))) < 1e-12 * np.max(np.exp(times))

    def test_modified_linear_omega_envelope(self):
        # |d omega / dx2| = 2 e^t (e^t - 1) away from the axis
        times = np.linspace(0.5, 4.0, 8)
        env = growth_envelope(MODIFIED_LINEAR, (0.0, 1.0), times, field="omega")
        expected = 2 * np.exp(times) * (np.exp(times) - 1.0)
        assert np.max(np.abs(env.v - expected) / expected) < 1e-10

    def test_peak_between_scan_nodes(self):
        # |d theta/dx2| = e^t |cos(e^t x2 - c)| peaks at e^t; at t = 0 the peak x2 = c
        # lies halfway between two of the 4097 scan nodes on [-pi, pi]
        c = -math.pi + 2 * math.pi * 2560.5 / 4096
        shifted = WedgeSolution(AxisProfile(lambda s: np.sin(s - c), lambda s: np.cos(s - c), name="shifted"))
        times = np.array([0.0, 0.3, 0.7, 1.1])
        env = growth_envelope(shifted, (-math.pi, math.pi), times, field="theta")
        assert np.max(np.abs(env.v - np.exp(times))) <= 1e-12

    @pytest.mark.parametrize(
        "family, preset, field",
        [
            (family, preset, field)
            for family, (_, _, solutions) in FAMILIES.items()
            for preset, solution in solutions.items()
            for field in ("theta", "omega")
            if hasattr(solution, f"d{field}_dx2")
        ],
    )
    def test_a_family_of_times_matches_single_times(self, family, preset, field):
        # the rows of one refinement never mix: each time's sup is bit for bit its own
        _, solution, _, interval = oracle_solution(family, preset)
        times = np.linspace(0.0, 6.0, 61)
        single = [growth_envelope(solution, interval, [t], field=field).v[0] for t in times]
        env = growth_envelope(solution, interval, times, field=field)
        assert env.v.tobytes() == np.array(single).tobytes()

    def test_initial_value_is_profile_derivative_sup(self):
        env = growth_envelope(WEDGE, (-math.pi, math.pi), [0.0], field="theta")
        assert env.v[0] == pytest.approx(1.0, abs=1e-12)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="field"):
            growth_envelope(WEDGE, (-1, 1), [0.0, 1.0], field="psi")

    @pytest.mark.parametrize("interval", [(1.0, 1.0), (1.0, -1.0)])
    def test_empty_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="positive length"):
            growth_envelope(WEDGE, interval, [0.0, 1.0], field="theta")
