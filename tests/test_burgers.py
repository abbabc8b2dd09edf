import math

import numpy as np
import pytest
from scipy.optimize import brentq

from invlab import burgers
from invlab.burgers import (
    SCAN_POINTS,
    AxisProfile,
    BurgersSolution,
    blowup_time,
    evaluate_many,
    min_slope_series,
)

COS = AxisProfile(np.cos, lambda x: -np.sin(x))
# the last scan node is 2*pi - h; put the extremum halfway between it and the period
SEAM = 2 * math.pi - math.pi / SCAN_POINTS
SEAM_PROFILE = AxisProfile(lambda x: -np.sin(x - SEAM), lambda x: -np.cos(x - SEAM))


def brute_force_min(fn, n=1_000_000, period=2 * math.pi):
    xs = np.linspace(0.0, period, n, endpoint=False)
    return float(np.min(fn(xs)))


class TestBlowupTime:
    def test_cosine(self):
        # min d/dx cos = -1, so the first crossing is at t = 1
        assert abs(blowup_time(COS) - 1.0) < 1e-10
        brute = -1.0 / brute_force_min(COS.df)
        assert abs(blowup_time(COS) - brute) < 1e-8

    def test_cos_two_x(self):
        p = AxisProfile(lambda x: np.cos(2 * x), lambda x: -2 * np.sin(2 * x))
        assert abs(blowup_time(p) - 0.5) < 1e-10
        brute = -1.0 / brute_force_min(p.df)
        assert abs(blowup_time(p) - brute) < 1e-8

    def test_no_crossing_is_infinite(self):
        const = AxisProfile(lambda x: 0 * x + 2.0, lambda x: 0 * x)
        assert blowup_time(const) == math.inf
        increasing = AxisProfile(lambda x: x, lambda x: 0 * x + 1.0)
        assert blowup_time(increasing) == math.inf

    def test_minimum_between_scan_nodes(self):
        # dg = -cos(x - c) has its minimum -1 at x = c, halfway between two scan nodes,
        # where the scan alone misses it by about 3e-7
        c = 2 * math.pi * 1234.5 / SCAN_POINTS
        p = AxisProfile(lambda x: -np.sin(x - c), lambda x: -np.cos(x - c))
        assert abs(blowup_time(p) - 1.0) <= 1e-12

    def test_minimum_across_the_seam(self):
        # the best node is the last one, and the minimum lies past it: the refined
        # cell must wrap into the next period (unwrapped, t* is off by 2.9e-7)
        assert abs(blowup_time(SEAM_PROFILE) - 1.0) <= 1e-12
        series = min_slope_series(BurgersSolution(SEAM_PROFILE), [0.0])
        assert abs(-1.0 / series.v[0] - 1.0) <= 1e-12

    def test_constant_slope_is_not_refined(self):
        calls = []

        def dg(x):
            calls.append(np.shape(x))
            return 0 * x - 0.5

        assert blowup_time(AxisProfile(lambda x: -0.5 * x, dg)) == 2.0
        assert calls == [(SCAN_POINTS,)]

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_scaling_law(self, lam):
        scaled = AxisProfile(lambda x: lam * np.cos(x), lambda x: -lam * np.sin(x))
        assert abs(blowup_time(scaled) - blowup_time(COS) / lam) < 1e-9


class TestEvaluate:
    def test_stationary_characteristic(self):
        # the characteristic through pi/2 carries value 0 and does not move
        sol = BurgersSolution(COS)
        assert abs(evaluate_many(sol, [math.pi / 2], 0.5)[0]) < 1e-12

    def test_initial_data(self):
        sol = BurgersSolution(COS)
        for x in np.linspace(0, 2 * math.pi, 7):
            assert evaluate_many(sol, [float(x)], 0.0)[0] == pytest.approx(math.cos(x), abs=1e-14)

    def test_implicit_root_against_independent_solver(self):
        sol = BurgersSolution(COS)
        expected = brentq(lambda th: th - math.cos(0.0 - 0.5 * th), -1.5, 1.5, xtol=1e-14)
        assert expected == pytest.approx(0.9004, abs=1e-4)  # root of theta = cos(theta/2)
        assert abs(evaluate_many(sol, [0.0], 0.5)[0] - expected) < 1e-12

    def test_implicit_equation_satisfied(self):
        sol = BurgersSolution(COS)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = float(rng.uniform(0, 2 * math.pi))
            t = float(rng.uniform(0, 0.95))
            theta = evaluate_many(sol, [x], t)[0]
            assert abs(theta - math.cos(x - t * theta)) < 1e-13

    def test_conservation_along_characteristics(self):
        sol = BurgersSolution(COS)
        t = sol.tstar / 2
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = float(rng.uniform(0, 2 * math.pi))
            v = math.cos(x)
            assert abs(evaluate_many(sol, [x + t * v], t)[0] - v) < 1e-12

    def test_rejects_singular_times(self):
        sol = BurgersSolution(COS)
        with pytest.raises(ValueError, match="singular"):
            evaluate_many(sol, [0.0], 1.0)
        with pytest.raises(ValueError):
            evaluate_many(sol, [0.0], -0.1)

    def test_peak_across_the_seam(self):
        # g peaks between the last scan node and the period; the root bracket
        # [min g, max g] must still hold the value 1 carried from that peak
        sol = BurgersSolution(AxisProfile(lambda x: np.cos(x - SEAM), lambda x: -np.sin(x - SEAM)))
        assert abs(evaluate_many(sol, [SEAM + 0.5], 0.5)[0] - 1.0) <= 1e-12


class TestMinSlopeSeries:
    def test_cosine_closed_form(self):
        sol = BurgersSolution(COS)
        series = min_slope_series(sol, [0.0, 0.25, 0.5])
        expected = np.array([-1.0, -4.0 / 3.0, -2.0])
        assert np.max(np.abs(series.v - expected)) < 1e-8

    def test_constant_profile_all_zero(self):
        sol = BurgersSolution(AxisProfile(lambda x: 0 * x + 1.0, lambda x: 0 * x))
        series = min_slope_series(sol, [0.0, 1.0, 2.0])
        assert np.all(series.v == 0.0)

    def test_constant_slope_is_scanned_once_a_time(self):
        calls = []

        def dg(x):
            calls.append(np.shape(x))
            return 0 * x - 0.5

        sol = BurgersSolution(AxisProfile(lambda x: -0.5 * x, dg))
        calls.clear()
        assert np.all(min_slope_series(sol, [0.0, 0.5, 1.0]).v < 0.0)
        assert calls == [(SCAN_POINTS,)] * 3

    def test_a_constant_row_leaves_the_rounds(self):
        # p = 0 makes fn constant, p = 1 does not: the rounds see only the second row
        seen = []

        def fn(x, p):
            seen.append((np.shape(x), np.ravel(p).tolist()))
            return p * np.sin(x)

        minima = burgers._periodic_minimum(fn, [0.0, 1.0])
        assert seen[:2] == [((SCAN_POINTS,), [0.0]), ((SCAN_POINTS,), [1.0])]
        assert len(seen) > 2
        assert all(call == ((1, burgers.REFINE_POINTS), [1.0]) for call in seen[2:])
        assert minima[0] == 0.0 and abs(minima[1] + 1.0) <= 1e-15

    def test_a_row_flat_on_its_cell_leaves_after_that_round(self):
        # -min(cos x, 1/2) is flat on |x| < pi/3, across the seam: its best scan node
        # is x = 0, and the first round's cell [-h, h] samples that flat part alone
        seen = []

        def fn(x, p):
            seen.append(np.shape(x))
            return np.where(p > 0, -np.minimum(np.cos(x), 0.5), np.sin(x))

        minima = burgers._periodic_minimum(fn, [1.0, 0.0])
        rounds = seen[2:]
        assert len(rounds) >= 2 and rounds[0] == (2, burgers.REFINE_POINTS)
        assert all(shape == (1, burgers.REFINE_POINTS) for shape in rounds[1:])
        assert minima[0] == -0.5 and abs(minima[1] + 1.0) <= 1e-15

    def test_reciprocal_is_affine(self):
        # 1/|min slope| = 1 - t for the cosine trace
        sol = BurgersSolution(COS)
        times = np.linspace(0.0, 0.8, 9)
        series = min_slope_series(sol, times)
        recip = 1.0 / np.abs(series.v)
        assert np.max(np.abs(recip - (1.0 - times))) < 1e-8


# no symmetry about its steepest point, which lies off the scan nodes
ASYMMETRIC = AxisProfile(
    lambda x: np.cos(x) + 0.3 * np.sin(2 * x + 1),
    lambda x: -np.sin(x) + 0.6 * np.cos(2 * x + 1),
)


def eulerian_min_slope(sol, t):
    """Reference: minimum over positions x of the slope dg(xi)/(1 + t dg(xi)),
    xi = x - t theta(x), by a dense scan in x and 50-fold rescans of the best cell."""

    def slope(x):
        s0 = sol.profile.df(x - t * evaluate_many(sol, x, t))
        return s0 / (1.0 + t * s0)

    xs = np.linspace(0.0, 2 * math.pi, 20_001)
    for _ in range(8):
        values = slope(xs)
        i = int(np.argmin(values))
        best = float(values[i])
        step = xs[1] - xs[0]
        xs = np.linspace(xs[i] - step, xs[i] + step, 101)
    return best


class TestLabelScan:
    @pytest.mark.parametrize("fraction", [0.5, 0.9])
    def test_matches_an_eulerian_scan(self, fraction):
        sol = BurgersSolution(ASYMMETRIC)
        t = fraction * sol.tstar
        got = min_slope_series(sol, [t]).v[0]
        ref = eulerian_min_slope(sol, t)
        assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_solves_no_implicit_equation(self, monkeypatch):
        sol = BurgersSolution(ASYMMETRIC)

        def forbidden(*args):
            raise AssertionError("min_slope_series solved for theta")

        monkeypatch.setattr(burgers, "_evaluate_array", forbidden)
        series = min_slope_series(sol, np.linspace(0.0, 0.9 * sol.tstar, 5))
        assert np.all(np.isfinite(series.v))

    @pytest.mark.parametrize("profile", [COS, ASYMMETRIC, SEAM_PROFILE], ids=["cos", "asymmetric", "seam"])
    def test_a_family_of_times_matches_single_times(self, profile):
        # the rows of one refinement never mix: each time's minimum is bit for bit its own
        sol = BurgersSolution(profile)
        times = np.linspace(0.0, 0.95 * sol.tstar, 12)
        single = [min_slope_series(sol, [t]).v[0] for t in times]
        assert min_slope_series(sol, times).v.tobytes() == np.array(single).tobytes()

    @pytest.mark.parametrize("profile", [COS, ASYMMETRIC, SEAM_PROFILE], ids=["cos", "asymmetric", "seam"])
    def test_the_value_range_is_each_extremum_refined_alone(self, profile):
        # min g and max g are two rows of one refinement, and rows never mix
        sol = BurgersSolution(profile)
        assert sol._gmin == burgers._periodic_minimum(lambda x, _: profile.f(x))[0]
        assert sol._gmax == -burgers._periodic_minimum(lambda x, _: -profile.f(x))[0]

    def test_close_to_blowup(self):
        v = min_slope_series(BurgersSolution(COS), [0.99]).v[0]
        assert abs(v + 100.0) <= 1e-8 * 100.0

    @pytest.mark.parametrize("t", [1.0, 1.5])
    def test_rejects_times_at_or_past_blowup(self, t):
        with pytest.raises(ValueError, match="singular"):
            min_slope_series(BurgersSolution(COS), [0.5, t])
