import math
import tracemalloc
import weakref

import numpy as np
import pytest

from invlab import dynamics
from invlab.dynamics import (
    ModelKind,
    State,
    StepControl,
    _velocity_hat,
    admissible_dt,
    integrate,
    rk4_step,
    tendency,
)
from invlab.spectral import Field, Grid2D, NonFiniteFieldError, ddx1, ddx2, forward, inverse


GRID = Grid2D(32, 32)
X1, X2 = GRID.mesh()
ZERO = Field(GRID, forward(GRID, np.zeros(GRID.shape)))


def cos_cos_state(grid=GRID):
    x1, x2 = grid.mesh()
    return State(ModelKind.SINGULAR_SCALAR, 0.0, Field(grid, forward(grid, np.cos(x1) * np.cos(x2))))


def band_spectrum(grid, seed, zero_mean=False):
    """The two-thirds band of random data, as forward returns it."""
    hat = forward(grid, np.random.default_rng(seed).standard_normal(grid.shape))
    if zero_mean:
        hat[0, 0] = 0.0
    return hat


def random_band_limited(grid, seed, zero_x2_mean=False):
    hat = band_spectrum(grid, seed)
    if zero_x2_mean:
        hat[:, 0] = 0.0
    return Field(grid, hat)


def divergence_max(u1, u2):
    div = ddx1(GRID, forward(GRID, u1)) + ddx2(GRID, forward(GRID, u2))
    return float(np.max(np.abs(inverse(GRID, div))))


# initial fields per model; the vorticity models take the vorticity-256
# benchmark data
INITIAL_DATA = {
    ModelKind.SINGULAR_SCALAR: [lambda x1, x2: np.cos(x1) * np.cos(x2)],
    **dict.fromkeys(
        (ModelKind.BOUSSINESQ, ModelKind.MODIFIED_BOUSSINESQ),
        [lambda x1, x2: np.sin(x2) * (1 + 0.5 * np.cos(x1)), lambda x1, x2: np.sin(x2) * np.cos(x1)],
    ),
}


def count_transforms(monkeypatch):
    """Counts of the calls of np.fft.rfft2 and np.fft.irfft2 from now on."""
    counts = {"rfft2": 0, "irfft2": 0}
    for name in counts:
        transform = getattr(np.fft, name)

        def counted(*args, _name=name, _transform=transform, **kwargs):
            counts[_name] += 1
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts


def kinematics_arrays(kin):
    """The four nodal arrays of kinematics [(u1, d1 theta), (u2, d2 theta)], by name."""
    return dict(zip(("u1", "dtheta_dx1", "u2", "dtheta_dx2"), (a for pair in kin for a in pair), strict=True))


def nodal_velocity(state):
    (u1, _), (u2, _) = state.kinematics
    return u1, u2


def materialized_tendency(state):
    """tendency() written out from all four kinematics arrays at once, one
    expression per product: u1 g1 + u2 g2, then the modified forcing."""
    grid = state.grid
    (u1, g1), (u2, g2) = State(state.model, state.t, *state.fields).kinematics
    dtheta = -forward(grid, u1 * g1 + u2 * g2)
    if state.omega is None:
        return dtheta, None
    wx, wy = (inverse(grid, d(grid, state.omega.hat)) for d in (ddx1, ddx2))
    product = u1 * wx + u2 * wy
    if state.model is ModelKind.BOUSSINESQ:
        return dtheta, -forward(grid, product) + ddx1(grid, state.theta.hat)
    product += 2.0 * inverse(grid, state.theta.hat) * g2
    return dtheta, -forward(grid, product)


def four_stage_rk4_step(state, dt):
    """rk4_step written out with k1..k4 kept side by side and summed as
    a + 2 b + 2 c + d."""
    grid, model, t0 = state.grid, state.model, state.t
    y0 = [f.hat for f in state.fields]

    def rhs(t, hats):
        return [d for d in tendency(State(model, t, *(Field(grid, h) for h in hats))) if d is not None]

    k1 = rhs(t0, y0)
    k2 = rhs(t0 + dt / 2, [y + dt / 2 * k for y, k in zip(y0, k1)])
    k3 = rhs(t0 + dt / 2, [y + dt / 2 * k for y, k in zip(y0, k2)])
    k4 = rhs(t0 + dt, [y + dt * k for y, k in zip(y0, k3)])
    return [y + dt / 6 * (a + 2 * b + 2 * c + d) for y, a, b, c, d in zip(y0, k1, k2, k3, k4)]


def step_peak(model, n=256):
    """tracemalloc peak, in (n, n) nodal arrays, of building the model's
    INITIAL_DATA state on an n x n grid and taking one step from it."""
    grid = Grid2D(n, n)
    tracemalloc.start()
    try:
        fields = [Field(grid, forward(grid, fn(*grid.mesh()))) for fn in INITIAL_DATA[model]]
        new = rk4_step(State(model, 0.0, *fields), 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert new.t == 1e-3
    return peak / (grid.nx * grid.ny * 8)


class TestState:
    def test_vorticity_field_required(self):
        with pytest.raises(ValueError, match="vorticity"):
            State(ModelKind.BOUSSINESQ, 0.0, ZERO)

    def test_scalar_model_rejects_omega(self):
        with pytest.raises(ValueError):
            State(ModelKind.SINGULAR_SCALAR, 0.0, ZERO, ZERO)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            State(ModelKind.SINGULAR_SCALAR, -1.0, ZERO)

    def test_fields_on_two_grids_rejected(self):
        omega = Field(Grid2D(16, 16), forward(Grid2D(16, 16), np.zeros((16, 16))))
        with pytest.raises(ValueError, match="share one grid"):
            State(ModelKind.BOUSSINESQ, 0.0, ZERO, omega)


class TestKinematics:
    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_maxima_agree_with_hypot(self, scale):
        # at 1e200 the squares overflow while every input and hypot stay finite
        a, b = scale * np.random.default_rng(3).standard_normal((2, 16, 16))
        state = cos_cos_state(Grid2D(16, 16))
        state.kinematics = [(a, b), (b, -a)]
        expected = float(np.max(np.hypot(a, b)))
        assert state.max_speed == pytest.approx(expected, rel=4e-16)
        assert state.max_grad == pytest.approx(expected, rel=4e-16)

    def test_grad_theta_is_nodal(self):
        grid = Grid2D(32, 16)
        x1, x2 = grid.mesh()
        theta = Field(grid, forward(grid, np.sin(x1) * np.cos(2 * x2)))
        (_, gx), (_, gy) = State(ModelKind.SINGULAR_SCALAR, 0.0, theta).kinematics
        assert np.max(np.abs(gx - np.cos(x1) * np.cos(2 * x2))) < 1e-13
        assert np.max(np.abs(gy + 2 * np.sin(x1) * np.sin(2 * x2))) < 1e-13


def whole_array_max_norm(a, b):
    """_max_norm written with whole-array temporaries: a * a, then += b * b."""
    with np.errstate(over="ignore"):
        sq = a * a
        sq += b * b
        sq = float(np.max(sq))
    if not math.isfinite(sq):
        return float(np.max(np.hypot(a, b)))
    return math.sqrt(sq)


class TestMaxNorm:
    # 9 divides none of these row counts; at 256 the last block of rows is short (24, after 8 of 29)
    @pytest.mark.parametrize("shape", [(8, 8), (10, 16), (40, 16), (256, 256)], ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_the_whole_array_formula(self, shape, seed):
        a, b = np.random.default_rng(seed).standard_normal((2, *shape))
        assert dynamics._max_norm(a, b) == whole_array_max_norm(a, b)
        a[-1, -1] = 1e3  # the maximum in the last block
        assert dynamics._max_norm(a, b) == whole_array_max_norm(a, b) == math.sqrt(1e6 + b[-1, -1] * b[-1, -1])

    @pytest.mark.parametrize(
        "a_entry,b_entry",
        [(np.nan, 0.0), (np.inf, 0.0), (-np.inf, 1.0), (np.nan, np.inf), (1e200, 0.0), (1e200, -1e200)],
    )
    @pytest.mark.parametrize("row", [0, 39])
    def test_non_finite_and_overflowing_entries_match_hypot(self, a_entry, b_entry, row):
        a, b = np.random.default_rng(5).standard_normal((2, 40, 16))
        a[row, 3], b[row, 3] = a_entry, b_entry
        want = float(np.max(np.hypot(a, b)))
        for got in (dynamics._max_norm(a, b), whole_array_max_norm(a, b)):
            assert got == want or math.isnan(got) and math.isnan(want)

    def test_temporaries_stay_under_a_quarter_of_a_nodal_array(self):
        a, b = np.random.default_rng(7).standard_normal((2, 256, 256))
        tracemalloc.start()
        try:
            dynamics._max_norm(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / a.nbytes < 0.25


class TestVelocity:
    def test_singular_cos_cos(self):
        # psi = -cos(x1) sin(x2), so u = (cos x1 cos x2, sin x1 sin x2)
        state = cos_cos_state()
        u1, u2 = nodal_velocity(state)
        x1, x2 = GRID.mesh()
        assert np.max(np.abs(u1 - np.cos(x1) * np.cos(x2))) < 1e-12
        assert np.max(np.abs(u2 - np.sin(x1) * np.sin(x2))) < 1e-12

    def test_zero_fields_zero_velocity(self):
        for model in ModelKind:
            omega = ZERO if model.evolves_vorticity else None
            u1, u2 = nodal_velocity(State(model, 0.0, ZERO, omega))
            assert np.max(np.abs(u1)) == 0.0
            assert np.max(np.abs(u2)) == 0.0

    def test_boussinesq_eigenfunction(self):
        omega = Field(GRID, forward(GRID, -2 * np.sin(X1) * np.sin(X2)))
        state = State(ModelKind.BOUSSINESQ, 0.0, ZERO, omega)
        u1, u2 = nodal_velocity(state)
        assert np.max(np.abs(u1 + np.sin(X1) * np.cos(X2))) < 1e-12
        assert np.max(np.abs(u2 - np.cos(X1) * np.sin(X2))) < 1e-12

    def test_u1_identical_to_theta_for_zero_mean_data(self):
        theta = random_band_limited(GRID, 5, zero_x2_mean=True)
        state = State(ModelKind.SINGULAR_SCALAR, 0.0, theta)
        u1, _ = nodal_velocity(state)
        assert np.max(np.abs(u1 - theta.values)) < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_divergence_free_all_models(self, seed):
        # includes scalar states carrying x2-mean modes: the closure that
        # transports them must stay exactly divergence-free
        theta = random_band_limited(GRID, seed)
        u1, u2 = nodal_velocity(State(ModelKind.SINGULAR_SCALAR, 0.0, theta))
        assert divergence_max(u1, u2) < 1e-12
        omega = Field(GRID, band_spectrum(GRID, seed + 10, zero_mean=True))
        for model in (ModelKind.BOUSSINESQ, ModelKind.MODIFIED_BOUSSINESQ):
            u1, u2 = nodal_velocity(State(model, 0.0, theta, omega))
            assert divergence_max(u1, u2) < 1e-12

    def test_pure_x2_mode(self):
        # theta = sin x2 has no x2-mean: u1 = theta and u2 = -(k1/k2) theta = 0
        theta = Field(GRID, forward(GRID, np.sin(X2)))
        u1, u2 = nodal_velocity(State(ModelKind.SINGULAR_SCALAR, 0.0, theta))
        assert np.max(np.abs(u1 - theta.values)) < 1e-13
        assert np.max(np.abs(u2)) < 1e-13

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("model", [ModelKind.BOUSSINESQ, ModelKind.MODIFIED_BOUSSINESQ], ids=lambda m: m.value)
    def test_curl_is_the_vorticity(self, model, seed):
        # spectral d(u2)/dx1 - d(u1)/dx2 = omega for random zero-mean omega
        omega = band_spectrum(GRID, seed, zero_mean=True)
        u1, u2 = _velocity_hat(model, GRID, band_spectrum(GRID, seed + 10), omega)
        curl = ddx1(GRID, u2) - ddx2(GRID, u1)
        assert np.max(np.abs(curl - omega)) < 1e-13 * np.max(np.abs(omega))

    def test_closure_is_exact_on_the_axis(self):
        # theta with nonzero x2-mean still satisfies u1 = theta at x2 = 0
        theta = random_band_limited(GRID, 11)
        even = 0.5 * (theta.values + np.roll(theta.values[:, ::-1], 1, axis=1))
        state = State(ModelKind.SINGULAR_SCALAR, 0.0, Field(GRID, forward(GRID, even)))
        u1, u2 = nodal_velocity(state)
        assert np.max(np.abs(u1[:, 0] - even[:, 0])) < 1e-12
        assert np.max(np.abs(u2[:, 0])) < 1e-12


class TestTendency:
    def test_constant_scalar_is_stationary(self):
        state = State(ModelKind.SINGULAR_SCALAR, 0.0, Field(GRID, forward(GRID, np.full(GRID.shape, 2.0))))
        dtheta, domega = tendency(state)
        assert np.max(np.abs(inverse(GRID, dtheta))) < 1e-13
        assert domega is None

    def test_boussinesq_pure_forcing(self):
        state = State(ModelKind.BOUSSINESQ, 0.0, Field(GRID, forward(GRID, np.sin(X1))), ZERO)
        dtheta, domega = tendency(state)
        assert np.max(np.abs(inverse(GRID, dtheta))) < 1e-13
        assert np.max(np.abs(inverse(GRID, domega) - np.cos(X1))) < 1e-12

    def test_modified_quadratic_forcing(self):
        state = State(ModelKind.MODIFIED_BOUSSINESQ, 0.0, Field(GRID, forward(GRID, np.sin(X2))), ZERO)
        dtheta, domega = tendency(state)
        expected = -np.sin(2 * X2)
        assert np.max(np.abs(inverse(GRID, dtheta))) < 1e-13
        assert np.max(np.abs(inverse(GRID, domega) - expected)) < 1e-12

    def test_transport_has_zero_mean(self):
        state = cos_cos_state()
        dtheta, _ = tendency(state)
        assert abs(np.mean(inverse(GRID, dtheta))) < 1e-13

    # 3 divides 48 and 30: the fused forcing is exact only on an alias-free band
    @pytest.mark.parametrize("grid", [Grid2D(32, 32), Grid2D(48, 48), Grid2D(30, 40)], ids=lambda g: f"{g.nx}x{g.ny}")
    def test_modified_forcing_in_the_advection_transform_equals_its_own_transform(self, grid):
        # 2 theta d(theta)/dx2 inside the advection's forward against d/dx2 of a forward of theta^2
        state = State(
            ModelKind.MODIFIED_BOUSSINESQ, 0.0,
            Field(grid, band_spectrum(grid, seed=5, zero_mean=True)),
            Field(grid, band_spectrum(grid, seed=6, zero_mean=True)),
        )
        (u1, _), (u2, _) = state.kinematics
        gx, gy = (inverse(grid, d(grid, state.omega.hat)) for d in (ddx1, ddx2))
        separate = -forward(grid, u1 * gx + u2 * gy) - ddx2(grid, forward(grid, state.theta.values**2))
        assert max_rel(tendency(state)[1], separate) <= 1e-13

    @pytest.mark.parametrize("cached", [False, True], ids=["stage", "cached"])
    @pytest.mark.parametrize("grid", [Grid2D(32, 32), Grid2D(48, 48), Grid2D(30, 40)], ids=lambda g: f"{g.nx}x{g.ny}")
    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    def test_bit_identical_to_materialized_kinematics(self, model, grid, cached):
        # a stage streams its kinematics one direction at a time; a state
        # with cached kinematics consumes them, forming its products in
        # their buffers; both keep every rounding
        state = random_state(model, grid, seed=7)
        kin = state.kinematics if cached else None
        for got, want in zip(tendency(state), materialized_tendency(state)):
            assert got is want is None or np.array_equal(got, want)
        assert "kinematics" not in vars(state)  # a stage builds none, a cache is consumed
        if cached:
            assert kin == []  # each pair was taken out of the list before it was used

    @pytest.mark.parametrize("cached", [False, True], ids=["stage", "cached"])
    @pytest.mark.parametrize("model", [ModelKind.BOUSSINESQ, ModelKind.MODIFIED_BOUSSINESQ], ids=lambda m: m.value)
    def test_theta_is_transformed_before_domega_dx2_is_made(self, model, cached, monkeypatch):
        # so that theta's product is freed before d(omega)/dx2's inverse
        state = random_state(model, GRID, seed=9)
        if cached:
            state.kinematics
        domega_dx2 = ddx2(GRID, state.omega.hat)
        calls = []

        def recording(name, transform):
            def recorded(grid, data):
                result = transform(grid, data)
                calls.append((name, result if name == "forward" else data))  # a product, a spectrum
                return result

            return recorded

        monkeypatch.setattr(dynamics, "forward", recording("forward", forward))
        monkeypatch.setattr(dynamics, "inverse", recording("inverse", inverse))
        dtheta_hat, _ = tendency(state)
        assert [name for name, _ in calls].count("forward") == 2
        theta_forward = [i for i, (name, a) in enumerate(calls) if name == "forward" and np.array_equal(-a, dtheta_hat)]
        domega_dx2_inverse = [i for i, (name, a) in enumerate(calls) if name == "inverse" and np.array_equal(a, domega_dx2)]
        assert len(theta_forward) == len(domega_dx2_inverse) == 1
        assert theta_forward[0] < domega_dx2_inverse[0]


class TestStepControl:
    @pytest.mark.parametrize("key", ["dt", "cfl", "max_grad"])
    def test_rejects_nan(self, key):
        # a NaN dt would step with NaN, a NaN max_grad switch the ceiling off
        with pytest.raises(ValueError, match="nan"):
            StepControl(**{key: np.nan})


class TestRk4Step:
    def test_stationary_state_unchanged(self):
        state = State(ModelKind.SINGULAR_SCALAR, 0.0, Field(GRID, forward(GRID, np.full(GRID.shape, 1.5))))
        new = rk4_step(state, 1e-2)
        assert np.max(np.abs(new.theta.values - state.theta.values)) < 1e-14
        assert new.t == pytest.approx(1e-2)

    # grid size, horizon, the three dt and the reference dt per model.  The
    # scalar blows up at t* = 1, so it stops at 0.2.  The vorticity models
    # run to t = 1 on longer steps, so that their finest error (7e-11 and
    # 2e-9) stays far above roundoff.
    ORDER_RUNS = {
        ModelKind.SINGULAR_SCALAR: (64, 0.2, (8e-3, 4e-3, 2e-3), 2.5e-4),
        ModelKind.BOUSSINESQ: (32, 1.0, (4e-2, 2e-2, 1e-2), 1.25e-3),
        ModelKind.MODIFIED_BOUSSINESQ: (32, 1.0, (4e-2, 2e-2, 1e-2), 1.25e-3),
    }

    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    def test_fourth_order_convergence(self, model):
        # errors against a tiny-dt reference shrink ~16x per dt halving
        n, t_end, dts, dt_reference = self.ORDER_RUNS[model]
        grid = Grid2D(n, n)
        fields = [Field(grid, forward(grid, fn(*grid.mesh()))) for fn in INITIAL_DATA[model]]

        def run(dt):
            final = integrate(State(model, 0.0, *fields), StepControl(dt=dt), t_end).state
            return np.concatenate([f.values.ravel() for f in final.fields])

        reference = run(dt_reference)
        errors = [np.max(np.abs(run(dt) - reference)) for dt in dts]
        for e_coarse, e_fine in zip(errors, errors[1:]):
            assert 12.8 < e_coarse / e_fine < 19.2

    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    def test_bit_identical_to_the_four_stage_sum(self, model):
        # the step sums k1 + 2 k2 + 2 k3 + k4 in place, in that order
        state = random_state(model, GRID, seed=8)
        dt = 0.5 * admissible_dt(state, StepControl())
        new = rk4_step(state, dt)
        assert new.t == dt
        for field, want in zip(new.fields, four_stage_rk4_step(state, dt), strict=True):
            assert np.array_equal(field.hat, want)

    # at 1e154 the products are finite and their transform overflows, which
    # the stage check finds; at 1e160 the products overflow and forward refuses them
    @pytest.mark.parametrize("amplitude, message", [(1e154, "non-finite spectrum"), (1e160, "non-finite field value")])
    def test_non_finite_data_raises_the_spectral_error_without_warnings(self, amplitude, message):
        state = State(ModelKind.SINGULAR_SCALAR, 0.0, Field(GRID, forward(GRID, amplitude * np.cos(X1) * np.cos(X2))))
        with pytest.raises(NonFiniteFieldError, match=message):
            rk4_step(state, admissible_dt(state, StepControl()))


class TestKinematicsRelease:
    # real transforms (forward, inverse) per fixed-dt step
    STEP_TRANSFORMS = {
        ModelKind.SINGULAR_SCALAR: (4, 16),
        ModelKind.BOUSSINESQ: (8, 24),
        ModelKind.MODIFIED_BOUSSINESQ: (8, 28),
    }

    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    def test_transforms_per_step_are_pinned(self, model, monkeypatch):
        # a state of band spectra: the run's only transforms beyond the steps
        # are the four inverses of the start state's kinematics, so anything
        # that computes kinematics a second time changes the count
        fields = [Field(GRID, forward(GRID, fn(X1, X2))) for fn in INITIAL_DATA[model]]
        state = State(model, 0.0, *fields)
        counts = count_transforms(monkeypatch)
        steps = 3
        result = integrate(state, StepControl(dt=1e-2), steps * 1e-2)
        assert result.steps == steps
        forwards, inverses = self.STEP_TRANSFORMS[model]
        assert counts == {"rfft2": steps * forwards, "irfft2": steps * inverses + 4}

    def test_a_step_releases_the_start_kinematics_and_keeps_their_maxima(self, monkeypatch):
        start = cos_cos_state()
        ctrl = StepControl()
        rk4_step(start, 1e-2)
        assert "kinematics" not in vars(start)
        counts = count_transforms(monkeypatch)
        maxima = (start.max_speed, start.max_grad, admissible_dt(start, ctrl))
        assert counts == {"rfft2": 0, "irfft2": 0}
        fresh = cos_cos_state()
        assert maxima == (fresh.max_speed, fresh.max_grad, admissible_dt(fresh, ctrl))

    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    def test_a_state_stepped_from_recomputes_its_kinematics_identically(self, model):
        fields = [Field(GRID, forward(GRID, fn(X1, X2))) for fn in INITIAL_DATA[model]]
        mid = rk4_step(State(model, 0.0, *fields), 1e-2)
        for f in mid.fields:
            f.values  # cached, as a series row caches them
        rk4_step(mid, 1e-2)
        assert "kinematics" not in vars(mid)
        assert not any("values" in vars(f) for f in mid.fields)
        fresh = State(model, mid.t, *(Field(GRID, f.hat) for f in mid.fields))
        for f, g in zip(mid.fields, fresh.fields, strict=True):
            assert np.array_equal(f.values, g.values)
        want = kinematics_arrays(fresh.kinematics)
        for name, a in kinematics_arrays(mid.kinematics).items():
            assert np.array_equal(a, want[name]), name

    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    def test_nothing_nodal_of_the_start_state_outlives_k1(self, model, monkeypatch):
        # k1 reads the four kinematics arrays and, in the modified model
        # only, theta's nodal values; every other nodal array of the start
        # state is freed before k1, and all of them before k2
        start = State(model, 0.0, *(Field(GRID, forward(GRID, fn(X1, X2))) for fn in INITIAL_DATA[model]))
        nodal = [weakref.ref(a) for pair in start.kinematics for a in pair]
        nodal += [weakref.ref(f.values) for f in start.fields]
        alive = []

        def recording_tendency(stage):
            alive.append([ref() is not None for ref in nodal])
            return tendency(stage)

        monkeypatch.setattr(dynamics, "tendency", recording_tendency)
        rk4_step(start, 1e-2)
        read_by_k1 = [True] * 4 + [model is ModelKind.MODIFIED_BOUSSINESQ] + [False] * (len(start.fields) - 1)
        assert alive == [read_by_k1] + [[False] * len(nodal)] * 3
        assert "kinematics" not in vars(start)
        assert not any("values" in vars(f) for f in start.fields)

    def test_a_state_can_be_stepped_from_twice(self):
        start = cos_cos_state()
        first = rk4_step(start, 1e-2)
        second = rk4_step(start, 1e-2)  # its kinematics were released by the first step
        assert np.array_equal(first.theta.hat, second.theta.hat)

    # Stages k2-k4 stream their kinematics one direction at a time, k1
    # forms its products in the start state's kinematics, the RK4 sum is
    # formed in k1's arrays, and a vorticity stage transforms theta's
    # product before it makes d(omega)/dx2, so no stage holds four nodal
    # kinematics arrays beside its products, and k1..k4 are never all
    # kept.  At 256^2 the peaks are 6.39, 9.74 and 10.41 nodal arrays.
    def test_a_step_peaks_below_six_and_a_half_nodal_arrays(self):
        assert step_peak(ModelKind.SINGULAR_SCALAR) <= 6.5

    def test_a_boussinesq_step_peaks_below_9_85_nodal_arrays(self):
        assert step_peak(ModelKind.BOUSSINESQ) <= 9.85

    def test_a_modified_step_peaks_below_ten_and_a_half_nodal_arrays(self):
        # theta's nodal values for the forcing are made after u2 and d(omega)/dx2 are dropped
        assert step_peak(ModelKind.MODIFIED_BOUSSINESQ) <= 10.5


class TestIntegrate:
    def test_zero_span_is_identity(self):
        state = cos_cos_state()
        result = integrate(state, StepControl(dt=1e-2), 0.0)
        assert result.state is state
        assert result.steps == 0
        assert result.blowup is None

    def test_l2_theta_conserved(self):
        state = cos_cos_state(Grid2D(64, 64))
        result = integrate(state, StepControl(dt=2e-3), 0.3)
        before = np.sqrt(np.sum(state.theta.values**2))
        after = np.sqrt(np.sum(result.state.theta.values**2))
        assert abs(after - before) / before < 1e-8

    def test_l2_theta_conserved_to_roundoff_when_3_divides_the_grid(self):
        # on 48^2 the band's edge mode k = 16 = n/3 would take the alias of
        # the product mode 2k and break conservation; the band keeps k < n/3
        state = cos_cos_state(Grid2D(48, 48))
        norms = [np.sqrt(np.sum(state.theta.values**2))]
        observe = [lambda s: norms.append(np.sqrt(np.sum(s.theta.values**2)))]
        integrate(state, StepControl(dt=5e-4), 0.9, observers=observe)
        assert len(norms) == 1801
        assert max(abs(n - norms[0]) for n in norms) / norms[0] <= 1e-12

    def test_x1_independent_modified_stays_x1_independent(self):
        rho = Field(GRID, forward(GRID, np.sin(X2)))
        omega = Field(GRID, forward(GRID, np.sin(2 * X2)))
        state = State(ModelKind.MODIFIED_BOUSSINESQ, 0.0, rho, omega)
        result = integrate(state, StepControl(dt=5e-3), 1.0)
        for values in (result.state.theta.values, result.state.omega.values):
            variation = np.max(values.max(axis=0) - values.min(axis=0))
            assert variation < 1e-10

    def test_overflow_mid_step_becomes_blowup_signal(self):
        # huge but finite data overflows inside the nonlinear products;
        # the run must end with a signal, not a crash
        theta = Field(GRID, forward(GRID, 1e160 * np.cos(X1) * np.cos(X2)))
        state = State(ModelKind.SINGULAR_SCALAR, 0.0, theta)
        first_step_end = state.t + admissible_dt(state, StepControl())
        result = integrate(state, StepControl(), 1.0)
        assert result.blowup is not None
        assert result.blowup.reason == "non-finite"
        assert result.state is state
        # reported at the failed step's end, as a non-finite gradient after a step is
        assert result.blowup.t == first_step_end == pytest.approx(7.853981633974459e-162, rel=1e-15)
        assert result.blowup.max_grad == state.max_grad
        assert not isinstance(result.blowup, BaseException)  # a record, never raised

    def test_non_finite_gradient_after_a_step_becomes_blowup_signal(self, monkeypatch):
        # a step whose fields stay finite but whose max|grad theta| does not
        grad = State.max_grad
        monkeypatch.setattr(State, "max_grad", property(lambda s: math.inf if s.t > 0 else grad.func(s)))
        start = cos_cos_state()
        result = integrate(start, StepControl(dt=1e-2), 1.0)
        assert result.blowup.reason == "non-finite"
        assert result.blowup.t == 1e-2
        assert result.state is start
        assert result.steps == 0
        assert result.blowup.trace == []
        assert not isinstance(result.blowup, BaseException)

    def test_a_non_finite_speed_after_a_step_becomes_blowup_signal(self, monkeypatch):
        # a step whose fields and gradient stay finite but whose max|u| does
        # not: the run stops at its end, and takes no step of zero length from it
        speed = State.max_speed
        monkeypatch.setattr(State, "max_speed", property(lambda s: math.inf if s.t > 0 else speed.func(s)))
        lengths = []
        step = dynamics.rk4_step
        monkeypatch.setattr(dynamics, "rk4_step", lambda s, dt: lengths.append(dt) or step(s, dt))
        start = cos_cos_state()
        result = integrate(start, StepControl(dt=1e-2), 1.0)
        assert result.blowup.reason == "non-finite"
        assert result.blowup.t == 1e-2
        assert lengths == [1e-2]
        assert result.state is start
        assert result.steps == 0

    # theta_0 per model; omega_0 = 0, so the forcing alone sets the fluid in motion
    FROM_REST = {
        ModelKind.BOUSSINESQ: lambda x1, x2: np.sin(x1) * np.cos(x2),
        ModelKind.MODIFIED_BOUSSINESQ: lambda x1, x2: np.sin(x2) * (1 + 0.5 * np.cos(x1)),
    }

    @pytest.mark.parametrize("model", list(FROM_REST), ids=lambda m: m.value)
    def test_a_forced_flow_from_rest_moves_at_most_a_cell_a_step(self, model):
        # at rest the CFL bound is inf, so only the check at each step's end
        # keeps the first step from crossing the whole run
        grid = Grid2D(64, 64)

        def from_rest():
            theta = Field(grid, forward(grid, self.FROM_REST[model](*grid.mesh())))
            return State(model, 0.0, theta, Field(grid, forward(grid, np.zeros(grid.shape))))

        ends = [(0.0, 0.0)]  # (t, max|u|) at the end of each accepted step
        result = integrate(from_rest(), StepControl(), 1.0, observers=[lambda s: ends.append((s.t, s.max_speed))])
        assert result.blowup is None
        assert result.steps > 1
        assert all((t - t0) * u <= min(grid.dx, grid.dy) for (t0, _), (t, u) in zip(ends, ends[1:]))
        before = np.sqrt(np.sum(from_rest().theta.values**2))
        after = np.sqrt(np.sum(result.state.theta.values**2))
        assert abs(after - before) / before <= 1e-6
        reference = integrate(from_rest(), StepControl(dt=0.01), 1.0).state
        assert np.max(np.abs(result.state.theta.values - reference.theta.values)) <= 1e-5

    def test_the_cfl_bound_is_taken_once_per_accepted_step(self, monkeypatch):
        calls = []

        def counted(state, ctrl):
            calls.append(state.t)
            return admissible_dt(state, ctrl)

        monkeypatch.setattr(dynamics, "admissible_dt", counted)
        result = integrate(cos_cos_state(), StepControl(dt=1e-2), 3e-2)
        assert result.steps == 3
        assert len(calls) == result.steps

    def test_gradient_ceiling_raises_signal(self):
        state = cos_cos_state()
        ctrl = StepControl(dt=1e-2, max_grad=1.05)
        result = integrate(state, ctrl, 1.0)
        assert result.blowup is not None
        assert result.blowup.reason == "gradient-ceiling"
        assert result.blowup.max_grad > 1.05
        assert np.all(np.isfinite(result.state.theta.values))
        assert result.blowup.trace  # diagnostic history attached

    def test_observer_sees_every_step(self):
        times = []
        state = cos_cos_state()
        integrate(state, StepControl(dt=5e-3), 0.05, observers=[lambda s: times.append(s.t)])
        assert len(times) == 10
        assert times[-1] == pytest.approx(0.05)

    def test_the_initial_state_is_freed_once_stepping_starts(self):
        # integrate holds the only reference, so the first accepted step frees it
        refs = []

        def initial():
            state = cos_cos_state()
            refs.append(weakref.ref(state))
            return state

        alive = []
        integrate(initial(), StepControl(dt=5e-3), 0.02, observers=[lambda s: alive.append(refs[0]() is not None)])
        assert len(alive) == 4
        assert not any(alive[1:])

    def test_t_end_before_state_rejected(self):
        state = cos_cos_state()
        with pytest.raises(ValueError):
            integrate(state, StepControl(dt=1e-2), -0.5)


def random_state(model, grid, seed):
    """The two-thirds band of random nodal data: every band mode is excited."""
    rng = np.random.default_rng(seed)
    theta = Field(grid, forward(grid, rng.standard_normal(grid.shape)))
    omega = None
    if model.evolves_vorticity:
        w = rng.standard_normal(grid.shape)
        omega = Field(grid, forward(grid, w - w.mean()))
    return State(model, 0.0, theta, omega)


def complex_fft_rk4_step(state, dt):
    """One RK4 step on nodal arrays with full complex transforms, written out here
    as an independent reference for the band-spectrum step.  It inverts through
    the stream function psi.  Its wavenumbers cover every mode and come from
    np.fft.fftfreq, not from Grid2D; on the 2 pi box they are the integers."""
    grid = state.grid
    k1int = np.fft.fftfreq(grid.nx, d=1.0 / grid.nx)
    k2int = np.fft.fftfreq(grid.ny, d=1.0 / grid.ny)
    kx_deriv, ky_deriv = k1int.copy(), k2int.copy()
    kx_deriv[grid.nx // 2] = 0.0
    ky_deriv[grid.ny // 2] = 0.0
    ikx = 1j * kx_deriv[:, None]
    iky = 1j * ky_deriv[None, :]
    keep = (np.abs(k1int) < grid.nx / 3.0)[:, None] & (np.abs(k2int) < grid.ny / 3.0)[None, :]

    def fwd(values):
        return np.fft.fft2(values) / values.size

    def inv(coeffs):
        return np.fft.ifft2(coeffs * coeffs.size).real

    def velocity_coeffs(theta_c, omega_c):
        if state.model is ModelKind.SINGULAR_SCALAR:
            ky_safe = k2int.copy()
            ky_safe[0] = 1.0
            psi = -theta_c / (1j * ky_safe)[None, :]
            psi[:, 0] = 0.0
            psi[:, grid.ny // 2] = 0.0
            u1, u2 = -iky * psi, ikx * psi
            # the closure u1 += m cos x2, u2 -= m' sin x2 that carries the
            # x2-mean modes m(x1), on both k2 = +-1 columns
            m = theta_c[:, 0].copy()
            u1[0, 0] += m[0]
            m[0] = 0.0
            u1[:, 1] += 0.5 * m
            u1[:, -1] += 0.5 * m
            u2[:, 1] += 0.5j * ikx[:, 0] * m
            u2[:, -1] -= 0.5j * ikx[:, 0] * m
            return u1, u2
        k2 = k1int[:, None] ** 2 + k2int[None, :] ** 2
        k2[0, 0] = 1.0
        psi = -omega_c / k2
        psi[0, 0] = 0.0
        return -iky * psi, ikx * psi

    def rhs(arrays):
        theta_c = fwd(arrays[0])
        omega_c = fwd(arrays[1]) if len(arrays) > 1 else None
        u1c, u2c = velocity_coeffs(theta_c, omega_c)
        u1, u2 = inv(u1c), inv(u2c)

        def advect(c):
            return keep * fwd(u1 * inv(ikx * c) + u2 * inv(iky * c))

        out = [-advect(theta_c)]
        if omega_c is not None:
            domega = -advect(omega_c)
            if state.model is ModelKind.BOUSSINESQ:
                domega += ikx * theta_c
            else:
                domega -= iky * (keep * fwd(arrays[0] ** 2))
            out.append(domega)
        return [inv(c) for c in out]

    y0 = [f.values for f in state.fields]
    k1 = rhs(y0)
    k2 = rhs([y + dt / 2 * k for y, k in zip(y0, k1)])
    k3 = rhs([y + dt / 2 * k for y, k in zip(y0, k2)])
    k4 = rhs([y + dt * k for y, k in zip(y0, k3)])
    return [y + dt / 6 * (a + 2 * b + 2 * c + d) for y, a, b, c, d in zip(y0, k1, k2, k3, k4)]


def max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestHalfSpectrumStep:
    """The step inverts band spectra with irfft2, which silently keeps only the
    Hermitian part of the self-conjugate column k2 = 0 and runs no Hermitian
    check.  So every band spectrum it makes must already be the spectrum of a
    real field."""

    GRID = Grid2D(32, 32)

    @staticmethod
    def assert_real_field_spectrum(grid, hat):
        again = np.fft.rfft2(np.fft.irfft2(hat, s=grid.shape))
        half = np.zeros(grid.half_shape, dtype=complex)
        half[:, : hat.shape[1]] = hat
        assert max_rel(again, half) <= 1e-13

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_velocity_and_tendency_spectra_are_real_fields(self, model):
        state = random_state(model, self.GRID, seed=3)
        for s in (state, rk4_step(state, 0.5 * admissible_dt(state, StepControl()))):
            omega_hat = s.omega.hat if s.omega is not None else None
            for u_hat in _velocity_hat(model, self.GRID, s.theta.hat, omega_hat):
                self.assert_real_field_spectrum(self.GRID, u_hat)
            for d in tendency(s):
                if d is not None:
                    self.assert_real_field_spectrum(self.GRID, d)

    # 3 divides 48 and 30, where a cut at |k| <= n/3 would keep a mode that products alias onto
    @pytest.mark.parametrize("grid", [Grid2D(32, 32), Grid2D(48, 48), Grid2D(30, 40)], ids=lambda g: f"{g.nx}x{g.ny}")
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_step_matches_complex_fft_reference(self, model, grid):
        state = random_state(model, grid, seed=4)
        dt = 0.5 * admissible_dt(state, StepControl())
        new = rk4_step(state, dt)
        reference = complex_fft_rk4_step(state, dt)
        for field, ref in zip(new.fields, reference):
            assert max_rel(field.values, ref) <= 1e-12


class TestExactVorticityFamilies:
    """Every advection term vanishes and the fields are linear in t, which RK4
    integrates exactly, so long runs must match to roundoff.  These pin the
    forcing signs, the velocity of omega and the dealiased theta^2 forcing."""

    FAMILIES = {
        # theta = sin x1, omega = t cos x1: u = (0, t sin x1) is normal to grad theta
        ModelKind.BOUSSINESQ: (
            lambda x1, x2: np.sin(x1),
            lambda x1, x2, t: t * np.cos(x1),
        ),
        # theta = sin x2, omega = sin x2 - t sin 2x2: u = (u1(x2), 0) is normal to both gradients
        ModelKind.MODIFIED_BOUSSINESQ: (
            lambda x1, x2: np.sin(x2),
            lambda x1, x2, t: np.sin(x2) - t * np.sin(2 * x2),
        ),
    }

    @pytest.mark.parametrize("model", sorted(FAMILIES, key=lambda m: m.value))
    def test_fifty_fixed_steps_match_the_exact_solution(self, model):
        grid = Grid2D(32, 32)
        theta0, omega_at = self.FAMILIES[model]
        x1, x2 = grid.mesh()
        state = State(model, 0.0, Field(grid, forward(grid, theta0(x1, x2))), Field(grid, forward(grid, omega_at(x1, x2, 0.0))))
        result = integrate(state, StepControl(dt=0.02), 1.0)
        assert result.blowup is None
        assert result.steps == 50
        t = result.state.t
        assert t == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(result.state.theta.values - theta0(x1, x2))) <= 1e-12
        assert np.max(np.abs(result.state.omega.values - omega_at(x1, x2, t))) <= 1e-12


def manufactured_theta(x1, x2, t, closure):
    """theta_e = sin(x1+t) cos x2 + 0.3 cos x1 sin(2x2-t) and its d1, d2, dt.
    With `closure`, a mean 0.2 and the x2-mean mode m = 0.3 cos(x1-t) are added."""
    a, b = x1 + t, 2 * x2 - t
    theta = np.sin(a) * np.cos(x2) + 0.3 * np.cos(x1) * np.sin(b)
    d1 = np.cos(a) * np.cos(x2) - 0.3 * np.sin(x1) * np.sin(b)
    d2 = -np.sin(a) * np.sin(x2) + 0.6 * np.cos(x1) * np.cos(b)
    dt = np.cos(a) * np.cos(x2) - 0.3 * np.cos(x1) * np.cos(b)
    if closure:
        theta = theta + 0.2 + 0.3 * np.cos(x1 - t)
        d1 = d1 - 0.3 * np.sin(x1 - t)
        dt = dt + 0.3 * np.sin(x1 - t)
    return theta, d1, d2, dt


def manufactured_omega(x1, x2, t):
    """omega_e = (1+t) cos x1 sin x2 + 0.4 sin(2x1-t) cos x2 and its d1, d2, dt."""
    c = 2 * x1 - t
    omega = (1 + t) * np.cos(x1) * np.sin(x2) + 0.4 * np.sin(c) * np.cos(x2)
    d1 = -(1 + t) * np.sin(x1) * np.sin(x2) + 0.8 * np.cos(c) * np.cos(x2)
    d2 = (1 + t) * np.cos(x1) * np.cos(x2) - 0.4 * np.sin(c) * np.sin(x2)
    dt = np.cos(x1) * np.sin(x2) - 0.4 * np.cos(c) * np.cos(x2)
    return omega, d1, d2, dt


def manufactured_velocity(model, x1, x2, t, closure):
    """u = (-d(psi)/dx2, d(psi)/dx1), written out by hand from the stream function."""
    if model.evolves_vorticity:
        # Delta psi = omega_e: psi = -(1+t)/2 cos x1 sin x2 - 0.08 sin(2x1-t) cos x2
        c = 2 * x1 - t
        u1 = (1 + t) / 2 * np.cos(x1) * np.cos(x2) - 0.08 * np.sin(c) * np.sin(x2)
        u2 = (1 + t) / 2 * np.sin(x1) * np.sin(x2) - 0.16 * np.cos(c) * np.cos(x2)
        return u1, u2
    # -d(psi)/dx2 = theta_e without its x2-mean: psi = -sin(x1+t) sin x2 + 0.15 cos x1 cos(2x2-t)
    a, b = x1 + t, 2 * x2 - t
    u1 = np.sin(a) * np.cos(x2) + 0.3 * np.cos(x1) * np.sin(b)
    u2 = -np.cos(a) * np.sin(x2) - 0.15 * np.sin(x1) * np.cos(b)
    if closure:  # the mean stays in u1; u1 += m cos x2, u2 -= m' sin x2
        u1 = u1 + 0.2 + 0.3 * np.cos(x1 - t) * np.cos(x2)
        u2 = u2 + 0.3 * np.sin(x1 - t) * np.sin(x2)
    return u1, u2


class TestManufacturedSolutions:
    """The method of manufactured solutions (Roache, J. Fluids Eng. 124 (2002) 4).

    theta_e and omega_e are closed-form, with the advection and the forcing
    of each model active.  The source S = d_t y_e - RHS(y_e), added to
    tendency's result at each stage's time, makes y_e an exact solution of
    the forced equations.  Every mode has |k| <= 2, so each product and each
    source stays inside the 32^2 band and the only error left is RK4's:
    it falls 16-fold per halving of dt.  rk4_step calls tendency through
    the module, so the stages see the forced tendency.
    """

    GRID = Grid2D(32, 32)
    AXES = (GRID.x1[:, None], GRID.x2[None, :])  # every term is a product of an x1 and an x2 factor
    DTS = [0.1 / 2**i for i in range(4)]
    CASES = {
        "singular-scalar": (ModelKind.SINGULAR_SCALAR, False),
        "singular-scalar-x2-mean": (ModelKind.SINGULAR_SCALAR, True),
        "boussinesq": (ModelKind.BOUSSINESQ, False),
        "modified-boussinesq": (ModelKind.MODIFIED_BOUSSINESQ, False),
    }

    def exact(self, model, t, closure):
        """(value, d1, d2, dt) of theta_e, then of omega_e when the model evolves it."""
        x1, x2 = self.AXES
        fields = [manufactured_theta(x1, x2, t, closure)]
        if model.evolves_vorticity:
            fields.append(manufactured_omega(x1, x2, t))
        return fields

    def source(self, model, t, closure):
        """Nodal S of each field: d_t y_e + u_e . grad y_e - forcing(theta_e)."""
        fields = self.exact(model, t, closure)
        u1, u2 = manufactured_velocity(model, *self.AXES, t, closure)
        sources = [dt + u1 * d1 + u2 * d2 for _, d1, d2, dt in fields]
        if model is not ModelKind.SINGULAR_SCALAR:
            theta, dtheta_dx1, dtheta_dx2, _ = fields[0]
            forcing = dtheta_dx1 if model is ModelKind.BOUSSINESQ else -2 * theta * dtheta_dx2
            sources[1] -= forcing
        return sources

    def error_at_t1(self, model, closure, dt):
        fields = self.exact(model, 0.0, closure)
        state = State(model, 0.0, *(Field(self.GRID, forward(self.GRID, f[0])) for f in fields))
        # cfl = 1 admits dt = 0.1 on this grid; the step count shows that no step was cut
        result = integrate(state, StepControl(dt=dt, cfl=1.0), 1.0)
        assert result.steps == round(1.0 / dt) and result.blowup is None
        want = self.exact(model, result.state.t, closure)
        return max(float(np.max(np.abs(f.values - w[0]))) for f, w in zip(result.state.fields, want, strict=True))

    @pytest.mark.parametrize("case", list(CASES))
    def test_every_term_converges_at_fourth_order_to_the_exact_solution(self, case, monkeypatch):
        model, closure = self.CASES[case]

        def forced_tendency(stage):
            sources = [forward(self.GRID, s) for s in self.source(model, stage.t, closure)]
            dtheta, domega = tendency(stage)
            return dtheta + sources[0], None if domega is None else domega + sources[1]

        monkeypatch.setattr(dynamics, "tendency", forced_tendency)
        errors = [self.error_at_t1(model, closure, dt) for dt in self.DTS]
        orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        assert all(abs(p - 4) <= 0.3 for p in orders), (orders, errors)
        assert errors[-1] <= 1e-8, errors
