import math
import tracemalloc
import weakref

import numpy as np
import pytest

from invlab.dynamics import (
    CFLViolationError,
    Kinematics,
    ModelKind,
    State,
    StepControl,
    _velocity_hat,
    admissible_dt,
    integrate,
    rk4_step,
    tendency,
)
from invlab.spectral import Field, Grid2D, ddx1, ddx2, forward, inverse


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


def nodal_velocity(state):
    kin = state.kinematics
    return kin.u1, kin.u2


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


class TestKinematics:
    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_maxima_agree_with_hypot(self, scale):
        # at 1e200 the squares overflow while every input and hypot stay finite
        a, b = scale * np.random.default_rng(3).standard_normal((2, 16, 16))
        state = cos_cos_state(Grid2D(16, 16))
        state.kinematics = Kinematics(a, b, b, -a)
        expected = float(np.max(np.hypot(a, b)))
        assert state.max_speed == pytest.approx(expected, rel=4e-16)
        assert state.max_grad == pytest.approx(expected, rel=4e-16)


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


class TestStepControl:
    @pytest.mark.parametrize("key", ["dt", "cfl", "max_grad"])
    def test_rejects_nan(self, key):
        # a NaN dt would step with NaN, a NaN max_grad switch the ceiling off
        with pytest.raises(ValueError, match="nan"):
            StepControl(**{key: np.nan})


class TestRk4Step:
    def test_stationary_state_unchanged(self):
        state = State(ModelKind.SINGULAR_SCALAR, 0.0, Field(GRID, forward(GRID, np.full(GRID.shape, 1.5))))
        new = rk4_step(state, StepControl(dt=1e-2))
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

    def test_cfl_violation_reports_admissible(self):
        state = cos_cos_state()
        ctrl = StepControl(dt=1.0)
        with pytest.raises(CFLViolationError) as err:
            rk4_step(state, ctrl)
        assert err.value.admissible == pytest.approx(admissible_dt(state, ctrl))

    def test_missing_dt_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            rk4_step(cos_cos_state(), StepControl())


class TestKinematicsRelease:
    # real transforms (forward, inverse) per fixed-dt step
    STEP_TRANSFORMS = {
        ModelKind.SINGULAR_SCALAR: (4, 16),
        ModelKind.BOUSSINESQ: (8, 24),
        ModelKind.MODIFIED_BOUSSINESQ: (12, 28),
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
        ctrl = StepControl(dt=1e-2)
        rk4_step(start, ctrl)
        assert "kinematics" not in vars(start)
        counts = count_transforms(monkeypatch)
        maxima = (start.max_speed, start.max_grad, admissible_dt(start, ctrl))
        assert counts == {"rfft2": 0, "irfft2": 0}
        fresh = cos_cos_state()
        assert maxima == (fresh.max_speed, fresh.max_grad, admissible_dt(fresh, ctrl))

    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    def test_a_state_stepped_from_recomputes_its_kinematics_identically(self, model):
        fields = [Field(GRID, forward(GRID, fn(X1, X2))) for fn in INITIAL_DATA[model]]
        ctrl = StepControl(dt=1e-2)
        mid = rk4_step(State(model, 0.0, *fields), ctrl)
        rk4_step(mid, ctrl)
        assert "kinematics" not in vars(mid)
        fresh = State(model, mid.t, *mid.fields).kinematics
        for name in ("u1", "u2", "dtheta_dx1", "dtheta_dx2"):
            assert np.array_equal(getattr(mid.kinematics, name), getattr(fresh, name)), name

    def test_a_step_peaks_below_twelve_nodal_arrays(self):
        # the start state's kinematics are gone before stages k2-k4 build theirs
        grid = Grid2D(256, 256)
        tracemalloc.start()
        try:
            theta = Field(grid, forward(grid, INITIAL_DATA[ModelKind.SINGULAR_SCALAR][0](*grid.mesh())))
            start = State(ModelKind.SINGULAR_SCALAR, 0.0, theta)
            new = rk4_step(start, StepControl(dt=1e-3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert new.t == 1e-3
        assert peak <= 12 * grid.nx * grid.ny * 8


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
        result = integrate(state, StepControl(), 1.0)
        assert result.blowup is not None
        assert result.blowup.reason == "non-finite"
        assert result.state is state
        # a fresh signal: the raised one's traceback holds the step's frames
        assert result.blowup.__traceback__ is None

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
        assert result.blowup.__traceback__ is None

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
        ctrl = StepControl(dt=0.5 * admissible_dt(state, StepControl()))
        for s in (state, rk4_step(state, ctrl)):
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
        new = rk4_step(state, StepControl(dt=dt))
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
