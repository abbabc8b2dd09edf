import dataclasses

import numpy as np
import pytest

from invlab.spectral import Field, Grid2D, ddx1, ddx2, forward, inverse


def random_values(grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal(grid.shape)


def random_band_limited(grid, seed=0):
    """Random real nodal values with no content outside the 2/3 band."""
    return inverse(grid, forward(grid, random_values(grid, seed)))


def padded(grid, hat):
    """A band spectrum zero-padded to the half layout of the real transform."""
    out = np.zeros(grid.half_shape, dtype=complex)
    out[:, : hat.shape[1]] = hat
    return out


def outside_rows(grid, hat):
    """The rows |k1| >= nx/3 of a band spectrum."""
    m = (grid.nx - 1) // 3
    return hat[m + 1 : grid.nx - m]


def sampled(grid, fn):
    return fn(*grid.mesh())


def self_conjugate_defect(coeffs):
    """Max |coeff(k1) - conj(coeff(-k1))| down one self-conjugate column."""
    return float(np.max(np.abs(coeffs - np.conj(np.roll(coeffs[::-1], 1)))))


class TestGrid2D:
    def test_basic(self):
        grid = Grid2D(32, 64)
        assert grid.shape == (32, 64)
        assert grid.half_shape == (32, 33)
        assert np.isclose(grid.dx, 2 * np.pi / 32)
        assert grid.x1[0] == 0.0
        assert np.isclose(grid.x2[1], 2 * np.pi / 64)

    def test_wavenumbers_integer(self):
        grid = Grid2D(16, 16)
        assert grid.k1int[1] == 1
        assert grid.k1int[8] == -8  # Nyquist stored negative
        assert list(grid.ky_deriv) == list(range(6))  # band: k2 < ny/3

    def test_the_box_is_two_pi_periodic(self):
        # no period to set: the wavenumbers are the integer mode numbers
        grid = Grid2D(16, 32)
        assert [f.name for f in dataclasses.fields(grid)] == ["nx", "ny"]
        assert grid.dy == 2 * np.pi / 32
        assert grid.k_squared[3, 4] == 25.0
        assert grid.k_squared[-2, 1] == 5.0

    def test_operator_arrays_are_half_layout(self):
        grid = Grid2D(16, 32)
        assert grid.k_squared.shape == grid.band_shape

    @pytest.mark.parametrize("nx,ny", [(7, 16), (16, 7), (4, 16), (16, 0)])
    def test_rejects_bad_sizes(self, nx, ny):
        with pytest.raises(ValueError):
            Grid2D(nx, ny)


class TestSpectrum:
    def test_field_values_and_hat_are_the_transform_pair(self):
        grid = Grid2D(16, 32)
        hat = forward(grid, random_values(grid, 5))
        assert np.array_equal(Field(grid, hat).values, inverse(grid, hat))


class TestField:
    GRID = Grid2D(16, 32)

    @pytest.mark.parametrize(
        "spectrum",
        [
            lambda grid: np.fft.rfft2(random_values(grid), norm="forward"),
            lambda grid: forward(grid, random_values(grid))[:, :4],
        ],
        ids=["full-width", "narrower"],
    )
    def test_takes_only_the_band_spectrum_of_its_grid(self, spectrum):
        with pytest.raises(ValueError, match=r"band spectrum of its grid, shape \(16, 11\)"):
            Field(self.GRID, spectrum(self.GRID))


class TestForward:
    def test_constant_mode(self):
        grid = Grid2D(16, 16)
        hat = forward(grid, np.full(grid.shape, 3.25))
        assert abs(hat[0, 0] - 3.25) < 1e-14
        hat[0, 0] = 0.0
        assert np.max(np.abs(hat)) < 1e-14

    def test_single_cosine_mode(self):
        grid = Grid2D(16, 16)
        hat = forward(grid, sampled(grid, lambda x1, x2: np.cos(x1)))
        assert abs(hat[1, 0] - 0.5) < 1e-14
        assert abs(hat[-1, 0] - 0.5) < 1e-14
        hat[1, 0] = hat[-1, 0] = 0.0
        assert np.max(np.abs(hat)) < 1e-14

    def test_rejects_nonfinite_with_location(self):
        grid = Grid2D(16, 16)
        values = np.zeros(grid.shape)
        values[3, 7] = np.nan
        with pytest.raises(ValueError, match=r"\(3, 7\)"):
            forward(grid, values)

    @pytest.mark.parametrize("seed", range(4))
    def test_roundtrip(self, seed):
        # exact on band-limited values only: forward projects onto the band
        grid = Grid2D(32, 48)
        values = random_band_limited(grid, seed)
        back = inverse(grid, forward(grid, values))
        scale = np.max(np.abs(values))
        assert np.max(np.abs(back - values)) < 1e-12 * scale


class TestInverse:
    def test_zero(self):
        grid = Grid2D(16, 16)
        values = inverse(grid, np.zeros(grid.band_shape, dtype=complex))
        assert values.shape == grid.shape
        assert np.all(values == 0.0)

    def test_cosine_pair(self):
        grid = Grid2D(16, 16)
        hat = np.zeros(grid.band_shape, dtype=complex)
        hat[1, 0] = hat[-1, 0] = 0.5
        values = inverse(grid, hat)
        expected = np.cos(grid.mesh()[0])
        assert np.max(np.abs(values - expected)) < 1e-13

    def test_lone_self_conjugate_coefficient_gives_its_hermitian_part(self):
        # the k2 = 0 column holds both k1 = 1 and its partner k1 = -1; a
        # coefficient without its partner becomes the Hermitian part, cos x1
        grid = Grid2D(16, 16)
        hat = np.zeros(grid.band_shape, dtype=complex)
        hat[1, 0] = 1.0
        values = inverse(grid, hat)
        expected = np.cos(grid.mesh()[0])
        assert np.max(np.abs(values - expected)) < 1e-13

    @pytest.mark.parametrize("seed", range(3))
    def test_spectral_roundtrip(self, seed):
        grid = Grid2D(32, 32)
        hat = forward(grid, random_values(grid, seed))
        assert self_conjugate_defect(hat[:, 0]) < 1e-14
        again = forward(grid, inverse(grid, hat))
        assert np.max(np.abs(again - hat)) < 1e-12 * np.max(np.abs(hat))


class TestDerivatives:
    def test_ddx2_sine(self):
        grid = Grid2D(32, 32)
        hat = forward(grid, sampled(grid, lambda x1, x2: np.sin(x2)))
        d = inverse(grid, ddx2(grid, hat))
        expected = np.cos(grid.mesh()[1])
        assert np.max(np.abs(d - expected)) < 1e-12

    def test_ddx1_of_the_x1_nyquist_mode_is_zero(self):
        # the band cut zeros the Nyquist row, so its odd derivative needs no special case
        grid = Grid2D(16, 16)
        hat = forward(grid, sampled(grid, lambda x1, x2: np.cos(8 * x1)))
        assert np.all(ddx1(grid, hat) == 0.0)

    def test_ddx1_constant(self):
        grid = Grid2D(16, 16)
        hat = forward(grid, np.full(grid.shape, 2.0))
        assert np.max(np.abs(ddx1(grid, hat))) < 1e-15

    def test_matches_finite_differences_at_second_order(self):
        # centered differences of the nodal values converge at O(h^2)
        # toward the spectral derivative of a smooth field
        def fd_error(n):
            grid = Grid2D(n, 16)
            values = sampled(grid, lambda x1, x2: np.exp(np.sin(x1)) + 0 * x2)
            spectral = inverse(grid, ddx1(grid, forward(grid, values)))
            fd = (np.roll(values, -1, axis=0) - np.roll(values, 1, axis=0)) / (2 * grid.dx)
            return np.max(np.abs(fd - spectral))

        e1, e2 = fd_error(64), fd_error(128)
        assert 3.5 < e1 / e2 < 4.5

    def test_derivatives_commute(self):
        grid = Grid2D(32, 32)
        hat = forward(grid, random_values(grid, 7))
        a = ddx1(grid, ddx2(grid, hat))
        b = ddx2(grid, ddx1(grid, hat))
        assert np.max(np.abs(a - b)) < 1e-15 * max(1.0, np.max(np.abs(a)))

    def test_spectral_accuracy_reaches_roundoff(self):
        # analytic data: doubling n from 16 to 32 drops the error by
        # at least 1e4 (or straight to roundoff)
        def err(n):
            grid = Grid2D(n, 8)
            values = sampled(grid, lambda x1, x2: np.exp(np.sin(x1)) + 0 * x2)
            d = inverse(grid, ddx1(grid, forward(grid, values)))
            exact = np.cos(grid.mesh()[0]) * np.exp(np.sin(grid.mesh()[0]))
            return np.max(np.abs(d - exact))

        e16, e32 = err(16), err(32)
        assert e32 < e16 / 1e4 or e32 < 1e-12


class TestDealias:
    """forward() applies the two-thirds rule: the band k2 < ny/3, with the rows
    |k1| >= nx/3 zeroed."""

    def test_band_limited_unchanged(self):
        grid = Grid2D(32, 32)
        values = sampled(grid, lambda x1, x2: np.cos(8 * x1) * np.sin(8 * x2))
        full = np.fft.rfft2(values, norm="forward")
        assert np.max(np.abs(padded(grid, forward(grid, values)) - full)) < 1e-14

    def test_idempotent(self):
        # projecting the nodal values of a band spectrum returns it
        grid = Grid2D(32, 32)
        once = forward(grid, random_values(grid, 3))
        twice = forward(grid, inverse(grid, once))
        assert np.all(outside_rows(grid, twice) == 0.0)
        assert np.max(np.abs(twice - once)) < 1e-12 * np.max(np.abs(once))

    def test_cuts_high_modes(self):
        grid = Grid2D(32, 32)
        hat = forward(grid, sampled(grid, lambda x1, x2: np.cos(12 * x1)))
        assert np.max(np.abs(hat)) < 1e-14

    def test_cuts_high_x2_modes(self):
        grid = Grid2D(32, 32)
        hat = forward(grid, sampled(grid, lambda x1, x2: np.cos(12 * x2)))
        assert np.max(np.abs(hat)) < 1e-14

    def test_product_of_band_limited_fields_is_alias_free(self):
        # fields limited to n/6 multiply into the n/3 band, so the nodal
        # product transforms without aliasing and the band cut leaves it intact
        grid = Grid2D(48, 48)
        x1, x2 = grid.mesh()
        f = np.cos(3 * x1) * np.sin(2 * x2)
        g = np.sin(4 * x1 + x2)
        back = inverse(grid, forward(grid, f * g))
        assert np.max(np.abs(back - f * g)) < 1e-12

    @pytest.mark.parametrize("grid", [Grid2D(48, 48), Grid2D(30, 40)], ids=lambda g: f"{g.nx}x{g.ny}")
    @pytest.mark.parametrize("axis", [0, 1], ids=["x1", "x2"])
    def test_square_of_an_edge_mode_leaves_only_the_mean_in_the_band(self, grid, axis):
        # cos^2(m x) = (1 + cos(2 m x))/2 with m = n//3; the alias 2m - n of
        # 2m is -m when 3 divides n, so the band must keep |k| < n/3 strictly
        n, x = grid.shape[axis], grid.mesh()[axis]
        edge = np.cos((n // 3) * x)
        hat = forward(grid, edge * edge)
        assert abs(hat[0, 0] - 0.5) < 1e-14
        hat[0, 0] = 0.0
        assert np.max(np.abs(hat)) < 1e-14


class TestBand:
    """forward() returns the two-thirds band as a contiguous array; inverse() takes
    it as the leading columns of the half layout, the rest being zero."""

    GRIDS = [Grid2D(32, 32), Grid2D(48, 48), Grid2D(30, 40)]

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
    def test_dealias_returns_the_contiguous_band(self, grid):
        hat = forward(grid, random_values(grid))
        assert hat.shape == grid.band_shape == (grid.nx, (grid.ny - 1) // 3 + 1)
        assert hat.flags.c_contiguous
        assert np.all(outside_rows(grid, hat) == 0.0)

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
    def test_inverse_equals_the_padded_inverse_bit_for_bit(self, grid):
        hat = forward(grid, random_values(grid))
        padded_inverse = np.fft.irfft2(padded(grid, hat), s=grid.shape, norm="forward")
        assert inverse(grid, hat).tobytes() == padded_inverse.tobytes()
