"""Periodic spectral toolbox: grids, transforms, derivatives, inversions.

Fields live on a uniform doubly periodic grid; spectra hold normalized
Fourier coefficients (coefficient of the constant mode equals the mean)
in the half layout of the real transform: shape (nx, ny/2 + 1), modes
k2 = 0 .. ny/2 only.  The modes k2 < 0 follow by Hermitian symmetry.
A spectrum may store only the leading columns of that layout, the rest
being zero: dealias() returns the two-thirds band k2 = 0 .. ny/3, and
every operator keeps the width it is given.
forward() and inverse() are the one real-transform pair; the derivative,
inversion and dealiasing operators are pure functions on half spectra.
A Field keeps the representation it computed on first use (see Field).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Grid2D",
    "Field",
    "Spectrum",
    "NonFiniteFieldError",
    "forward",
    "inverse",
    "ddx1",
    "ddx2",
    "poisson_solve",
    "antideriv_x2",
    "dealias",
    "gradient",
]

TWO_PI = 2.0 * math.pi


class NonFiniteFieldError(ValueError):
    """A nodal array contains NaN or infinity (blowup/overflow, not valid data)."""


@dataclass(frozen=True)
class Grid2D:
    """Uniform grid on the periodic box [0, lx) x [0, ly).

    Node (j, k) sits at (j*lx/nx, k*ly/ny).  Nodal arrays are indexed
    [j, k] in C order, so x2 is the fastest-varying direction.

    nx, ny must be even and at least 8; powers of two transform fastest.
    """

    nx: int
    ny: int
    lx: float = TWO_PI
    ly: float = TWO_PI

    def __post_init__(self) -> None:
        for name, n in (("nx", self.nx), ("ny", self.ny)):
            if n < 8 or n % 2 != 0:
                raise ValueError(f"{name} must be even and >= 8, got {n}")
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError(f"domain periods must be positive, got lx={self.lx}, ly={self.ly}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def half_shape(self) -> tuple[int, int]:
        """Shape of a half spectrum: k2 = 0 .. ny/2."""
        return (self.nx, self.ny // 2 + 1)

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @cached_property
    def x1(self) -> np.ndarray:
        return np.arange(self.nx) * self.dx

    @cached_property
    def x2(self) -> np.ndarray:
        return np.arange(self.ny) * self.dy

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodal coordinate arrays of shape (nx, ny)."""
        return np.meshgrid(self.x1, self.x2, indexing="ij")

    @cached_property
    def k1int(self) -> np.ndarray:
        """Integer mode numbers along x1 in FFT order (Nyquist stored negative)."""
        return np.fft.fftfreq(self.nx, d=1.0 / self.nx)

    @cached_property
    def k2int(self) -> np.ndarray:
        """Integer mode numbers along x2 in the half layout: 0 .. ny/2."""
        return np.fft.rfftfreq(self.ny, d=1.0 / self.ny)

    @cached_property
    def kx(self) -> np.ndarray:
        """Angular wavenumbers along x1."""
        return (TWO_PI / self.lx) * self.k1int

    @cached_property
    def ky(self) -> np.ndarray:
        """Angular wavenumbers along x2, half layout."""
        return (TWO_PI / self.ly) * self.k2int

    @cached_property
    def kx_deriv(self) -> np.ndarray:
        # Nyquist zeroed: the odd derivative of the unpaired mode is
        # sign-ambiguous and zeroing keeps real fields real.
        k = self.kx.copy()
        k[self.nx // 2] = 0.0
        return k

    @cached_property
    def ky_deriv(self) -> np.ndarray:
        k = self.ky.copy()
        k[self.ny // 2] = 0.0
        return k

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|k|^2 on the half coefficient grid (Nyquist included; even power)."""
        return self.kx[:, None] ** 2 + self.ky[None, :] ** 2

    @cached_property
    def dealias_keep(self) -> np.ndarray:
        """Boolean mask of modes kept by the two-thirds rule."""
        keep1 = np.abs(self.k1int) <= self.nx / 3.0
        keep2 = np.abs(self.k2int) <= self.ny / 3.0
        return keep1[:, None] & keep2[None, :]


class Field:
    """Real field on a Grid2D, known by its nodal values, its half spectrum, or both.

    Nodal values have shape (nx, ny); `hat` is forward() of the values.
    Whichever of the two was not given is computed on first use and
    kept, so both are read-only: replace `values` by assignment, which
    drops the kept spectrum.
    """

    __slots__ = ("grid", "_values", "_hat")

    def __init__(self, grid: Grid2D, values: Optional[np.ndarray] = None, *, hat: Optional["Spectrum"] = None):
        self.grid = grid
        self._hat = None
        self._values = None
        if values is not None:
            self.values = values
        elif hat is None:
            raise ValueError("a field needs nodal values or a half spectrum")
        if hat is not None:
            if hat.grid != grid:
                raise ValueError("hat must be a spectrum on the field's grid")
            self._hat = hat

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = inverse(self._hat)
        return self._values

    @values.setter
    def values(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid {self.grid.shape}"
            )
        self._values = values
        self._hat = None

    @property
    def hat(self) -> "Spectrum":
        """Half spectrum; rejects non-finite values, naming the first offending node."""
        if self._hat is None:
            self._hat = forward(self.grid, self._values)
        return self._hat

    @classmethod
    def zeros(cls, grid: Grid2D) -> "Field":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_function(cls, grid: Grid2D, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "Field":
        """Sample fn(x1, x2) on the grid nodes."""
        x1, x2 = grid.mesh()
        return cls(grid, np.broadcast_to(np.asarray(fn(x1, x2), dtype=np.float64), grid.shape).copy())


@dataclass
class Spectrum:
    """Complex Fourier coefficients in the half layout, shape (nx, w).

    Axis 0 holds k1 in standard FFT order (Nyquist stored negative), axis
    1 holds k2 = 0 .. w - 1 of the rfft2 layout, w <= ny/2 + 1; the
    columns k2 >= w are zero and not stored.  Spectra of real fields are
    Hermitian-symmetric, coeff(-k) = conj(coeff(k)), so the k2 < 0 modes
    are stored only through that symmetry, except in the columns k2 = 0
    and k2 = ny/2: those are self-conjugate, holding both coeff(k1, k2)
    and coeff(-k1, k2) = conj(coeff(k1, k2)).  inverse() keeps only the
    Hermitian part of those two columns.
    """

    grid: Grid2D
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        nx, half = self.grid.half_shape
        if self.coeffs.ndim != 2 or self.coeffs.shape[0] != nx or not 1 <= self.coeffs.shape[1] <= half:
            raise ValueError(
                f"coeffs shape {self.coeffs.shape} does not fit the half layout "
                f"{self.grid.half_shape} of the grid"
            )

    @property
    def width(self) -> int:
        """Number of stored k2 columns."""
        return self.coeffs.shape[1]


def forward(grid: Grid2D, values: np.ndarray) -> Spectrum:
    """Real forward transform (rfft2), normalized so coeff(0,0) is the mean.

    Rejects non-finite input, naming the first offending node.
    """
    if not np.all(np.isfinite(values)):
        j, k = np.argwhere(~np.isfinite(values))[0]
        raise NonFiniteFieldError(
            f"non-finite field value {values[j, k]!r} at node ({j}, {k}), "
            f"x = ({j * grid.dx:.6g}, {k * grid.dy:.6g})"
        )
    return Spectrum(grid, np.fft.rfft2(values, norm="forward"))


def inverse(s: Spectrum) -> np.ndarray:
    """Real inverse transform (irfft2): the nodal values of a half spectrum.

    irfft2 zero-pads the absent columns itself, after its k1 pass, so that
    pass runs over the stored columns only.
    """
    return np.fft.irfft2(s.coeffs, s=s.grid.shape, norm="forward")


def ddx1(s: Spectrum) -> Spectrum:
    """Spectral d/dx1 (Nyquist mode of the x1 direction zeroed)."""
    return Spectrum(s.grid, s.coeffs * (1j * s.grid.kx_deriv)[:, None])


def ddx2(s: Spectrum) -> Spectrum:
    """Spectral d/dx2 (Nyquist mode of the x2 direction zeroed)."""
    return Spectrum(s.grid, s.coeffs * (1j * s.grid.ky_deriv[: s.width])[None, :])


def poisson_solve(omega: Spectrum) -> Spectrum:
    """Invert the Laplacian: returns psi with Delta psi = omega.

    Requires zero-mean omega (solvability on the torus); the result is
    gauged to zero mean.
    """
    mean = abs(omega.coeffs[0, 0])
    if mean > 1e-10:
        raise ValueError(
            f"vorticity has nonzero mean {omega.coeffs[0, 0]:.3e}; "
            "the periodic Poisson problem is not solvable"
        )
    k2 = omega.grid.k_squared[:, : omega.width].copy()
    k2[0, 0] = 1.0
    psi = -omega.coeffs / k2
    psi[0, 0] = 0.0
    return Spectrum(omega.grid, psi)


def antideriv_x2(theta: Spectrum) -> Spectrum:
    """Invert -d/dx2: returns psi with -ddx2(psi) = theta.

    Every k1 row of theta must have zero x2-mean (the k2 = 0 column),
    otherwise no periodic primitive exists.  The k2 = 0 column of the
    result is gauged to zero; the k2 Nyquist column is zeroed to match the
    derivative convention, so theta should carry no Nyquist content
    (dealiased data never does).
    """
    grid = theta.grid
    mean_col = np.abs(theta.coeffs[:, 0])
    if np.max(mean_col) > 1e-10:
        k1_bad = int(np.argmax(mean_col))
        raise ValueError(
            f"x2-mean mode at k1 index {k1_bad} is {theta.coeffs[k1_bad, 0]:.3e}; "
            "no periodic x2-antiderivative exists for this data"
        )
    ky = grid.ky[: theta.width].copy()
    ky[0] = 1.0
    psi = -theta.coeffs / (1j * ky)[None, :]
    psi[:, 0] = 0.0
    if theta.width > grid.ny // 2:
        psi[:, grid.ny // 2] = 0.0
    return Spectrum(grid, psi)


def dealias(s: Spectrum) -> Spectrum:
    """Two-thirds rule: keep the band k2 <= ny/3, with the rows |k1| > nx/3 zeroed.

    The result stores no column beyond the band, so it is at most
    (nx, ny//3 + 1) and C-contiguous.
    """
    w = min(s.width, s.grid.ny // 3 + 1)
    return Spectrum(s.grid, s.coeffs[:, :w] * s.grid.dealias_keep[:, :w])


def gradient(f: Field) -> tuple[np.ndarray, np.ndarray]:
    """Spectral (df/dx1, df/dx2) as nodal arrays.

    Costs one real forward transform, unless f already knows its half
    spectrum, and one real inverse transform per component.
    """
    hat = f.hat
    return inverse(ddx1(hat)), inverse(ddx2(hat))
