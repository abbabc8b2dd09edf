"""Periodic spectral toolbox: grid, transforms, derivatives, dealiasing.

Fields live on a uniform grid of the doubly periodic box [0, 2 pi)^2, so
the wavenumbers are the integer mode numbers k1, k2.  Spectra hold
normalized Fourier coefficients (coefficient of the constant mode equals
the mean) in the half layout of the real transform: shape (nx, ny/2 + 1),
modes k2 = 0 .. ny/2 only.  The modes k2 < 0 follow by Hermitian symmetry.
A spectrum may store only the leading columns of that layout, the rest
being zero: forward() returns the full half layout, dealias() the
two-thirds band k2 = 0 .. ny/3, and every operator keeps the width it is
given.
forward() and inverse() are the one real-transform pair.  A derivative
multiplies each coefficient by its Fourier symbol, i k1 for d/dx1 and
i k2 for d/dx2, with the unpaired Nyquist mode of that direction zeroed.
A Field is a band spectrum; its nodal values are computed on first use
and kept (see Field).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    "dealias",
    "gradient",
]

TWO_PI = 2.0 * math.pi


class NonFiniteFieldError(ValueError):
    """A nodal array contains NaN or infinity (blowup/overflow, not valid data)."""


@dataclass(frozen=True)
class Grid2D:
    """Uniform grid on the periodic box [0, 2 pi)^2.

    Node (j, k) sits at (j*dx, k*dy), dx = 2 pi/nx and dy = 2 pi/ny.
    Nodal arrays are indexed [j, k] in C order, so x2 is the
    fastest-varying direction.

    nx, ny must be even and at least 8; powers of two transform fastest.
    """

    nx: int
    ny: int

    def __post_init__(self) -> None:
        for name, n in (("nx", self.nx), ("ny", self.ny)):
            if n < 8 or n % 2 != 0:
                raise ValueError(f"{name} must be even and >= 8, got {n}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def half_shape(self) -> tuple[int, int]:
        """Shape of a half spectrum: k2 = 0 .. ny/2."""
        return (self.nx, self.ny // 2 + 1)

    @property
    def band_shape(self) -> tuple[int, int]:
        """Shape of the two-thirds band: k2 = 0 .. ny/3."""
        return (self.nx, self.ny // 3 + 1)

    @property
    def dx(self) -> float:
        return TWO_PI / self.nx

    @property
    def dy(self) -> float:
        return TWO_PI / self.ny

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
    def kx_deriv(self) -> np.ndarray:
        # Nyquist zeroed: the odd derivative of the unpaired mode is
        # sign-ambiguous and zeroing keeps real fields real.
        k = self.k1int.copy()
        k[self.nx // 2] = 0.0
        return k

    @cached_property
    def ky_deriv(self) -> np.ndarray:
        k = self.k2int.copy()
        k[self.ny // 2] = 0.0
        return k

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|k|^2 on the half coefficient grid (Nyquist included; even power)."""
        return self.k1int[:, None] ** 2 + self.k2int[None, :] ** 2


class Field:
    """Real field on a Grid2D, known by its two-thirds band spectrum.

    `hat` is a Spectrum of shape grid.band_shape, as dealias() returns it:
    the columns k2 = 0 .. ny/3 with the rows |k1| > nx/3 zero.  The nodal
    values, shape (nx, ny), are inverse(hat), computed on first use and
    kept; neither is changed after the field is built.
    """

    __slots__ = ("grid", "hat", "_values")

    def __init__(self, grid: Grid2D, hat: "Spectrum"):
        if hat.grid != grid or hat.coeffs.shape != grid.band_shape:
            raise ValueError(
                f"a field takes the two-thirds band spectrum of its grid, shape {grid.band_shape}; "
                f"got shape {hat.coeffs.shape} on grid {hat.grid.shape}"
            )
        self.grid = grid
        self.hat = hat
        self._values = None

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = inverse(self.hat)
        return self._values


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

    Rejects non-finite input, naming the first offending node.  Both
    passes of rfft2 write into one half-layout buffer.
    """
    if not np.all(np.isfinite(values)):
        j, k = np.argwhere(~np.isfinite(values))[0]
        raise NonFiniteFieldError(
            f"non-finite field value {values[j, k]!r} at node ({j}, {k}), "
            f"x = ({j * grid.dx:.6g}, {k * grid.dy:.6g})"
        )
    out = np.empty(grid.half_shape, dtype=np.complex128)
    return Spectrum(grid, np.fft.rfft2(values, norm="forward", out=out))


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


def dealias(s: Spectrum) -> Spectrum:
    """Two-thirds rule: keep the band k2 <= ny/3, with the rows |k1| > nx/3 zeroed.

    The result is a C-contiguous copy of at most grid.band_shape: a
    spectrum narrower than the band keeps its width.
    """
    grid = s.grid
    m = grid.nx // 3  # rows 0 .. m and nx - m .. nx - 1 hold |k1| <= nx/3
    coeffs = s.coeffs[:, : grid.band_shape[1]].copy()
    coeffs[m + 1 : grid.nx - m] = 0.0
    return Spectrum(grid, coeffs)


def gradient(f: Field) -> tuple[np.ndarray, np.ndarray]:
    """Spectral (df/dx1, df/dx2) as nodal arrays: one real inverse transform each."""
    hat = f.hat
    return inverse(ddx1(hat)), inverse(ddx2(hat))
