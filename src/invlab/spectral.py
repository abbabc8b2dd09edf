"""Periodic spectral toolbox: grid, transforms, derivatives, dealiasing.

Fields live on a uniform grid of the doubly periodic box [0, 2 pi)^2, so
the wavenumbers are the integer mode numbers k1, k2.  A spectrum is a
complex array of normalized Fourier coefficients (coefficient of the
constant mode equals the mean) in the two-thirds band, shape
grid.band_shape = (nx, (ny - 1)//3 + 1): axis 0 holds k1 in standard FFT
order (Nyquist stored negative), axis 1 the modes k2 = 0 .. (ny - 1)//3,
and the rows |k1| > (nx - 1)//3 are zero.  The band keeps |k| < n/3
strictly (Orszag's rule), so the product of two band fields aliases only
outside it, whether or not 3 divides n.  The modes k2 < 0 follow by
Hermitian symmetry, coeff(-k) = conj(coeff(k)); the column k2 = 0 is
self-conjugate, holding both coeff(k1, 0) and coeff(-k1, 0), and
inverse() keeps only its Hermitian part.
forward() is the one way to make a spectrum: the real transform followed
by the two-thirds projection, so inverse(forward(v)) == v only when v is
band-limited.  A derivative multiplies each coefficient by its Fourier
symbol, i k1 for d/dx1 and i k2 for d/dx2.  The x1 Nyquist row lies
outside the band, so the band cut leaves it zero and the symbol i k1 needs
no special case for that unpaired mode.  A Field is a band spectrum; its
nodal values are computed on first use and cached (see Field).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid2D",
    "Field",
    "NonFiniteFieldError",
    "forward",
    "inverse",
    "ddx1",
    "ddx2",
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
        """Shape of the real transform's output: k2 = 0 .. ny/2."""
        return (self.nx, self.ny // 2 + 1)

    @property
    def band_shape(self) -> tuple[int, int]:
        """Shape of a spectrum, the two-thirds band: k2 = 0 .. (ny - 1)//3, so k2 < ny/3."""
        return (self.nx, (self.ny - 1) // 3 + 1)

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
    def ky_deriv(self) -> np.ndarray:
        """Mode numbers along x2 in the band, 0 .. (ny - 1)//3."""
        return np.fft.rfftfreq(self.ny, d=1.0 / self.ny)[: self.band_shape[1]]

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|k|^2 on the band."""
        return self.k1int[:, None] ** 2 + self.ky_deriv[None, :] ** 2


class Field:
    """Real field on a Grid2D, known by its two-thirds band spectrum.

    `hat` is a spectrum of shape grid.band_shape, as forward() returns it.
    The nodal values, shape (nx, ny), are inverse(grid, hat), cached from
    first use until a step from the field's state releases them (see
    dynamics.rk4_step); neither is changed after it is made.
    """

    def __init__(self, grid: Grid2D, hat: np.ndarray):
        if hat.shape != grid.band_shape:
            raise ValueError(
                f"a field takes the two-thirds band spectrum of its grid, shape {grid.band_shape}; "
                f"got shape {hat.shape}"
            )
        self.grid = grid
        self.hat = hat

    @cached_property
    def values(self) -> np.ndarray:
        return inverse(self.grid, self.hat)


def forward(grid: Grid2D, values: np.ndarray) -> np.ndarray:
    """The band spectrum of nodal values: rfft2, normalized so coeff(0,0) is
    the mean, then the two-thirds rule.

    Rejects non-finite input, naming the first offending node.  Both
    passes of rfft2 write into one half-layout buffer; the result is a
    C-contiguous copy of its columns k2 < ny/3 with the rows |k1| >= nx/3
    zeroed, the x1 Nyquist row among them.  The input is dropped before the copy is made.
    """
    if not np.all(np.isfinite(values)):
        j, k = np.argwhere(~np.isfinite(values))[0]
        raise NonFiniteFieldError(
            f"non-finite field value {float(values[j, k])} at node ({j}, {k}), "
            f"x = ({j * grid.dx:.6g}, {k * grid.dy:.6g})"
        )
    out = np.empty(grid.half_shape, dtype=np.complex128)
    np.fft.rfft2(values, norm="forward", out=out)
    del values
    m = (grid.nx - 1) // 3  # rows 0 .. m and nx - m .. nx - 1 hold |k1| < nx/3
    hat = out[:, : grid.band_shape[1]].copy()
    hat[m + 1 : grid.nx - m] = 0.0
    return hat


def inverse(grid: Grid2D, hat: np.ndarray) -> np.ndarray:
    """Real inverse transform (irfft2): the nodal values of a band spectrum.

    irfft2 zero-pads the columns past the band itself, after its k1 pass,
    so that pass runs over the band only, bit for bit as if the half
    spectrum were padded first.
    """
    return np.fft.irfft2(hat, s=grid.shape, norm="forward")


def ddx1(grid: Grid2D, hat: np.ndarray) -> np.ndarray:
    """Spectral d/dx1: the symbol i k1 needs no Nyquist case, since the band
    cut leaves the x1 Nyquist row zero."""
    return hat * (1j * grid.k1int)[:, None]


def ddx2(grid: Grid2D, hat: np.ndarray) -> np.ndarray:
    """Spectral d/dx2."""
    return hat * (1j * grid.ky_deriv)[None, :]

