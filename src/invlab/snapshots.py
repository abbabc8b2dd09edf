"""Snapshot files: a state's band spectra, from which its run continues bit for bit.

Layout: one ASCII header line `INVLAB2 <nx> <ny> <nfields> <t>`, one field
name per line, then each field's two-thirds band spectrum (Field.hat) as raw
little-endian complex128 of shape grid.band_shape, row-major, concatenated
in header order.  Nodal values are inverse(grid, spectrum).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .spectral import Grid2D

__all__ = ["write_snapshot", "read_snapshot", "MAGIC"]

MAGIC = "INVLAB2"


def write_snapshot(path, state) -> None:
    """Write a State: the header with its grid and time t, then the band
    spectrum of theta and, when the model evolves it, omega."""
    grid = state.grid
    fields = dict(zip(("theta", "omega"), state.fields))
    header = f"{MAGIC} {grid.nx} {grid.ny} {len(fields)} {state.t:.17g}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for name in fields:
            fh.write(f"{name}\n".encode("ascii"))
        for f in fields.values():
            # the buffer itself, not a bytes copy (no copy at all on little-endian hosts)
            fh.write(np.ascontiguousarray(f.hat, dtype="<c16").data)


def read_snapshot(path) -> tuple[float, dict[str, np.ndarray], Grid2D]:
    """Parse a snapshot; returns (t, {name: band spectrum}, grid), the inputs of Field and State."""
    data = Path(path).read_bytes()
    header, _, rest = data.partition(b"\n")
    parts = header.decode("ascii", "replace").split()
    if len(parts) != 5 or parts[0] != MAGIC:
        found = "an INVLAB1 snapshot (nodal values, no longer read)" if parts[:1] == ["INVLAB1"] else "not a snapshot"
        raise ValueError(f"{path}: {found}; this reader takes {MAGIC} (band spectra)")
    try:
        grid, nfields, t = Grid2D(int(parts[1]), int(parts[2])), int(parts[3]), float(parts[4])
    except ValueError as exc:
        raise ValueError(f"{path}: bad {MAGIC} header {' '.join(parts)!r}: {exc}") from None
    names = rest.split(b"\n", nfields)[:nfields]
    offset = len(header) + 1 + sum(len(name) + 1 for name in names)
    expected = nfields * 16 * grid.nx * grid.band_shape[1]
    if len(names) != nfields or len(data) - offset != expected:
        raise ValueError(f"{path}: payload is {len(data) - offset} bytes, expected {expected}")
    payload = np.frombuffer(data, dtype="<c16", offset=offset).reshape(nfields, *grid.band_shape)
    return t, {name.decode("ascii"): hat.astype(np.complex128) for name, hat in zip(names, payload)}, grid
