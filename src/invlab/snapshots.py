"""Bit-exact snapshot files.

Layout: one ASCII header line `INVLAB1 <nx> <ny> <nfields> <t>`, one field
name per line, then raw little-endian float64 payloads, row-major with x2
fastest, concatenated in header order.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["write_snapshot", "read_snapshot", "MAGIC"]

MAGIC = "INVLAB1"


def write_snapshot(path, state) -> None:
    """Write a State: the header with its grid and time t, then the nodal
    values of theta and, when the model evolves it, omega."""
    grid = state.grid
    fields = dict(zip(("theta", "omega"), state.fields))
    header = f"{MAGIC} {grid.nx} {grid.ny} {len(fields)} {state.t:.17g}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for name in fields:
            fh.write(f"{name}\n".encode("ascii"))
        for f in fields.values():
            # the buffer itself, not a bytes copy (no copy at all on little-endian hosts)
            fh.write(np.ascontiguousarray(f.values, dtype="<f8").data)


def read_snapshot(path) -> tuple[float, dict[str, np.ndarray], tuple[int, int]]:
    """Parse a snapshot; returns (t, {name: array of shape (nx, ny)}, (nx, ny))."""
    data = Path(path).read_bytes()
    nl = data.index(b"\n")
    parts = data[:nl].decode("ascii").split()
    if len(parts) != 5 or parts[0] != MAGIC:
        raise ValueError(f"{path}: not a {MAGIC} snapshot")
    nx, ny, nfields = int(parts[1]), int(parts[2]), int(parts[3])
    t = float(parts[4])
    offset = nl + 1
    names = []
    for _ in range(nfields):
        nl = data.index(b"\n", offset)
        names.append(data[offset:nl].decode("ascii"))
        offset = nl + 1
    count = nx * ny
    expected = offset + nfields * count * 8
    if len(data) != expected:
        raise ValueError(f"{path}: payload is {len(data) - offset} bytes, expected {expected - offset}")
    out = {}
    for name in names:
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=offset).reshape(nx, ny)
        out[name] = arr.astype(np.float64)
        offset += count * 8
    return t, out, (nx, ny)

