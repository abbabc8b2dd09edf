import tracemalloc

import numpy as np
import pytest

from invlab.snapshots import MAGIC, read_snapshot, write_snapshot
from invlab.dynamics import ModelKind, State
from invlab.spectral import Field, Grid2D, forward


GRID = Grid2D(16, 32)


def scalar_state(t, values):
    return State(ModelKind.SINGULAR_SCALAR, t, Field(GRID, forward(GRID, values)))


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    theta = Field(GRID, forward(GRID, rng.standard_normal(GRID.shape)))
    omega = Field(GRID, forward(GRID, rng.standard_normal(GRID.shape)))
    path = tmp_path / "snap.bin"
    write_snapshot(path, State(ModelKind.BOUSSINESQ, 0.125, theta, omega))
    t, fields, (nx, ny) = read_snapshot(path)
    assert t == 0.125
    assert (nx, ny) == (16, 32)
    assert list(fields) == ["theta", "omega"]
    assert np.array_equal(fields["theta"], theta.values)
    assert np.array_equal(fields["omega"], omega.values)


def test_header_layout(tmp_path):
    path = tmp_path / "snap.bin"
    write_snapshot(path, scalar_state(1.0, np.zeros(GRID.shape)))
    raw = path.read_bytes()
    header, rest = raw.split(b"\n", 1)
    assert header == f"{MAGIC} 16 32 1 1".encode()
    assert rest.startswith(b"theta\n")
    payload = rest[len(b"theta\n"):]
    assert len(payload) == 16 * 32 * 8


def test_payload_is_little_endian_x2_fastest(tmp_path):
    state = scalar_state(0.0, np.arange(16 * 32, dtype=float).reshape(16, 32))
    theta = state.theta
    path = tmp_path / "snap.bin"
    write_snapshot(path, state)
    raw = path.read_bytes()
    offset = raw.index(b"theta\n") + len(b"theta\n")
    first_two = np.frombuffer(raw, dtype="<f8", count=2, offset=offset)
    assert first_two[0] == theta.values[0, 0]
    assert first_two[1] == theta.values[0, 1]  # x2 neighbor follows immediately


def test_file_is_the_header_then_each_field_as_tobytes(tmp_path):
    rng = np.random.default_rng(5)
    theta, omega = (Field(GRID, forward(GRID, rng.standard_normal(GRID.shape))) for _ in range(2))
    path = tmp_path / "snap.bin"
    write_snapshot(path, State(ModelKind.BOUSSINESQ, 0.375, theta, omega))
    header = f"{MAGIC} 16 32 2 0.375\ntheta\nomega\n".encode("ascii")
    assert path.read_bytes() == header + theta.values.tobytes() + omega.values.tobytes()


def test_fields_are_written_without_a_bytes_copy(tmp_path):
    grid = Grid2D(256, 256)
    rng = np.random.default_rng(6)
    state = State(ModelKind.SINGULAR_SCALAR, 0.0, Field(grid, forward(grid, rng.standard_normal(grid.shape))))
    state.theta.values  # the nodal values the file holds, made before tracing starts
    tracemalloc.start()
    try:
        write_snapshot(tmp_path / "snap.bin", state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * state.theta.values.nbytes


def test_rewrite_is_bit_identical(tmp_path):
    rng = np.random.default_rng(3)
    state = scalar_state(0.25, rng.standard_normal(GRID.shape))
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    write_snapshot(a, state)
    write_snapshot(b, state)
    assert a.read_bytes() == b.read_bytes()


def test_rejects_corrupt_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTSNAP 4 4 1 0\n")
    with pytest.raises(ValueError, match=MAGIC):
        read_snapshot(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.bin"
    write_snapshot(path, scalar_state(0.0, np.zeros(GRID.shape)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="payload"):
        read_snapshot(path)
