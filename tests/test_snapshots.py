import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from invlab.config import parse_config
from invlab.snapshots import MAGIC, read_snapshot, write_snapshot
from invlab.dynamics import ModelKind, State, StepControl, integrate
from invlab.runner import run
from invlab.spectral import Field, Grid2D, forward, inverse


GRID = Grid2D(16, 32)
README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def scalar_state(t, values):
    return State(ModelKind.SINGULAR_SCALAR, t, Field(GRID, forward(GRID, values)))


def boussinesq_state(seed, t):
    rng = np.random.default_rng(seed)
    theta, omega = (Field(GRID, forward(GRID, rng.standard_normal(GRID.shape))) for _ in range(2))
    return State(ModelKind.BOUSSINESQ, t, theta, omega)


def test_roundtrip_bit_exact(tmp_path):
    state = boussinesq_state(0, 0.125)
    path = tmp_path / "snap.bin"
    write_snapshot(path, state)
    t, spectra, grid = read_snapshot(path)
    assert t == 0.125
    assert grid == GRID
    assert list(spectra) == ["theta", "omega"]
    for name, field in zip(spectra, state.fields):
        assert np.array_equal(spectra[name], field.hat)
        # the nodal values are one inverse away: the field's own, to the bit
        assert np.array_equal(inverse(grid, spectra[name]), field.values)


def test_header_layout(tmp_path):
    path = tmp_path / "snap.bin"
    write_snapshot(path, scalar_state(1.0, np.zeros(GRID.shape)))
    raw = path.read_bytes()
    header, rest = raw.split(b"\n", 1)
    assert header == f"{MAGIC} 16 32 1 1".encode()
    assert rest.startswith(b"theta\n")
    payload = rest[len(b"theta\n"):]
    assert GRID.band_shape == (16, 11)
    assert len(payload) == 16 * 11 * 16


def test_payload_is_little_endian_complex128_band_row_major(tmp_path):
    state = scalar_state(0.0, np.random.default_rng(2).standard_normal(GRID.shape))
    hat = state.theta.hat
    path = tmp_path / "snap.bin"
    write_snapshot(path, state)
    raw = path.read_bytes()
    offset = raw.index(b"theta\n") + len(b"theta\n")
    first_two = np.frombuffer(raw, dtype="<c16", count=2, offset=offset)
    assert first_two[0] == hat[0, 0]
    assert first_two[1] == hat[0, 1]  # the k2 neighbour follows immediately
    assert np.frombuffer(raw, dtype="<c16", count=1, offset=offset + 16 * GRID.band_shape[1])[0] == hat[1, 0]


def test_file_is_the_header_then_each_spectrum_as_tobytes(tmp_path):
    state = boussinesq_state(5, 0.375)
    path = tmp_path / "snap.bin"
    write_snapshot(path, state)
    header = f"{MAGIC} 16 32 2 0.375\ntheta\nomega\n".encode("ascii")
    assert path.read_bytes() == header + state.theta.hat.tobytes() + state.omega.hat.tobytes()


def test_fields_are_written_without_a_bytes_copy_or_nodal_values(tmp_path):
    grid = Grid2D(256, 256)
    rng = np.random.default_rng(6)
    state = State(ModelKind.SINGULAR_SCALAR, 0.0, Field(grid, forward(grid, rng.standard_normal(grid.shape))))
    tracemalloc.start()
    try:
        write_snapshot(tmp_path / "snap.bin", state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "values" not in vars(state.theta)
    assert peak < 0.25 * state.theta.hat.nbytes


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


def test_refuses_an_invlab1_file_naming_both_layouts(tmp_path):
    path = tmp_path / "old.bin"
    path.write_bytes(b"INVLAB1 16 32 1 0\ntheta\n" + np.zeros(GRID.shape).tobytes())
    with pytest.raises(ValueError, match=r"old\.bin: an INVLAB1 snapshot .*INVLAB2"):
        read_snapshot(path)


def test_refuses_a_header_grid_that_grid2d_rejects(tmp_path):
    path = tmp_path / "odd.bin"
    path.write_bytes(f"{MAGIC} 15 32 1 0\ntheta\n".encode() + np.zeros((15, 11), complex).tobytes())
    with pytest.raises(ValueError, match=r"odd\.bin: .*nx must be even"):
        read_snapshot(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.bin"
    write_snapshot(path, scalar_state(0.0, np.zeros(GRID.shape)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="payload"):
        read_snapshot(path)


def test_the_readme_reader_gets_the_spectra_and_nodal_values(tmp_path):
    # the README's numpy-only reader, run as it is printed there
    section = README.split("Snapshots hold", 1)[1]
    reader = re.search(r"^```python\n(.*?)^```", section, flags=re.M | re.S).group(1)
    path = tmp_path / "snap.bin"
    write_snapshot(path, boussinesq_state(4, 0.75))
    namespace = {"path": str(path)}
    exec(reader, namespace)
    t, spectra, grid = read_snapshot(path)
    assert namespace["t"] == t
    assert list(namespace["spectra"]) == list(spectra)
    for name, hat in spectra.items():
        assert np.array_equal(namespace["spectra"][name], hat)
        assert np.array_equal(namespace["values"][name], inverse(grid, hat))


_VORTICITY_IC = "ic = expr: sin(x2)*(1 + 0.5*cos(x1))\nic_omega = expr: sin(x2)*cos(x1)\n"
CONTINUED = {
    "singular-scalar": "ic = singular-cos\n",
    "boussinesq": _VORTICITY_IC,
    "modified-boussinesq": _VORTICITY_IC,
}


@pytest.mark.parametrize("model", CONTINUED)
def test_a_run_continues_from_each_snapshot_to_the_bit(tmp_path, model):
    # CFL steps to t = 0.6 with a snapshot every 0.3: from each snapshot's
    # spectra, integrate takes the run's remaining steps and ends on its final spectra
    text = f"model = {model}\n{CONTINUED[model]}nx = 64\nny = 64\nt_end = 0.6\noutput.snapshot_interval = 0.3\n"
    cfg = replace(parse_config(text), output_dir=str(tmp_path))
    artifacts = run(cfg)
    assert artifacts.blowup is None and len(artifacts.snapshot_paths) == 3
    _, final, _ = read_snapshot(artifacts.snapshot_paths[-1])
    ctrl = StepControl(dt=cfg.dt, cfl=cfg.cfl, max_grad=cfg.max_grad)
    run_times = None  # each step's end time, from the continuation of the first snapshot (t = 0)
    for path in artifacts.snapshot_paths:
        t, spectra, grid = read_snapshot(path)
        times = []
        state = State(cfg.model, t, *(Field(grid, hat) for hat in spectra.values()))
        result = integrate(state, ctrl, cfg.t_end, observers=[lambda s: times.append(s.t)])
        if run_times is None:
            run_times = times
        assert result.blowup is None
        assert result.steps == artifacts.steps - sum(s <= t for s in run_times)
        assert result.state.t == run_times[-1]
        assert len(result.state.fields) == len(final)
        for field, name in zip(result.state.fields, final):
            assert np.array_equal(field.hat, final[name])
