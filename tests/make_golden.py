"""The golden set: exact artifacts of a few small runs, kept in tests/golden.json.

    PYTHONPATH=src python tests/make_golden.py

reruns the set and rewrites golden.json; test_golden.py reruns it and
compares.  A change that alters an output on purpose rewrites the file
and names every changed digest in CHANGES.md.

The set: one 64^2 `invlab run` per model (CFL dt, t_end = 0.3, both
diagnostics, a snapshot every 0.1), one 64^2 singular-cos run stopped
by the gradient ceiling, `invlab oracle-check --output` for every
family/preset pair, and a 3-level 16^2 convergence study in each mode,
whose rows.csv holds every ConvergenceRow at 17 significant digits.
golden.json holds each run's exit code, and for each artifact its
SHA-256 and, for text, its lines.  meta.txt is kept without its
wall_clock_seconds and output.dir lines, which differ between runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from invlab import cli
from invlab.config import parse_config
from invlab.oracles import FAMILIES
from invlab.runner import convergence

GOLDEN = Path(__file__).with_name("golden.json")

_SOLVER_BASE = "nx = 64\nny = 64\nt_end = 0.3\noutput.snapshot_interval = 0.1\ndiagnostics = conservation, symmetry\n"
_VORTICITY_IC = "ic = expr: sin(x2)*(1 + 0.5*cos(x1))\nic_omega = expr: sin(x2)*cos(x1)\n"

# run name -> config text
SOLVER_RUNS = {
    "singular-scalar": "model = singular-scalar\nic = singular-cos\n" + _SOLVER_BASE,
    "boussinesq": "model = boussinesq\n" + _VORTICITY_IC + _SOLVER_BASE,
    "modified-boussinesq": "model = modified-boussinesq\n" + _VORTICITY_IC + _SOLVER_BASE,
    # the stop lines of meta.txt: the ceiling fires before t_end
    "singular-scalar-ceiling": (
        "model = singular-scalar\nic = singular-cos\nnx = 64\nny = 64\nt_end = 1.05\nmax_grad = 5\n"
    ),
}
# a 3-level study of this config in each mode; the spatial one runs 16^2 to 64^2
STUDY_CONFIG = "model = singular-scalar\nic = singular-cos\nnx = 16\nny = 16\nt_end = 0.02\ndt = 0.01\n"
STUDY_COLUMNS = ("level", "nx", "ny", "dt", "steps", "error", "order")
ORACLE_PAIRS = [(family, preset) for family, (_, _, solutions) in FAMILIES.items() for preset in solutions]

_UNSTABLE_META = ("wall_clock_seconds =", "output.dir =")


def _artifacts(outdir: Path) -> dict[str, bytes]:
    found = {}
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "meta.txt":
            lines = data.decode().splitlines(keepends=True)
            data = "".join(line for line in lines if not line.startswith(_UNSTABLE_META)).encode()
        found[path.name] = data
    return found


def produce(workdir: Path) -> dict[str, tuple[int, dict[str, bytes]]]:
    """Run the set under workdir: run name -> (exit code, artifact name -> bytes)."""
    jobs = {}
    for name, text in SOLVER_RUNS.items():
        cfg = workdir / f"{name}.cfg"
        cfg.write_text(text)
        jobs[f"run/{name}"] = ["run", str(cfg)]
    for family, preset in ORACLE_PAIRS:
        jobs[f"oracle-check/{family}-{preset}"] = ["oracle-check", family, preset]
    produced = {}
    for i, (name, argv) in enumerate(jobs.items()):
        outdir = workdir / f"out-{i}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--output", str(outdir)])
        produced[name] = (code, _artifacts(outdir))
    for mode in ("temporal", "spatial"):
        rows = [",".join(STUDY_COLUMNS)]
        for row in convergence(parse_config(STUDY_CONFIG), 3, mode=mode):
            values = [getattr(row, c) for c in STUDY_COLUMNS]
            rows.append(",".join("" if v is None else f"{v:.17g}" for v in values))
        produced[f"convergence/{mode}"] = (0, {"rows.csv": "\n".join(rows).encode() + b"\n"})
    return produced


def describe(name: str, data: bytes) -> dict:
    """An artifact's golden entry: its digest, plus its lines unless it is a binary snapshot."""
    entry = {"sha256": hashlib.sha256(data).hexdigest()}
    if not name.endswith(".bin"):
        entry["lines"] = data.decode().splitlines()
    return entry


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        produced = produce(Path(tmp))
    golden = {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "runs": {
            name: {"exit": code, "artifacts": {a: describe(a, data) for a, data in artifacts.items()}}
            for name, (code, artifacts) in produced.items()
        },
    }
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
