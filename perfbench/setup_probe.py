"""Time one cold set-up of a workload in a fresh interpreter.

Prints the seconds spent importing `invlab.cli` (the package and every
module an `invlab run` loads: runner, presets, snapshots and the rest)
plus the workload's `setup` (config parsing, grid and initial state, or
the oracle solution objects): the cost every `invlab run` pays before its
first step.  The line holds two numbers: host-speed-corrected seconds
(hostspeed.py, with the pure-Python probe, since numpy must not be loaded
before the timed import) and wall seconds.  `run.py` starts this script
several times per run and reports the median corrected time as `setup_s`.

    python3 perfbench/setup_probe.py <workload> <seed> <scratch dir>
"""

import sys
import tempfile
from pathlib import Path

from hostspeed import INTERPRETER, SpeedClock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(name: str, seed: int, scratch: str) -> tuple[float, float]:
    with SpeedClock(INTERPRETER) as imports:
        import invlab.cli  # noqa: F401  (the import is what is timed)

    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        inputs = workload.prepare(seed, Path(workdir))
        with SpeedClock(INTERPRETER) as setup:
            workload.setup(inputs)
    return imports.corrected_s + setup.corrected_s, imports.wall_s + setup.wall_s


if __name__ == "__main__":
    print(*map(repr, main(sys.argv[1], int(sys.argv[2]), sys.argv[3])))
