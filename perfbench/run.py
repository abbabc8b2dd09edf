"""One-command benchmark for invlab.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Workloads: scalar-256, blowup-512, vorticity-256, oracles (see workloads.py
and BENCHMARK.json for why each is there); `all` runs each of them with
--trace 0 and then --trace 1, each in its own process.  Run from anywhere;
the program under test is `src/invlab` of the checkout that holds this file.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median of cold set-ups (`import invlab.cli` and the
               workload's set-up), each in a fresh interpreter
  run_s        median of the workload bodies (for the solver workloads one
               in-process `invlab run`, artifact writes included)
  peak_rss_mb  peak resident memory of this process
Set-ups and bodies alternate until --seconds is used up.  Both times are
wall seconds corrected for the speed of a shared host (hostspeed.py): the
other tenants' load moves the wall-time medians of whole runs by half
or more.  The wall-time medians, the host speed and the number of
set-ups and bodies are printed beside them.
--trace 1 alternates untraced and traced bodies and reports the per-layer
metrics of layers.py from the traced ones.

Every body's output is checked (workloads.Checks); `fail_frac` is failed
checks over attempted ones.  All artifacts go to a temporary directory
under `.perfbench_tmp/` in the checkout, which is removed at the end.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import NUMERIC, SpeedClock, WallClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

MIN_REPS = 3  # probes and bodies per --trace 0 run, so a median drops a warm-up outlier
MIN_PAIRS = 2  # untraced + traced pairs per --trace 1 run, so trace counts can be compared
PROBE_TIMEOUT_S = 60
NUMPY_FFT_IMPLS = ("numpy.fft._pocketfft_umath", "numpy.fft._pocketfft_internal")
THREAD_VARS = (
    "INVLAB_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="invlab benchmark: end-to-end or traced per-layer metrics")
    parser.add_argument("--workload", required=True, help="scalar-256, blowup-512, vorticity-256, oracles or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _first_module(names) -> str:
    return next((n for n in names if importlib.util.find_spec(n) is not None), "unknown")


def machine_facts(thread_env: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache_per_core": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": {
            # invlab calls numpy.fft; a patched numpy (e.g. mkl_fft) shows in fft2's module
            "numpy.fft": f"{numpy.fft.fft2.__module__} ({_first_module(NUMPY_FFT_IMPLS)})",
            "scipy.fft": _first_module(("scipy.fft._pocketfft",)),
        },
        "thread_env": thread_env,
    }


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _probe_setup(name: str, seed: int, scratch: Path) -> tuple[float, float]:
    """Corrected and wall seconds of one cold set-up."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(scratch)],
        check=True,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    corrected, wall = out.stdout.strip().splitlines()[-1].split()
    return float(corrected), float(wall)


class Session:
    """One benchmark run: a workload, its inputs, and the checks made on its outputs."""

    def __init__(self, workload, seed: int, scratch: Path, checks) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.checks = checks
        self.inputs = workload.prepare(seed, scratch)
        self.state = workload.setup(self.inputs) if workload.body_takes_state else None
        self.reference = None  # fingerprint of the first body's output
        self.reps = 0
        self.artifact_bytes = 0

    def body(self, tracer=None, clock=None):
        """Run and check one body; returns the clock that timed it (a wall clock by default)."""
        w = self.workload
        outdir = self.scratch / f"rep-{self.reps}"
        state = self.state
        if tracer is not None:
            tracer.begin_run()
            state = w.setup(self.inputs)  # traced set-up spans, outside the timed body
        clock = clock or WallClock()
        with clock:
            result = w.body(self.inputs, state, outdir)
        if self.reference is None:
            w.check(self.inputs, outdir, result, self.checks)
            self.reference = w.fingerprint(outdir)
        else:
            same = w.fingerprint(outdir) == self.reference
            self.checks.check(same, f"body {self.reps} output byte-identical to body 0")
        self.artifact_bytes = _dir_bytes(outdir)
        shutil.rmtree(outdir)
        self.reps += 1
        return clock


def measure_end_to_end(session: Session, seconds: float) -> dict[str, float]:
    # set-up probes and bodies alternate over the whole window, so both
    # sample the same spells of a machine whose speed drifts
    setup, runs = [], []
    start = time.perf_counter()
    while True:
        setup.append(_probe_setup(session.workload.name, session.seed, session.scratch))
        runs.append(session.body(clock=SpeedClock(NUMERIC)))
        elapsed = time.perf_counter() - start
        if len(runs) >= MIN_REPS and elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        f"{len(setup)} set-ups, median wall {statistics.median(w for _, w in setup):.6g} s; "
        f"{len(runs)} bodies, median wall {statistics.median(c.wall_s for c in runs):.6g} s, "
        f"median host speed {statistics.median(c.speed for c in runs):.3f}"
    )
    return {
        "setup_s": statistics.median(c for c, _ in setup),
        "run_s": statistics.median(c.corrected_s for c in runs),
        "peak_rss_mb": peak_kib * 1024 / 1e6,
    }


def measure_layers(session: Session, seconds: float) -> dict[str, float]:
    from layers import per_layer
    from tracing import Tracer, call_counts, fft_counts

    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        # alternate which side goes first, so drift does not bias the overhead
        for traced_side in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if traced_side:
                with tracer:
                    traced.append(session.body(tracer).wall_s)
            else:
                untraced.append(session.body().wall_s)
        pair_s = untraced[-1] + traced[-1]
        if len(traced) >= MIN_PAIRS and time.perf_counter() - start + pair_s > seconds:
            break
    first = tracer.runs[0]
    for i, run in enumerate(tracer.runs[1:], start=1):
        session.checks.check(
            fft_counts(run) == fft_counts(first) and call_counts(run) == call_counts(first),
            f"traced body {i} repeats the call and FFT counts of traced body 0",
        )
    return per_layer(tracer.runs, traced, untraced, session.artifact_bytes)


def _print_table(metrics: dict, units: dict) -> None:
    width = max(len(n) for n in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {units[name]}")


def run_all(args, workloads: list[str]) -> int:
    """Every workload end to end and then traced, each in a fresh process."""
    worst = 0
    for name in workloads:
        for trace in ("0", "1"):
            argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", trace]
            worst = max(worst, subprocess.run([sys.executable, __file__, *argv]).returncode)
    return worst


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, [w["name"] for w in spec["workloads"]])
    if not (SRC / "invlab" / "__init__.py").is_file():
        print(f"error: no invlab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    thread_env = {k: os.environ.get(k) for k in THREAD_VARS}
    os.environ.pop("INVLAB_THREADS", None)  # single-threaded runs, also in the set-up probes
    sys.path.insert(0, str(SRC))
    import invlab

    if Path(invlab.__file__).resolve().parent != SRC / "invlab":
        print(f"error: imported invlab from {invlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    TMP_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    checks = Checks()
    try:
        session = Session(WORKLOADS[args.workload], args.seed, scratch, checks)
        if args.trace:
            metrics = measure_layers(session, args.seconds)
        else:
            metrics = measure_end_to_end(session, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1

    # after the measurement: finding scipy's FFT backend imports scipy.fft,
    # which invlab never loads and peak_rss_mb must not count
    print("machine " + json.dumps(machine_facts(thread_env), sort_keys=True))
    failed = len(checks.failures)
    print(f"bodies run: {session.reps}; output checks: {checks.attempted} attempted, {failed} failed")
    for what in checks.failures:
        print(f"  FAIL {what}")
    _print_table(dict(metrics, fail_frac=failed / checks.attempted), dict(units, fail_frac="ratio"))
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
