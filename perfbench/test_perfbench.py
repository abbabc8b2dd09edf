"""The benchmark's own checks, on 16^2 grids so they finish in seconds.

Traced runs must repeat their counts exactly, the transform count per step
must not rise above the seed baseline, the tracer must leave every binding
as it found it, the host-speed clock must sample while it runs and leave
SIGALRM as it found it, and BENCHMARK.json, layers.py and predictions.json
must name the same metrics.
"""

import json
import signal
import time
from pathlib import Path

import numpy.fft
import pytest

import invlab
from invlab import cli, dynamics, spectral
from hostspeed import INTERVAL_S, NUMERIC, SpeedClock
from layers import per_layer
from tracing import Tracer, accepted_steps, call_counts, fft_counts

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMALL_CONFIGS = {
    "singular-scalar": (
        "model = singular-scalar\nic = singular-cos\nt_end = 0.01\nnx = 16\nny = 16\ndt = 0.002\n"
    ),
    "modified-boussinesq": (
        "model = modified-boussinesq\n"
        "ic = expr: sin(x2)*(1 + 0.5*cos(x1))\n"
        "ic_omega = expr: sin(x2)*cos(x1)\n"
        "t_end = 0.1\nnx = 16\nny = 16\n"
        "diagnostics = conservation, symmetry\n"
    ),
}
# complex transforms per accepted step on the step path at the seed code
# (11 + 26 and 25 + 38); later changes may lower them, never raise them
SEED_FFTS_PER_STEP = {"singular-scalar": 37, "modified-boussinesq": 63}
SEED_CFL_EVALUATIONS_PER_STEP = 2


@pytest.mark.parametrize("model", sorted(SMALL_CONFIGS))
def test_traced_runs_repeat_counts_within_seed_baseline(model, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIGS[model])
    with Tracer() as tracer:
        for i in range(2):
            tracer.begin_run()
            assert cli.main(["run", str(cfg), "--output", str(tmp_path / f"out{i}")]) == cli.EXIT_OK
    capsys.readouterr()
    first, second = tracer.runs
    assert fft_counts(first) == fft_counts(second)
    assert call_counts(first) == call_counts(second)
    steps = accepted_steps(first)
    assert steps > 0
    metrics = per_layer(tracer.runs, [1.0, 1.0], [1.0], 1)
    per_step = metrics["fft.per_step.dynamics"]
    assert 0 < per_step <= SEED_FFTS_PER_STEP[model]
    assert metrics["fft.fwd_per_step"] + metrics["fft.inv_per_step"] == per_step
    assert metrics["fft.c2c_per_step"] + metrics["fft.r2c_per_step"] == per_step
    assert metrics["dynamics.admissible_dt.calls"] <= SEED_CFL_EVALUATIONS_PER_STEP
    assert metrics["dynamics.tendency.calls"] == 4


def test_tracer_restores_every_binding():
    originals = (spectral.forward, dynamics.forward, invlab.forward, numpy.fft.fft2, cli.main)
    with Tracer():
        assert dynamics.forward is not originals[1]
        assert dynamics.forward.__wrapped__ is originals[1]
        assert numpy.fft.fft2 is not originals[3]
    assert (spectral.forward, dynamics.forward, invlab.forward, numpy.fft.fft2, cli.main) == originals


def test_speed_clock_samples_the_stretch_and_restores_sigalrm():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedClock(NUMERIC) as clock:
        end = time.perf_counter() + 4 * INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.times) >= 4  # one at each end and two or more from the timer
    assert 0.0 < clock.handler_s < clock.wall_s
    assert clock.speed > 0.0 and clock.corrected_s > 0.0


def test_metric_names_agree_across_spec_layers_and_predictions():
    per_layer_names = [m["name"] for m in SPEC["per_layer"]]
    assert set(per_layer([], [], [], 0)) == set(per_layer_names)
    predictions = json.loads((HERE / "predictions.json").read_text())["predictions"]
    assert [p["layer_metric"] for p in predictions] == per_layer_names
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for p in predictions:
        assert p["moves"] is None or p["moves"] in end_to_end
        assert set(p["on"]) | set(p["no_change_on"]) <= workloads
