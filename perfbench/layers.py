"""Per-layer metrics computed from the spans of the traced repetitions.

Conventions:
  * `*.calls` and `fft.*_per_step` are per accepted RK4 step, except the
    `diagnostics.sup_grad.calls` and `snapshots.write_snapshot.calls`
    counts, which are per workload run;
  * `*.ms` is the median duration of one call, `*.self_ms` the median of one
    call's time outside its child spans, except `dynamics.integrate.self_ms`
    and `runner.run.self_ms`, which total one workload run (the runner's
    includes the own time of its observer callbacks);
  * `fft.flops_per_step` and `fft.bytes_per_step` are computed from array
    sizes (not measured) and cover the transforms of every layer;
  * a layer the workload never calls reads 0.

The "step path" is the work of the `dynamics` layer: the spans and
transforms attributed to it (`Span.by == "dynamics"`).  Series rows and
other observers run inside `integrate` but under `runner.observer` spans,
so their transforms count for the layer that asked, usually `diagnostics`.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import Span, accepted_steps


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile q in [0, 1]; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_layer(
    runs: list[list[Span]],
    traced_body_s: list[float],
    untraced_body_s: list[float],
    artifact_bytes: int,
) -> dict[str, float]:
    """Every per-layer metric, keyed by its name in BENCHMARK.json."""
    spans = [s for run in runs for s in run]
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    steps = sum(accepted_steps(run) for run in runs)
    nruns = len(runs)

    def per_step(n: float) -> float:
        return n / steps if steps else 0.0

    def ms(name: str) -> float:
        return 1e3 * _median([s.dur for s in by_name[name]])

    def self_ms(name: str) -> float:
        return 1e3 * _median([s.self_s for s in by_name[name]])

    def calls_per_run(name: str) -> float:
        return len(by_name[name]) / nruns if nruns else 0.0

    def per_run_self_ms(*names: str) -> float:
        totals = [sum(s.self_s for s in run if s.name in names) for run in runs]
        return 1e3 * _median(totals)

    def points_per_s(name: str) -> float:
        busy = sum(s.dur for s in by_name[name])
        return sum(s.points for s in by_name[name]) / busy if busy else 0.0

    ffts = [s for s in spans if s.layer == "fft"]
    step_ffts = [s for s in ffts if s.by == "dynamics"]

    # step time: integrate minus the observers it calls
    step_s = sum(s.dur for s in by_name["dynamics.integrate"]) - sum(
        s.dur for s in by_name["runner.observer"]
    )
    hermitian_s = sum(s.dur for s in by_name["spectral.hermitian_defect"] if s.by == "dynamics")

    # outermost diagnostics spans, so nested diagnostics calls count once
    diagnostics_s = 0.0
    for run in runs:
        for s in run:
            if s.layer == "diagnostics" and (s.parent < 0 or run[s.parent].layer != "diagnostics"):
                diagnostics_s += s.dur
    body_total = sum(traced_body_s)

    rk4 = [s.dur for s in by_name["dynamics.rk4_step"]]
    untraced = _median(untraced_body_s)
    return {
        "fft.c2c_per_step": per_step(sum(1 for s in step_ffts if s.kind == "c2c")),
        "fft.r2c_per_step": per_step(sum(1 for s in step_ffts if s.kind == "r2c")),
        "fft.fwd_per_step": per_step(sum(1 for s in step_ffts if s.direction == "fwd")),
        "fft.inv_per_step": per_step(sum(1 for s in step_ffts if s.direction == "inv")),
        "fft.per_step.dynamics": per_step(len(step_ffts)),
        "fft.per_step.diagnostics": per_step(sum(1 for s in ffts if s.by == "diagnostics")),
        "fft.flops_per_step": per_step(sum(s.flops for s in ffts)),
        "fft.bytes_per_step": per_step(sum(s.nbytes for s in ffts)),
        "spectral.forward.ms": ms("spectral.forward"),
        "spectral.inverse.ms": ms("spectral.inverse"),
        "spectral.hermitian_defect.share": hermitian_s / step_s if step_s > 0 else 0.0,
        "spectral.dealias.ms": ms("spectral.dealias"),
        "spectral.poisson_solve.ms": ms("spectral.poisson_solve"),
        "spectral.antideriv_x2.ms": ms("spectral.antideriv_x2"),
        "dynamics.rk4_step.ms_p50": 1e3 * _quantile(rk4, 0.5),
        "dynamics.rk4_step.ms_p90": 1e3 * _quantile(rk4, 0.9),
        "dynamics.rk4_step.samples": float(len(rk4)),
        "dynamics.rk4_step.self_ms": self_ms("dynamics.rk4_step"),
        "dynamics.tendency.calls": per_step(len(by_name["dynamics.tendency"])),
        "dynamics.tendency.self_ms": self_ms("dynamics.tendency"),
        "dynamics.admissible_dt.calls": per_step(len(by_name["dynamics.admissible_dt"])),
        "dynamics.admissible_dt.ms": ms("dynamics.admissible_dt"),
        "dynamics.max_gradient.calls": per_step(len(by_name["dynamics.max_gradient"])),
        "dynamics.max_gradient.ms": ms("dynamics.max_gradient"),
        "dynamics.integrate.self_ms": per_run_self_ms("dynamics.integrate"),
        "diagnostics.sup_grad.calls": calls_per_run("diagnostics.sup_grad"),
        "diagnostics.sup_grad.ms": ms("diagnostics.sup_grad"),
        "diagnostics.min_axis_slope.ms": ms("diagnostics.min_axis_slope"),
        "diagnostics.l2_norm.ms": ms("diagnostics.l2_norm"),
        "diagnostics.symmetry_error.ms": ms("diagnostics.symmetry_error"),
        "diagnostics.share": diagnostics_s / body_total if body_total > 0 else 0.0,
        "diagnostics.residual.points_per_s": points_per_s("diagnostics.residual"),
        "diagnostics.extrapolate_blowup.ms": ms("diagnostics.extrapolate_blowup"),
        "diagnostics.fit_growth_rate.ms": ms("diagnostics.fit_growth_rate"),
        "snapshots.write_snapshot.calls": calls_per_run("snapshots.write_snapshot"),
        "snapshots.write_snapshot.ms": ms("snapshots.write_snapshot"),
        "runner.artifact_bytes": float(artifact_bytes),
        "runner.run.self_ms": per_run_self_ms("runner.run", "runner.observer"),
        "runner.oracle_check.ms": ms("runner.oracle_check"),
        "config.parse_config.ms": ms("config.parse_config"),
        "presets.build_initial_state.ms": ms("presets.build_initial_state"),
        "burgers.min_slope_series.ms": ms("burgers.min_slope_series"),
        "burgers.evaluate_many.points_per_s": points_per_s("burgers.evaluate_many"),
        "oracles.growth_envelope.ms": ms("oracles.growth_envelope"),
        "cli.main.self_ms": self_ms("cli.main"),
        "trace.overhead_frac": _median(traced_body_s) / untraced - 1.0 if untraced > 0 else 0.0,
    }
