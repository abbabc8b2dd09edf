"""Command-line driver.

Subcommands: run, oracle-check, convergence, fit-growth, blowup-est.
Exit codes: 0 ok, 1 any other error, 2 validation or I/O error, 3 blowup
signal, 4 oracle-check failure.  Every error prints one `error: ...` line
to stderr; an error of exit 1 names its exception type there.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, build_config, parse_entries
from .diagnostics import TimeSeries, extrapolate_blowup, fit_growth_rate
from .presets import SOLVER_PRESETS
from .runner import RESIDUAL_THRESHOLD, convergence, oracle_check, run

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VALIDATION = 2
EXIT_BLOWUP = 3
EXIT_ORACLE_FAIL = 4

# the families of oracles.FAMILIES, for the help; reading them there would
# import the oracle stack into every command
_ORACLE_FAMILIES = ("wedge", "moving-domain", "modified", "stationary")


def _parse_window(text: str) -> tuple[float, float]:
    try:
        a, b = (float(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"window must be 'a,b', got {text!r}") from None
    if not a < b:
        raise ConfigError(f"window must be increasing, got {text!r}")
    return a, b


def _load_series_column(path: str, column: str) -> TimeSeries:
    lines = Path(path).read_text().splitlines()
    if not any(line.strip() for line in lines):  # genfromtxt would warn, then fail on no names
        raise ConfigError(f"{path}: no CSV header found")
    data = np.genfromtxt(lines, delimiter=",", names=True)
    if data.dtype.names is None:
        raise ConfigError(f"{path}: no CSV header found")
    names = data.dtype.names
    if column not in names:
        raise ConfigError(f"{path}: no column {column!r}; available: {', '.join(names)}")
    t = np.atleast_1d(data[names[0]])
    v = np.atleast_1d(data[column])
    keep = np.isfinite(v)
    if not np.any(keep):
        raise ConfigError(f"{path}: column {column!r} has no finite values")
    return TimeSeries(t[keep], np.abs(v[keep]))


def _resolve_config(config: str, settings=()) -> RunConfig:
    """The RunConfig of a config file or preset name, with `KEY=VALUE` overrides applied, each key at most once."""
    if config in SOLVER_PRESETS:
        text = SOLVER_PRESETS[config]
    elif Path(config).exists():
        text = Path(config).read_text()
    else:
        known = ", ".join(sorted(SOLVER_PRESETS))
        raise ConfigError(f"{config!r} is neither a config file nor a preset (presets: {known})")
    entries = parse_entries(text)
    overrides = {}
    for item in settings:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key in overrides:
            raise ConfigError(f"override: duplicate key {key!r}")
        overrides[key] = value
    merged = [(k, v, ln) for k, v, ln in entries if k not in overrides]
    merged.extend((k, v, None) for k, v in overrides.items())
    return build_config(merged)


def _cmd_run(args) -> int:
    artifacts = run(_resolve_config(args.config, args.set or ()))
    print(f"wrote {artifacts.series_path} ({artifacts.steps} steps)")
    if artifacts.blowup is not None:
        b = artifacts.blowup
        print(f"blowup signalled at t = {b.t:.6g} ({b.reason}, max|grad| = {b.max_grad:.4g})")
        return EXIT_BLOWUP
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    if args.preset and args.preset_flag and args.preset != args.preset_flag:
        raise ConfigError(f"conflicting presets {args.preset!r} and --preset {args.preset_flag!r}")
    preset = args.preset_flag or args.preset
    if args.output == "":
        raise ConfigError("--output must not be empty")
    outdir = Path(args.output) if args.output else None
    report = oracle_check(args.family, preset, npoints=args.npoints, seed=args.seed, output_dir=outdir)
    omega_txt = "-" if report.max_omega_residual is None else f"{report.max_omega_residual:.3e}"
    print(f"family {report.family} preset {report.preset}: "
          f"max residuals theta {report.max_theta_residual:.3e}, omega {omega_txt} "
          f"({report.npoints} points)")
    if report.envelope_path is not None:
        print(f"wrote {report.envelope_path}")
    if not report.passed:
        print(f"FAIL: residual exceeds {RESIDUAL_THRESHOLD:g}")
        return EXIT_ORACLE_FAIL
    print("PASS")
    return EXIT_OK


def _cmd_convergence(args) -> int:
    rows = convergence(_resolve_config(args.config), args.levels, mode=args.mode)
    print(f"{'level':>5} {'nx':>6} {'ny':>6} {'dt':>12} {'steps':>7} {'axis error':>14} {'order':>8}")
    for r in rows:
        order = "-" if r.order is None else f"{r.order:.2f}"
        print(f"{r.level:>5} {r.nx:>6} {r.ny:>6} {r.dt:>12.6g} {r.steps:>7} {r.error:>14.6e} {order:>8}")
    return EXIT_OK


def _cmd_fit_growth(args) -> int:
    series = _load_series_column(args.series, args.column)
    window = _parse_window(args.window) if args.window else None
    fit = fit_growth_rate(series, window)
    print(f"rate = {fit.rate:.12g}")
    print(f"intercept = {fit.intercept:.12g}")
    print(f"r2 = {fit.r2:.12g}")
    print(f"window = [{fit.window[0]:.6g}, {fit.window[1]:.6g}]")
    return EXIT_OK


def _cmd_blowup_est(args) -> int:
    series = _load_series_column(args.series, args.column)
    window = _parse_window(args.window) if args.window else None
    est = extrapolate_blowup(series, window)
    t_txt = "inf" if math.isinf(est.t_est) else f"{est.t_est:.12g}"
    print(f"t_est = {t_txt}")
    print(f"r2 = {est.r2:.12g}")
    if est.warning:
        print(f"warning: {est.warning}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invlab",
        description="Pseudo-spectral runs and exact-solution checks for inviscid 2D transport models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured run (config file or preset name)")
    p_run.add_argument("config")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    # --output DIR is one more override, --set output.dir=DIR
    p_run.add_argument("--output", dest="set", action="append", type="output.dir={}".format, metavar="DIR",
                       help="override output.dir")
    p_run.set_defaults(func=_cmd_run)

    p_oc = sub.add_parser("oracle-check", help="residual-check a closed-form family")
    p_oc.add_argument("family", help=" | ".join(_ORACLE_FAMILIES))
    p_oc.add_argument("preset", nargs="?", default=None)
    p_oc.add_argument("--preset", dest="preset_flag", default=None)
    p_oc.add_argument("--npoints", type=int, default=500)
    p_oc.add_argument("--seed", type=int, default=0)
    p_oc.add_argument("--output", help="directory for the growth-envelope CSV")
    p_oc.set_defaults(func=_cmd_oracle_check)

    p_conv = sub.add_parser("convergence", help="refinement study against the axis oracle")
    p_conv.add_argument("config")
    p_conv.add_argument("--levels", type=int, required=True)
    p_conv.add_argument("--mode", choices=("temporal", "spatial"), default="temporal")
    p_conv.set_defaults(func=_cmd_convergence)

    p_fit = sub.add_parser("fit-growth", help="exponential-rate fit of a series.csv column")
    p_fit.add_argument("series")
    p_fit.add_argument("--column", default="sup_grad_theta")
    p_fit.add_argument("--window", help="t window 'a,b'")
    p_fit.set_defaults(func=_cmd_fit_growth)

    p_est = sub.add_parser("blowup-est", help="reciprocal-fit blowup-time estimate from series.csv")
    p_est.add_argument("series")
    p_est.add_argument("--column", default="min_axis_slope")
    p_est.add_argument("--window", help="t window 'a,b'")
    p_est.set_defaults(func=_cmd_blowup_est)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
