"""Line-oriented run configuration: `key = value`, `#` comments, dotted keys."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .dynamics import ModelKind, StepControl
from .spectral import Grid2D

__all__ = ["RunConfig", "ConfigError", "parse_config", "config_echo"]


class ConfigError(ValueError):
    pass


_MODEL_NAMES = {kind.value: kind for kind in ModelKind}

# key -> (type tag, RunConfig field); RunConfig holds the defaults
_SCHEMA = {
    "model": ("model", "model"),
    "ic": ("str", "ic"),
    "ic_omega": ("str", "ic_omega"),
    "nx": ("int", "nx"),
    "ny": ("int", "ny"),
    "dt": ("float", "dt"),  # 0 means CFL-chosen
    "cfl": ("float", "cfl"),
    "t_end": ("float", "t_end"),
    "max_grad": ("float", "max_grad"),
    "output.dir": ("str", "output_dir"),
    "output.snapshot_interval": ("float", "snapshot_interval"),
    "output.series_interval": ("float", "series_interval"),
    "diagnostics": ("list", "diagnostics"),
}

_REQUIRED = ("model", "ic", "t_end")
_KNOWN_DIAGNOSTICS = ("conservation", "symmetry")


@dataclass
class RunConfig:
    model: ModelKind
    ic: str
    t_end: float
    ic_omega: str = ""
    nx: int = 256
    ny: int = 256
    dt: Optional[float] = None  # None: CFL-chosen
    cfl: float = StepControl.cfl
    max_grad: float = StepControl.max_grad
    output_dir: str = "out"
    snapshot_interval: float = 0.0
    series_interval: float = 0.01
    diagnostics: tuple = ()

    def __post_init__(self) -> None:
        for key, (tag, name) in _SCHEMA.items():
            value = getattr(self, name)
            if tag == "float" and value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.t_end < 0:
            raise ConfigError(f"t_end must be nonnegative, got {self.t_end}")
        try:  # the grid and the step control each check their own keys
            Grid2D(self.nx, self.ny)
            StepControl(self.dt, self.cfl, self.max_grad)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.output_dir:
            raise ConfigError("output.dir must not be empty")
        if self.snapshot_interval < 0 or self.series_interval < 0:
            raise ConfigError("output intervals must be nonnegative")
        for name in self.diagnostics:
            if name not in _KNOWN_DIAGNOSTICS:
                raise ConfigError(
                    f"unknown diagnostic {name!r}; known: {', '.join(_KNOWN_DIAGNOSTICS)}"
                )


def _entries(lines, document: bool) -> dict[str, tuple[str, str]]:
    """key -> (value, where) of `key = value` lines, each key at most once.  A document
    line may be blank or end in a `#` comment; an override is one line without either."""
    entries: dict[str, tuple[str, str]] = {}
    for lineno, raw in enumerate(lines, start=1):
        where = f"line {lineno}" if document else "override"
        line = raw.split("#", 1)[0].strip() if document else raw.strip()
        if document and not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{where}: empty key")
        if not document and ("#" in value or len(value.splitlines()) > 1):
            raise ConfigError(f"{where}: the value of {key!r} holds '#' or a line break")
        if key in entries:
            first = f" (first set on {entries[key][1]})" if document else ""
            raise ConfigError(f"{where}: duplicate key {key!r}{first}")
        entries[key] = (value, where)
    return entries


def _convert(key: str, value: str, where: str) -> object:
    tag = _SCHEMA[key][0]
    if tag == "model" and value not in _MODEL_NAMES:
        raise ConfigError(f"{where}: unknown model {value!r}; choose from {', '.join(sorted(_MODEL_NAMES))}")
    try:
        if tag == "int":
            return int(value)
        if tag == "float":
            return float(value)
        if tag == "model":
            return _MODEL_NAMES[value]
        if tag == "list":
            return tuple(item.strip() for item in value.split(",") if item.strip())
        return value
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {value!r} as {tag} for key {key!r}") from None


def parse_config(text: str, overrides=()) -> RunConfig:
    """Parse and validate a config document and its `key=value` overrides;
    an override replaces a document key, and defaults fill unset keys."""
    entries = _entries(text.splitlines(), document=True)
    entries.update(_entries(overrides, document=False))
    values: dict[str, object] = {}
    for key, (value, where) in entries.items():
        if key not in _SCHEMA:
            raise ConfigError(f"{where}: unknown key {key!r}")
        values[_SCHEMA[key][1]] = _convert(key, value, where)
    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")
    if values.get("dt") == 0.0:
        del values["dt"]
    return RunConfig(**values)


def config_echo(cfg: RunConfig) -> str:
    """Canonical `key = value` rendering of a resolved config, in _SCHEMA order.

    Unset values (None, "", ()) are left out, except dt, which echoes as 0.
    """
    lines = []
    for key, (tag, name) in _SCHEMA.items():
        value = getattr(cfg, name)
        if key == "dt" and value is None:
            value = 0.0
        if value is None or value == "" or value == ():
            continue
        if tag == "model":
            value = value.value
        elif tag == "float":
            value = f"{value:.17g}"
        elif tag == "list":
            value = ", ".join(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
