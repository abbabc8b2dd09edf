"""Spans around invlab's public functions, plus an FFT call counter.

A Tracer wraps every public function of each invlab layer module and the
numpy.fft / scipy.fft transform entry points.  A wrapper is installed under
every name that binds the original function in any loaded invlab module,
because `from .spectral import forward` creates a second binding that
patching `invlab.spectral.forward` alone would miss.  Nothing in
`src/invlab` is edited; `uninstall` restores every binding.

Spans are kept in memory.  Each records its layer, its parent span and the
layer its work serves (`by`): its own layer, or for `spectral` and `fft`
spans the innermost enclosing layer that is neither.  That is how
transforms are attributed to the layer that asked for them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

LAYERS = (
    "spectral",
    "dynamics",
    "diagnostics",
    "burgers",
    "oracles",
    "config",
    "presets",
    "snapshots",
    "runner",
    "cli",
)

# entry point -> (kind, direction); "r2c" covers every real-input or
# real-output transform (rfft*/irfft*/hfft/ihfft)
FFT_ENTRY_POINTS = {
    "fft": ("c2c", "fwd"),
    "ifft": ("c2c", "inv"),
    "fft2": ("c2c", "fwd"),
    "ifft2": ("c2c", "inv"),
    "fftn": ("c2c", "fwd"),
    "ifftn": ("c2c", "inv"),
    "rfft": ("r2c", "fwd"),
    "irfft": ("r2c", "inv"),
    "rfft2": ("r2c", "fwd"),
    "irfft2": ("r2c", "inv"),
    "rfftn": ("r2c", "fwd"),
    "irfftn": ("r2c", "inv"),
    "hfft": ("r2c", "fwd"),
    "ihfft": ("r2c", "inv"),
}

# layers that sit underneath the one whose work a transform serves
_KERNEL_LAYERS = ("spectral", "fft")

# span name -> (positional index, keyword) of the argument whose length is
# recorded as `points`, for the point-throughput metrics
_POINT_ARGS = {
    "diagnostics.residual": (2, "points"),
    "burgers.evaluate_many": (1, "xs"),
}


@dataclass(slots=True)
class Span:
    id: int
    parent: int  # -1 at the top
    layer: str
    name: str
    by: str  # own layer, or for spectral/fft the caller's; "" if none
    start: float
    end: float = 0.0
    child_s: float = 0.0  # summed durations of direct children
    ok: bool = True
    points: int = 0
    flops: float = 0.0
    nbytes: int = 0
    kind: str = ""
    direction: str = ""

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def public_functions(module) -> list[tuple[str, Callable]]:
    """Functions defined in `module` whose names do not start with '_'."""
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    ]


def _fft_cost(name: str, kind: str, arg, result) -> tuple[float, int]:
    """Computed flops (5 N log2 N complex, 2.5 N log2 N real) and bytes in + out."""
    # the real-space side carries the logical transform size
    real_side = arg if name in ("rfft", "rfft2", "rfftn", "ihfft") else result
    shape = getattr(real_side, "shape", ())
    size = getattr(real_side, "size", 0)
    if name.endswith("2"):
        length = math.prod(shape[-2:])
    elif name.endswith("n"):
        length = size
    else:
        length = shape[-1] if shape else 0
    flops = (5.0 if kind == "c2c" else 2.5) * size * math.log2(length) if length > 1 else 0.0
    return flops, getattr(arg, "nbytes", 0) + getattr(result, "nbytes", 0)


class Tracer:
    """Records spans while installed; `runs` holds one span list per `begin_run`."""

    def __init__(self) -> None:
        self.runs: list[list[Span]] = []
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def begin_run(self) -> None:
        """Start a new span list; spans of one workload repetition share it."""
        self._spans = []
        self.runs.append(self._spans)

    def _open(self, layer: str, name: str) -> Span:
        by = layer if layer not in _KERNEL_LAYERS else ""
        if not by:
            by = next((s.layer for s in reversed(self._stack) if s.layer not in _KERNEL_LAYERS), "")
        parent = self._stack[-1].id if self._stack else -1
        span = Span(len(self._spans), parent, layer, name, by, time.perf_counter())
        self._spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span, ok: bool) -> None:
        span.end = time.perf_counter()
        span.ok = ok
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.dur

    def _call(self, layer: str, name: str, fn: Callable, args, kwargs, span_hook=None):
        span = self._open(layer, name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(span, ok=False)
            raise
        if span_hook is not None:
            span_hook(span, args, kwargs, result)
        self._close(span, ok=True)
        return result

    # -- wrappers --------------------------------------------------------
    def _wrap_layer_function(self, layer: str, fname: str, fn: Callable) -> Callable:
        name = f"{layer}.{fname}"
        point_arg = _POINT_ARGS.get(name)

        def count_points(span, args, kwargs, result):
            index, key = point_arg
            pts = args[index] if len(args) > index else kwargs[key]
            span.points = len(pts)

        hook = count_points if point_arg else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "dynamics.integrate":
                args, kwargs = tracer._wrap_observers(args, kwargs)
            return tracer._call(layer, name, fn, args, kwargs, hook)

        return wrapper

    def _wrap_observers(self, args, kwargs):
        # observers are closures of the caller (runner.run): give them a
        # runner span so their work is not charged to integrate's self time
        def traced(obs):
            return lambda state: self._call("runner", "runner.observer", obs, (state,), {})

        if len(args) > 3:
            args = args[:3] + ([traced(o) for o in args[3]],) + args[4:]
        elif "observers" in kwargs:
            kwargs = dict(kwargs, observers=[traced(o) for o in kwargs["observers"]])
        return args, kwargs

    def _wrap_fft(self, label: str, fname: str, fn: Callable) -> Callable:
        kind, direction = FFT_ENTRY_POINTS[fname]
        name = f"fft.{label}.{fname}"
        tracer = self

        def record(span, args, kwargs, result):
            span.kind, span.direction = kind, direction
            arg = args[0] if args else kwargs.get("a")
            span.flops, span.nbytes = _fft_cost(fname, kind, arg, result)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._stack and tracer._stack[-1].layer == "fft":
                return fn(*args, **kwargs)  # count only the outermost transform
            return tracer._call("fft", name, fn, args, kwargs, record)

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every layer function and FFT entry point under every binding."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        import numpy.fft
        import scipy.fft

        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"invlab.{layer}")
            for fname, fn in public_functions(module):
                wrappers[id(fn)] = self._wrap_layer_function(layer, fname, fn)
        namespaces = [m for name, m in sys.modules.items() if name == "invlab" or name.startswith("invlab.")]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(namespace, attr, wrapper)
        for label, namespace in (("numpy", numpy.fft), ("scipy", scipy.fft)):
            for fname in FFT_ENTRY_POINTS:
                fn = getattr(namespace, fname, None)
                if fn is not None:
                    self._patch(namespace, fname, self._wrap_fft(label, fname, fn))

    def _patch(self, namespace, attr: str, wrapper: Callable) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every binding that `install` replaced."""
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def fft_counts(spans: list[Span]) -> Counter:
    """Transform calls keyed by (calling layer, kind, direction)."""
    return Counter((s.by, s.kind, s.direction) for s in spans if s.layer == "fft")


def call_counts(spans: list[Span]) -> Counter:
    """Calls per span name."""
    return Counter(s.name for s in spans)


def accepted_steps(spans: list[Span]) -> int:
    """RK4 steps that returned (a step that raised was not accepted)."""
    return sum(1 for s in spans if s.name == "dynamics.rk4_step" and s.ok)

