"""Wall clocks for the end-to-end metrics, corrected for the speed of a shared host.

On a shared host other tenants' load slows every instruction of this
process, by up to about 2.5x, in spells of seconds to minutes.  CPU time
grows with wall time, so the slowdown is not time spent descheduled, and
medians or minima over a 30-second run cannot remove it: the wall-time
median of a run follows how busy the host was, not the program.

`SpeedClock` times a stretch of code and, from a SIGALRM handler every
`INTERVAL_S`, a fixed probe that uses none of invlab's code, so a change
to the program does not change the probe.  Probe times taken during the
stretch give the host's speed then, relative to the probe's time on an
unloaded host, and the stretch's corrected time is

    (wall - time spent in the handler) * mean(reference_s / probe_s)

that is, each part of the stretch counted at the speed the probe saw, in
seconds of an unloaded host.  Two probes:

  NUMERIC      a pure-Python loop and a 64x64 complex numpy FFT, the two
               kinds of work invlab's runs spend their time in; of the
               probes tried (the loop, numpy ufuncs, 64^2 and 128^2 FFTs,
               a 4 MiB copy, and sums of them) it followed both the
               oracles and the blowup-512 bodies best
  INTERPRETER  the loop alone, for set-ups, whose timed import must load
               numpy itself

On a 2-vCPU VM of a shared host, the median bodies of five 20-second runs
spread (quartile distance over median) 0.47 in wall time and 0.04
corrected on the oracles workload, and 0.17 and 0.04 on blowup-512.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

INTERVAL_S = 0.025
LOOPS = 2000


def _loop() -> None:
    s = 0
    for i in range(LOOPS):
        s += i * i


def _loop_and_fft() -> None:
    import numpy as np

    _loop()
    np.fft.fft2(np.ones((64, 64), dtype=complex))


@dataclass(frozen=True)
class Probe:
    work: Callable[[], None]
    # the probe's time on an unloaded host: the fastest of 25,000 or more on a
    # 2-vCPU Intel Xeon VM, so corrected times read as seconds of that host
    reference_s: float

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0


INTERPRETER = Probe(_loop, 115e-6)
NUMERIC = Probe(_loop_and_fft, 197e-6)


class WallClock:
    """Wall seconds of the stretch of code it wraps, as `wall_s`."""

    wall_s = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._t0


class SpeedClock(WallClock):
    """Wall seconds and host-speed-corrected seconds (`corrected_s`) of a stretch."""

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.times: list[float] = []
        self.handler_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.times.append(self.probe())
        self.handler_s += time.perf_counter() - t0

    def __enter__(self):
        self.times.append(self.probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return super().__enter__()

    def __exit__(self, *exc) -> None:
        super().__exit__(*exc)
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.times.append(self.probe())

    @property
    def speed(self) -> float:
        """Mean host speed during the stretch; 1.0 is an unloaded host."""
        return statistics.fmean(self.probe.reference_s / t for t in self.times)

    @property
    def corrected_s(self) -> float:
        return (self.wall_s - self.handler_s) * self.speed
