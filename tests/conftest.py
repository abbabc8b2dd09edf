"""Helpers shared by the test modules."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import invlab
from invlab.oracles import WedgeSolution, PROFILES


def fresh_interpreter(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter that imports this checkout's invlab, run with `args`."""
    src = str(Path(invlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def off_axis_points(n, seed):
    """n (x1, x2, t) tuples with 0.05 <= |x2| <= 2 and 0 <= t <= 2, drawn as `invlab oracle-check` draws them."""
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-2, 2, n)
    x2 = rng.uniform(0.05, 2.0, n) * rng.choice([-1.0, 1.0], n)
    t = rng.uniform(0.0, 2.0, n)
    return list(zip(x1, x2, t))


def perturbed_wedge(eps):
    """The wedge family with theta += eps x1: no longer a solution."""
    base = WedgeSolution(PROFILES["sin"])

    def sample(x1, x2, t):
        s = base.sample(x1, x2, t)
        return dataclasses.replace(s, theta=s.theta + eps * x1, dtheta_dx1=s.dtheta_dx1 + eps)

    return sample
