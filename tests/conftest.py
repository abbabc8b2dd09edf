"""Helpers shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import invlab


def fresh_interpreter(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter that imports this checkout's invlab, run with `args`."""
    src = str(Path(invlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
