"""Every name a module of invlab exports must exist, so a deletion cannot leave a stale export."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import invlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(invlab.__path__))


def test_package_imports_in_a_fresh_interpreter():
    # `import invlab` binds every name it re-exports, so a stale one fails here
    src = str(Path(invlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", "import invlab"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"invlab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
