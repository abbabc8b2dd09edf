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


def fresh_interpreter(script: str) -> subprocess.CompletedProcess:
    """`script` run by a new interpreter that imports this checkout's invlab."""
    src = str(Path(invlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)


def test_package_imports_in_a_fresh_interpreter():
    # `import invlab` binds every name it re-exports, so a stale one fails here
    proc = fresh_interpreter("import invlab")
    assert proc.returncode == 0, proc.stderr


def test_package_binds_only_the_transform_pair():
    # every other name is imported from its module
    proc = fresh_interpreter(
        "import inspect, invlab\n"
        "print(sorted(n for n, v in vars(invlab).items() if not n.startswith('_') and not inspect.ismodule(v)))\n"
    )
    assert proc.stdout.strip() == "['forward', 'inverse']", proc.stderr


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"invlab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
