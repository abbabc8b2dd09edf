"""Every name a module of invlab exports must exist, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest
from conftest import fresh_interpreter

import invlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(invlab.__path__))


def test_package_imports_in_a_fresh_interpreter():
    # `import invlab` binds every name it re-exports, so a stale one fails here
    proc = fresh_interpreter("-c", "import invlab")
    assert proc.returncode == 0, proc.stderr


def test_package_binds_only_the_transform_pair():
    # every other name is imported from its module
    proc = fresh_interpreter(
        "-c",
        "import inspect, invlab\n"
        "print(sorted(n for n, v in vars(invlab).items() if not n.startswith('_') and not inspect.ismodule(v)))\n"
    )
    assert proc.stdout.strip() == "['forward', 'inverse']", proc.stderr


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"invlab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
