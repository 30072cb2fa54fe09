"""Every public name resolves, and the package itself loads nothing.

A function deleted from a module but left in its __all__ breaks only
`from module import *`, which nothing else here runs, so the check is
made directly: each module's __all__ names attributes the module has, and
any public name of the package comes from some module's __all__.  The
names live in their modules, so a bare `import bellodds` imports none of
them, nor numpy.
"""

import importlib
import subprocess
import sys
import types

import pytest

import bellodds

MODULES = ("bayes", "law", "scenarios", "adversary", "simulate", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    module = importlib.import_module(f"bellodds.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_package_names_come_from_module_all():
    listed = {entry for name in MODULES for entry in importlib.import_module(f"bellodds.{name}").__all__}
    public = {
        name
        for name, value in vars(bellodds).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - listed) == []


def test_import_loads_no_submodule_or_numpy_and_exports_no_name():
    probe = (
        "import sys, bellodds\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'bellodds.'))))\n"
        "print(sorted(n for n in vars(bellodds) if not n.startswith('_')))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n[]\n"
