"""Every public name resolves.

A function deleted from a module but left in its __all__ breaks only
`from module import *`, which nothing else here runs, so the check is
made directly: each module's __all__ names attributes the module has, and
each public name of the package comes from some module's __all__.
"""

import importlib
import types

import pytest

import bellodds

MODULES = ("bayes", "scenarios", "adversary", "simulate", "cli")


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
    assert public  # the package does export names
    assert sorted(public - listed) == []
