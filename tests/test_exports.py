"""The public names the package and each of its modules export.

A deleted function can leave its name behind in an `__all__` list,
where only `from djcm.<module> import *` would notice. Every exported
name must resolve, and each module may list a name only once.
"""

import importlib
import pkgutil

import pytest

import djcm

MODULES = ["djcm"] + [f"djcm.{info.name}" for info in pkgutil.iter_modules(djcm.__path__)]


def test_every_module_is_covered():
    assert {"djcm.states", "djcm.entanglement", "djcm.evolution", "djcm.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ lists undefined names {missing}"
