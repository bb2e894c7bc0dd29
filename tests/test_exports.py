"""The public names the package and each of its modules export.

A deleted function can leave its name behind in an `__all__` list,
where only `from djcm.<module> import *` would notice. Every exported
name must resolve, and each module may list a name only once. The
benchmark under `perfbench/` binds djcm names of its own, so each of
those must resolve too.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bound_names() -> list[tuple[str, str]]:
    """(module, attribute) of every djcm name the benchmark binds, read from its source.

    `perfbench/tracing.py` wraps each function its `LAYERS` dict names in
    `djcm.<layer>`, and `perfbench/workloads.py` imports names `from djcm...`.
    Neither file is imported: only their syntax trees are read.
    """
    names = []
    tracing = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in ast.walk(tracing):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            for layer, funcs in ast.literal_eval(node.value).items():
                names += [(f"djcm.{layer}", func) for func in funcs]
    workloads = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in ast.walk(workloads):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "djcm":
            names += [(node.module, alias.name) for alias in node.names]
    return names


def test_every_name_the_benchmark_binds_resolves():
    # a deleted public name the benchmark still binds crashes its run
    names = _bound_names()
    assert ("djcm.integrate", "integrate_pair") in names
    assert ("djcm.integrate", "oracle_config") in names
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == [], f"the benchmark binds undefined names {missing}"
