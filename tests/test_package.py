import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hybrel

MODULES = sorted(info.name for info in pkgutil.iter_modules(hybrel.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"hybrel.{name}")
    exported = getattr(module, "__all__", ())
    assert [item for item in exported if not hasattr(module, item)] == []


def _package_imports(name):
    """The package modules that hybrel.<name> imports, by relative import."""
    tree = ast.parse((Path(hybrel.__file__).parent / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_reference_oracle_is_a_leaf():
    # the run pipeline never reaches the chance-measure oracle, and the
    # limit-state contract in model.py depends on nothing above it
    importers = {name for name in MODULES + ["__init__"]
                 if "chance" in _package_imports(name)}
    assert importers == {"__init__"}
    assert _package_imports("model") <= {"distributions", "errors"}


def test_laws_sit_at_the_bottom_of_the_import_graph():
    # the input laws and the dimension checks need only the count rule and
    # the error classes, so every module can build a law
    assert _package_imports("distributions") <= {"config", "errors"}
    assert _package_imports("config") <= {"errors"}


def test_solver_reaches_model_through_its_public_names():
    # the box refinement differentiates through lsf_and_gradient, so the
    # search imports no private helper of model.py
    tree = ast.parse((Path(hybrel.__file__).parent / "solver.py").read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "model"
             for alias in node.names]
    assert names and not [name for name in names if name.startswith("_")]
