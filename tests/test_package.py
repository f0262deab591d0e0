import importlib
import pkgutil

import pytest

import hybrel

MODULES = sorted(info.name for info in pkgutil.iter_modules(hybrel.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"hybrel.{name}")
    exported = getattr(module, "__all__", ())
    assert [item for item in exported if not hasattr(module, item)] == []
