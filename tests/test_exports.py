import importlib
import pkgutil

import pytest

import tinydet

MODULES = sorted(m.name for m in pkgutil.iter_modules(tinydet.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition goes passes every other test,
    # and breaks only `from tinydet.<module> import *`
    module = importlib.import_module(f"tinydet.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"tinydet.{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []
