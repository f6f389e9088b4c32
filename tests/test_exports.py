import ast
import importlib
import inspect
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


@pytest.mark.parametrize("name", ["config", "tensor"])
def test_the_core_modules_import_no_other_tinydet_module(name):
    # the tensor core and the JSON reader know no file layout and no model:
    # the checkpoint format lives in detector, the dataset format in scenes
    tree = ast.parse(inspect.getsource(importlib.import_module(f"tinydet.{name}")))
    imported = [n.module or "." for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                if n.level or n.module.split(".")[0] == "tinydet"]
    imported += [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                 for a in n.names if a.name.split(".")[0] == "tinydet"]
    assert imported == []
