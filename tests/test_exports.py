import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

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


@pytest.mark.parametrize("name", ["anchors", "config", "tensor"])
def test_the_core_modules_import_no_other_tinydet_module(name):
    # the tensor core, the JSON reader and the anchor layout know no file
    # layout and no network: the checkpoint format lives in detector, the
    # dataset format in scenes, and the level strides in anchors
    tree = ast.parse(inspect.getsource(importlib.import_module(f"tinydet.{name}")))
    imported = [n.module or "." for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                if n.level or n.module.split(".")[0] == "tinydet"]
    imported += [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                 for a in n.names if a.name.split(".")[0] == "tinydet"]
    assert imported == []


def test_scenes_and_evaluation_load_no_network_module():
    # a fresh interpreter, since this one has imported every module already
    code = ("import sys, tinydet.scenes, tinydet.evaluation; "
            "print(sorted(m for m in sys.modules if m.startswith('tinydet.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout)
    assert "tinydet.scenes" in loaded and "tinydet.evaluation" in loaded
    assert not {"tinydet.pyramid", "tinydet.context", "tinydet.gating"} & set(loaded)
