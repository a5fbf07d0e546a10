"""The public surface: exported names, and the layer functions the
benchmark's tracer rebinds by name."""

import importlib
import importlib.util
from pathlib import Path

import invar

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    element_methods = [("invar.gf", "FieldElement", meth, name)
                       for meth, name in mod.ELEMENT_OPS.items()]
    return mod.FUNCTIONS, mod.METHODS + tuple(element_methods)


def test_all_names_resolve():
    missing = [name for name in invar.__all__ if not hasattr(invar, name)]
    assert not missing


def test_tracer_names_exist():
    functions, methods = _tracer_tables()
    for modname, attr, _span in functions:
        assert callable(getattr(importlib.import_module(modname), attr)), attr
    for modname, cls_name, meth, _span in methods:
        cls = getattr(importlib.import_module(modname), cls_name)
        assert meth in cls.__dict__, f"{cls_name}.{meth}"
