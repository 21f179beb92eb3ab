"""The traced benchmark binds library functions by name; they must exist."""

import importlib.util
import os
from types import FunctionType

import f4quad.sampling

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                     "spans.py")


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # install() is never called
    for module, path in spans.TARGETS.values():
        # install() and install_marks() rebind plain functions only; a
        # cache object in place of one would go unmeasured, silently
        fn = spans._resolve(module, path)
        assert isinstance(fn, FunctionType), f"{module}.{path}"
    for name in spans.SAMPLERS:
        assert callable(vars(f4quad.sampling).get(name)), name
