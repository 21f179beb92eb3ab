"""The traced benchmark binds library functions by name; they must exist."""

import importlib.util
import os

import f4quad.sampling

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                     "spans.py")


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # install() is never called
    for module, path in spans.TARGETS.values():
        assert callable(spans._resolve(module, path)), f"{module}.{path}"
    for name in spans.SAMPLERS:
        assert callable(vars(f4quad.sampling).get(name)), name
