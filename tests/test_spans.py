"""The traced benchmark binds library functions by name; they must exist."""

import importlib.util
import os
from types import FunctionType

import f4quad.sampling
from f4quad.fields import default_instance
from f4quad.moufang import MoufangSet
from f4quad.quadrangle import Quadrangle
from f4quad.rootgroups import UPlus

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


def test_embeddings_go_through_the_class_binding(monkeypatch):
    # moufang.embed_derived is traced by rebinding the class attribute, so
    # the group law must reach it there
    original, calls = MoufangSet.embed_derived, []

    def counting(self, r1, r2):
        calls.append(r1)
        return original(self, r1, r2)

    monkeypatch.setattr(MoufangSet, "embed_derived", counting)
    ms = MoufangSet(Quadrangle(UPlus(default_instance())))
    rng = f4quad.sampling.Rng(3)
    ms.mul(ms.sample_label(rng, 1), ms.sample_label(rng, 1))
    assert len(calls) == 3  # both factors, then the product re-embedded
