"""The traced benchmark binds library functions by name; they must exist."""

import importlib.util
import json
import os
import subprocess
import sys
from types import FunctionType

import pytest

import f4quad.sampling
from f4quad.fields import default_instance
from f4quad.moufang import MoufangSet
from f4quad.quadrangle import Quadrangle
from f4quad.rootgroups import UPlus

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
SPANS = os.path.join(PERFBENCH, "spans.py")


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


def _worker(workload, *args):
    """The last JSON line of one benchmark worker at program seed 0."""
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "worker.py"), "--workload",
         workload, "--program-seed", "0", *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["field-kernel", "group-law"])
def test_benchmark_worker_reads_the_records(workload):
    # the worker reads load_instance's list (field-kernel) and the run's
    # records by attribute name; a renamed attribute crashes it here
    out = _worker(workload, "--samples", "4")
    assert {"counts", "failed_checks", "suite_s", "sha256"} <= set(out)


@pytest.mark.parametrize("workload", ["verify-all", "group-law"])
def test_benchmark_keeps_its_marks(workload):
    # the worker marks a verdict every 128 poly_gcd calls and corrects each
    # segment for the host's speed; skipped gcd work thins the marks, and
    # too few leave the verdict uncorrected
    marks = len(_worker(workload)["marks"])
    assert marks >= 100, (
        f"{workload} makes {marks} marks per verdict at program seed 0, "
        "below 100: mark on work that no change removes (ROADMAP item 3)")
