"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Prints one PASS or FAIL line per test
and exits non-zero if any test fails.  The brief workload runs use a
small --samples override, so they take about a minute in all.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

from run import END_TO_END, ROOT, per_layer_metrics, span_metrics, spawn
from workloads import EXPECTED_DIR, RECORDED, WORKLOADS, load_expected

sys.path.insert(0, os.path.join(ROOT, "src"))

BRIEF_SAMPLES = {"verify-all": 4, "group-law": 8, "field-kernel": 40}
REPEATABLE = ("calls", "trivial_share", "repeat_share", "max_degree")


def brief(workload: str) -> dict:
    r = spawn(workload, 0, time.perf_counter() + 300.0, trace=True,
              samples=BRIEF_SAMPLES[workload])
    if "error" in r:
        raise AssertionError(f"{workload}: worker {r['error']}")
    return span_metrics([r])


def test_wrappers_bind_everywhere():
    import spans
    spans.install()
    left = spans.leftover_bindings()
    assert not left, f"unwrapped bindings: {left}"


def test_layers_reached(runs: dict):
    for name, m in runs.items():
        assert m["polynomials.gcd.calls"] > 0, f"{name}: no gcd calls"
        for layer in ("rootgroups.", "quadrangle."):
            calls = {k: v for k, v in m.items()
                     if k.startswith(layer) and k.endswith(".calls")}
            if name == "field-kernel":
                assert not any(calls.values()), f"{name}: {calls}"
            elif name == "verify-all":
                assert all(calls.values()), f"{name}: {calls}"
            else:
                assert sum(calls.values()) > 0, f"{name}: {calls}"


def test_counts_repeat(runs: dict):
    for name, first in runs.items():
        second = brief(name)
        for key, value in first.items():
            if key.endswith(REPEATABLE) and second[key] != value:
                raise AssertionError(f"{name}: {key} {value} then {second[key]}")


def test_marks_repeat():
    # verdict_s takes per-segment medians across verdicts, which holds
    # only if every verdict of one program seed is cut at the same points
    for name in WORKLOADS:
        counts = []
        for _ in range(2):
            r = spawn(name, 0, time.perf_counter() + 300.0,
                      samples=BRIEF_SAMPLES[name])
            assert "error" not in r, f"{name}: worker {r.get('error')}"
            counts.append(len(r["marks"]))
        assert counts[0] == counts[1] > 0, f"{name}: marks {counts}"


def test_default_instance_is_isotropic():
    # A known defect, pinned here: delta + t + s = 0, so form1 has a
    # nontrivial zero and field-kernel's anisotropy probe finds it.
    from f4quad.fields import KElem, LElem, default_instance
    inst = default_instance()
    one = KElem.one()
    for u in (LElem(one, one), LElem(KElem.zero(), one)):
        value = inst.form1(u, LElem.one(), one)
        assert value.is_zero(), f"form1({u}, 1, 1) = {value}"


def test_instance_file_is_default():
    from f4quad.fields import default_instance
    from f4quad.parser import parse_instance_file
    w = WORKLOADS["field-kernel"]
    parsed = parse_instance_file(os.path.join(os.path.dirname(__file__),
                                              w.instance_file))
    assert repr(parsed) == repr(default_instance()), repr(parsed)


def test_recordings_complete():
    for name in WORKLOADS:
        table = load_expected(name)
        assert sorted(table) == list(RECORDED), f"{name}: seeds {sorted(table)}"
        costless = [p for p in WORKLOADS[name].pool if "cost_s" not in table[p]]
        assert not costless, f"{name}: no recorded cost for {costless}"
        for seed in (0, 1):
            path = os.path.join(EXPECTED_DIR, f"{name}.seed{seed}.jsonl")
            with open(path, encoding="utf-8") as fh:
                body = fh.read().rstrip("\n")
            digest = hashlib.sha256(body.encode()).hexdigest()
            assert digest == table[seed]["sha256"], f"{path} vs table"
    fk = os.path.join(EXPECTED_DIR, "field-kernel.seed0.jsonl")
    with open(fk, encoding="utf-8") as fh:
        lines = [json.loads(l) for l in fh]
    fails = [l["name"] for l in lines if l["status"] == "fail"]
    assert fails == ["anisotropy-probe"], fails


def test_benchmark_json_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == per_layer_metrics()


def main() -> int:
    failed = 0

    def check(fn, *args):
        nonlocal failed
        t0 = time.perf_counter()
        try:
            fn(*args)
            status = "PASS"
        except Exception as exc:  # report and keep going
            failed += 1
            status = f"FAIL {type(exc).__name__}: {exc}"
        print(f"{status:<5} {fn.__name__} ({time.perf_counter() - t0:.1f} s)",
              flush=True)

    check(test_default_instance_is_isotropic)
    check(test_instance_file_is_default)
    check(test_recordings_complete)
    check(test_benchmark_json_matches_code)
    check(test_wrappers_bind_everywhere)
    runs = {}
    for name in WORKLOADS:
        try:
            runs[name] = brief(name)
        except AssertionError as exc:
            print(f"FAIL brief run: {exc}")
            return 1
    check(test_marks_repeat)
    check(test_layers_reached, runs)
    check(test_counts_repeat, runs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
