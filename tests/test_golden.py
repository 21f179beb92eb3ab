"""Frozen canonical strings: coordinate printing is part of the contract.

The expected values below were produced once from the seeded samplers
and pin both the serialisation format and the underlying arithmetic.
"""

import json
from pathlib import Path

import pytest

from f4quad import parser, verifier
from f4quad.fields import K_S, default_instance
from f4quad.moufang import MoufangSet
from f4quad.quadrangle import Quadrangle
from f4quad.rootgroups import UPlus
from f4quad.sampling import Rng


def test_block_member_golden_strings():
    ms = MoufangSet(Quadrangle(UPlus(default_instance())))
    rng = Rng(2026)
    through = ms.sample_label(rng, 1)
    assert str(through) == (
        "[(s^2/t, (s^2 + t)/t, 0),"
        "(1/s + ((s + 1)/s)*e, t/s + (t)*e, 0)]")

    sphere = ms.sphere_at_infinity(through)
    got = [str(p) for p in sphere.sample(rng, 3, 1)]
    assert got == [
        "[(s^2/t, (s^2 + t)/t, 0),((t + 1)/t, s + t + e, 1/t)]",
        "[(s^2/t, (s^2 + t)/t, 0),((s + t + 1)/t + ((s + t)/s)*e, 0, "
        "(s^2 + 1)/s^2)]",
        "[(s^2/t, (s^2 + t)/t, 0),(1 + (t)*e, (t)*e, 0)]",
    ]

    circle = ms.circle_general(through, ms.infinity)
    got = [str(p) for p in circle.sample(rng, 2, 1)]
    assert got == [
        "[(s^2/t, (s^2 + t)/t, 1),(1/s + ((s + 1)/s)*e, t/s + (t)*e, "
        "(s^6 + s^4 + s^2*t^2)/t)]",
        "[(s^2/t, (s^2 + t)/t, t + 1),(1/s + ((s + 1)/s)*e, t/s + (t)*e, "
        "(s^8 + s^4*t^2 + s^4 + s^2*t^2)/t)]",
    ]

    assert str(sphere) == (
        "sphere gnarl=inf base=[(s^2/t, (s^2 + t)/t, 0),"
        "(1/s + ((s + 1)/s)*e, t/s + (t)*e, 0)]")


def test_explicit_circle_golden_string():
    ms = MoufangSet(Quadrangle(UPlus(default_instance())))
    c1 = ms.special_circle_first()
    assert str(c1.point_at(K_S)) == (
        "[(0, 0, s/(s + t + 1)),(0, 0, 1/(s^2 + t + 1))]")


def test_flag_golden_string():
    ms = MoufangSet(Quadrangle(UPlus(default_instance())))
    rng = Rng(2026)
    flag = ms.flag_of_label(ms.sample_label(rng, 1))
    assert str(flag.point) == (
        "((s^2/t, (s^2 + t)/t, 0), "
        "((s^5 + s^4*t + s^4 + s^2*t^2 + 1)/s + ((s + 1)/s)*e, "
        "(s^4 + s^3 + s^2*t + t)/s + (t)*e, "
        "(s^6*t + s^4*t^2 + s^2*t + s^2)/t^2), "
        "((s*t + s + 1)/t^2 + ((t + 1)/t^2)*e, "
        "(s^3*t + s^2)/t^2 + (s^2/t)*e, 0))")
    assert str(flag.line).startswith("[(t, s + t, 0), ")


def _recorded_body(name: str) -> str:
    # the benchmark's recorded bodies are read, never written, so a changed
    # report body fails here and in the benchmark
    return (Path(__file__).resolve().parents[1] / "perfbench" / "expected"
            / name).read_text(encoding="utf-8").rstrip("\n")


@pytest.mark.parametrize("seed", (0, 1))
def test_verify_all_bodies_match_recorded(seed):
    # the benchmark's verify-all configuration
    report = verifier.run(verifier.SuiteConfig(seed=seed, samples=20,
                                               max_degree=3))
    body = verifier.report_body(verifier.emit_jsonl(report), "jsonl")
    assert body == _recorded_body(f"verify-all.seed{seed}.jsonl")


def test_group_law_body_matches_recorded():
    # the benchmark's group-law configuration: the moufang suite at
    # samples 100, which no other tier-1 test runs
    report = verifier.run(verifier.SuiteConfig(
        seed=0, samples=100, max_degree=3, suites=("root-groups", "moufang")))
    body = verifier.report_body(verifier.emit_jsonl(report), "jsonl")
    assert body == _recorded_body("group-law.seed0.jsonl")


def test_failing_anisotropy_probe_matches_recorded():
    # the benchmark's field-kernel configuration at program seed 1, where
    # the check fails; it runs alone on its own stream (tag 9)
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    inst, rep = parser.load_instance(str(bench / "default_instance.txt"))
    assert rep.ok
    ctx = verifier.RunContext(verifier.SuiteConfig(
        seed=1, samples=4000, max_degree=6, suites=("fields",), instance=inst))
    recorded = next(
        rec for rec in map(json.loads, _recorded_body(
            "field-kernel.seed1.jsonl").splitlines())
        if rec["name"] == "anisotropy-probe")
    assert recorded["status"] == "fail"
    assert recorded["counterexample"] == "form1 zero at (e, 1, 1)"
    ok, note = verifier._chk_anisotropy(ctx, Rng(1 * 1000003 + 9))
    assert (ok, note) == (False, recorded["counterexample"])
