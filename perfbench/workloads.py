"""The workloads, their recorded report bodies, and the seed plan.

A benchmark seed never reaches the program directly.  Every program
seed 0-23 of a workload has its report body recorded in
`expected/<workload>.json`.  A run times one program seed from the
workload's pool, several times over; the benchmark seed picks which.
The pool holds 12 seeds of middle cost among all 24 (verdict cost
differs threefold between program seeds on verify-all), so that a
run's length stays within the check's time limit.  For each
pool seed the recording also holds `cost_s`, the verdict time by the
estimator of `run.py`, which `verdict_s` divides by.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
ALL_SUITES = ("fields", "root-groups", "quadrangle", "moufang", "appendices",
              "reconstruction")
RECORDED = tuple(range(24))


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple
    samples: int
    max_degree: int
    instance_file: str | None  # relative to this directory
    nominal_s: float  # rough seconds per verdict; sizes a run
    pool: tuple  # program seeds a run may time


WORKLOADS = {w.name: w for w in (
    Workload("verify-all", ALL_SUITES, 20, 3, None, 15.0,
             (0, 3, 4, 6, 8, 10, 11, 12, 13, 16, 17, 20)),
    Workload("group-law", ("root-groups", "moufang"), 100, 3, None, 9.0,
             (4, 5, 6, 7, 9, 11, 12, 14, 16, 17, 18, 21)),
    Workload("field-kernel", ("fields",), 4000, 6, "default_instance.txt", 9.0,
             (4, 6, 9, 10, 11, 12, 14, 15, 16, 17, 19, 23)),
)}


def instance_path(w: Workload) -> str | None:
    return os.path.join(HERE, w.instance_file) if w.instance_file else None


def load_expected(name: str) -> dict:
    """{program seed: {"sha256": ..., "counts": [p, f, s], "cost_s": ...}}"""
    path = os.path.join(EXPECTED_DIR, f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        rec = json.load(fh)
    return {int(k): v for k, v in rec["seeds"].items()}


def plan(w: Workload, seed: int, seconds: float) -> tuple[int, int]:
    """(program seed, number of verdicts) for one run."""
    reps = max(2, round(seconds / w.nominal_s))
    return random.Random(f"{w.name}/{seed}").choice(w.pool), reps
