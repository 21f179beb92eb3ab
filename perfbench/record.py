"""Record the expected report bodies and the pool costs of a workload.

    python3 perfbench/record.py --workload field-kernel [--seeds 0,1,2]
    python3 perfbench/record.py --workload field-kernel --measure 5

Without --measure, writes the body digest and the report counts of each
program seed into `expected/<workload>.json`, and the full bodies of
program seeds 0 (the development seed) and 1 (the held-out seed) into
`expected/<workload>.seed<N>.jsonl`.  Recorded costs are kept.

With --measure N, times every seed of the workload's pool N times, in
N rounds over the pool so that each seed sees the host's phases alike,
and stores as its `cost_s` the estimate of `run.verdict_estimate` over
its N verdicts.  A body that differs from the recording stops
the measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from run import spawn, verdict_estimate
from workloads import EXPECTED_DIR, RECORDED, WORKLOADS

FULL_BODIES = (0, 1)


def load(name: str) -> dict:
    w = WORKLOADS[name]
    path = os.path.join(EXPECTED_DIR, f"{name}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    return {"workload": name, "suites": list(w.suites), "samples": w.samples,
            "max_degree": w.max_degree, "instance_file": w.instance_file,
            "seeds": {}}


def save(rec: dict) -> None:
    rec["seeds"] = dict(sorted(rec["seeds"].items(), key=lambda kv: int(kv[0])))
    path = os.path.join(EXPECTED_DIR, f"{rec['workload']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(rec, indent=1) + "\n")


def record_bodies(name: str, seeds: list[int]) -> int:
    rec = load(name)
    for seed in seeds:
        r = spawn(name, seed, time.perf_counter() + 900.0, emit_body=True)
        if "error" in r:
            print(f"{name} program seed {seed}: {r['error']}", file=sys.stderr)
            return 1
        old = rec["seeds"].get(str(seed), {})
        if old and old["sha256"] != r["sha256"]:
            print(f"{name} program seed {seed}: body changed", flush=True)
        entry = {"sha256": r["sha256"], "counts": r["counts"]}
        if "cost_s" in old:
            entry["cost_s"] = old["cost_s"]
        rec["seeds"][str(seed)] = entry
        save(rec)
        if seed in FULL_BODIES:
            with open(os.path.join(EXPECTED_DIR, f"{name}.seed{seed}.jsonl"),
                      "w", encoding="utf-8") as fh:
                fh.write(r["body"] + "\n")
        print(f"{name} program seed {seed}: {r['verdict_s']:.2f} s, "
              f"counts {r['counts']}", flush=True)
    return 0


def measure(name: str, rounds: int) -> int:
    rec = load(name)
    pool = WORKLOADS[name].pool
    done: dict[int, list[dict]] = {p: [] for p in pool}
    for k in range(rounds):
        for p in pool:
            r = spawn(name, p, time.perf_counter() + 900.0)
            if "error" in r or r["sha256"] != rec["seeds"][str(p)]["sha256"]:
                print(f"{name} program seed {p}: {r.get('error', 'body differs')}",
                      file=sys.stderr)
                return 1
            done[p].append(r)
            print(f"{name} round {k + 1} program seed {p}: "
                  f"{r['verdict_s']:.3f} s", flush=True)
    for p in pool:
        rec["seeds"][str(p)]["cost_s"] = round(verdict_estimate(done[p]), 4)
    save(rec)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seeds", default=",".join(map(str, RECORDED)))
    ap.add_argument("--measure", type=int, metavar="ROUNDS")
    args = ap.parse_args()
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    if args.measure:
        return measure(args.workload, args.measure)
    return record_bodies(args.workload, [int(s) for s in args.seeds.split(",")])


if __name__ == "__main__":
    sys.exit(main())
