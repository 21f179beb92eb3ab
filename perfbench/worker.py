"""One verdict in a fresh process, driven through f4quad's public calls.

    python3 perfbench/worker.py --workload verify-all --program-seed 3
        [--trace] [--setup-only] [--emit-body]

The steps are those of `f4quad.cli.main`: `parser.load_instance` where
the workload reads an instance file, `verifier.run`, `verifier.emit_jsonl`
and `verifier.report_body`.  When set-up is done the worker prints
`ready` and the mean time of a calibration unit at the start and at the
end of set-up (the parent times process start to that line as
setup_s), then one JSON line with the verdict's time, peak memory,
body digest, and either the marks of `spans.install_marks` (seconds
since the verdict started, and the seconds of the calibration unit
timed there) or, with --trace, the per-layer spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import spans
from workloads import WORKLOADS, instance_path

MARK_EVERY = 128  # poly_gcd calls per mark: segments of 1-30 ms
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
sys.path.insert(0, SRC)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--program-seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--emit-body", action="store_true")
    ap.add_argument("--samples", type=int, help="override (self-test only)")
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    unit_start = spans.unit_time()

    tracer = marks = None
    if args.trace:
        tracer = spans.install()
    import f4quad
    from f4quad import parser, verifier
    if not os.path.abspath(f4quad.__file__).startswith(SRC + os.sep):
        print(f"f4quad imported from {f4quad.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    instance = None
    if w.instance_file:
        instance, rep = parser.load_instance(instance_path(w))
        if not rep.ok:
            bad = "; ".join(c.name for c in rep.checks if not c.passed)
            print(f"instance validation failed: {bad}", file=sys.stderr)
            return 2
    cfg = verifier.SuiteConfig(seed=args.program_seed,
                               samples=args.samples or w.samples,
                               max_degree=w.max_degree, suites=w.suites,
                               instance=instance)
    setup = tracer.snapshot() if tracer else None
    unit_s = (unit_start + spans.unit_time()) / 2
    print(f"ready {unit_s!r}", flush=True)
    if args.setup_only:
        return 0
    if not tracer:
        marks = spans.install_marks(MARK_EVERY)

    t0 = time.perf_counter()
    report = verifier.run(cfg)
    text = verifier.emit_jsonl(report)
    verdict_s = time.perf_counter() - t0

    body = verifier.report_body(text, "jsonl")
    suite_s = {s: 0.0 for s in w.suites}
    for r in report.results:
        suite_s[r.suite] += r.millis / 1000.0
    out = {
        "verdict_s": verdict_s,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sha256": hashlib.sha256(body.encode()).hexdigest(),
        "counts": list(report.counts()),
        "failed_checks": [r.name for r in report.results if r.status == "fail"],
        "suite_s": suite_s,
    }
    if args.emit_body:
        out["body"] = body
    if marks is not None:
        out["marks"] = [(t - t0, cal_s) for t, cal_s in marks]
    if tracer:
        out["setup_spans"] = setup
        out["spans"] = tracer.stats()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
