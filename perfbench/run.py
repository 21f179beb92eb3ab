"""f4quad benchmark: time to verdict, set-up time and memory, per workload.

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
Each verdict runs in a fresh single-threaded worker process, one at a
time.  A verdict fails if the worker crashes, times out, or emits a
report body other than the one recorded for that workload and program
seed in `expected/`.

--trace 0 prints the end-to-end metrics.  A run times one program seed
of the workload's pool several times, each time in a fresh worker.
verdict_s is the seconds from the call into verifier.run to the emitted
report, corrected for the host's speed: the host this was tuned on
runs in fast and slow phases that change every second or so and
stretch a verdict by up to 1.7 times.  So each verdict is cut into
short segments at fixed points of the work, and a calibration unit is
timed at each cut (see `spans.install_marks`).  Each segment's time is
scaled by REFERENCE_UNIT_S over the units around it; verdict_s is the
sum over segments of the median of these across the run's verdicts,
taken relative to the recorded cost of the program seed and scaled to
the pool's mean cost.  setup_s is the median seconds from process
start to just before verifier.run, over set-ups spread across the run,
each scaled by REFERENCE_UNIT_S over the calibration units the worker
timed at the start and the end of its set-up;
peak_rss_mib is the largest peak resident memory of the run's workers.
--trace 1 runs the program seed once plain and once with the layer
wrappers of `spans.py`, and prints the per-layer metrics plus the
tracing overhead; the wrappers about double a verdict's time.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from spans import SAMPLERS, TARGETS
from workloads import WORKLOADS, Workload, load_expected, plan

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
MIN_SETUPS = 15  # set-up samples per run; extra set-up-only workers fill up
RUN_BUDGET_S = 170.0
REFERENCE_UNIT_S = 25e-6  # spans.calibration_unit in the VM's fast phase

END_TO_END = [("verdict_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]
SUITE_METRICS = ["fields", "root-groups", "quadrangle", "moufang",
                 "appendices", "reconstruction"]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run prints."""
    out = []
    for name in TARGETS:
        if name in ("fields.validate", "parser.parse",
                    "moufang.reconstruct_report"):
            continue
        out += [(f"{name}.calls", "count", "lower"),
                (f"{name}.self_s", "s", "lower")]
    out += [("polynomials.gcd.trivial_share", "share", "lower"),
            ("polynomials.gcd.repeat_share", "share", "lower"),
            ("polynomials.gcd.max_degree", "degree", "lower"),
            ("sampling.calls", "count", "lower"),
            ("sampling.self_s", "s", "lower"),
            ("fields.validate_s", "s", "lower"),
            ("parser.parse_s", "s", "lower"),
            ("moufang.reconstruct_report_s", "s", "lower")]
    out += [(f"verifier.suite.{s}_s", "s", "lower") for s in SUITE_METRICS]
    out += [("trace.untraced_verdict_s", "s", "lower"),
            ("trace.traced_verdict_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.overhead_share", "share", "lower")]
    return out


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "load_start": list(os.getloadavg())}


def spawn(workload: str, program_seed: int, deadline: float, *,
          trace: bool = False, setup_only: bool = False,
          emit_body: bool = False, samples: int | None = None) -> dict:
    """Run one worker; returns its result with setup_s, or {"error": ...}."""
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--program-seed", str(program_seed)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    cmd += ["--emit-body"] * emit_body
    if samples:
        cmd += ["--samples", str(samples)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not first.startswith("ready "):
        why = "timed out" if code == -9 else f"exit code {code}"
        return {"error": why}
    result = json.loads(rest.strip().splitlines()[-1]) if not setup_only else {}
    result["setup_s"] = setup_s * REFERENCE_UNIT_S / float(first.split()[1])
    return result


class Run:
    """The verdicts of one benchmark run and their correctness."""

    def __init__(self, w: Workload, expected: dict, deadline: float):
        self.workload = w.name
        self.pool = w.pool
        self.expected = expected
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.setups: list[float] = []

    def verdict(self, program_seed: int, trace: bool = False) -> dict | None:
        """The worker's result, or None if it crashed or timed out."""
        self.attempted += 1
        tag = "traced" if trace else "plain"
        if time.perf_counter() >= self.deadline:
            r = {"error": "run budget exhausted"}
        else:
            r = spawn(self.workload, program_seed, self.deadline, trace=trace)
        if "error" in r:
            self.failed += 1
            print(f"  program seed {program_seed} ({tag}): FAILED, {r['error']}")
            return None
        self.setups.append(r["setup_s"])
        r["program_seed"] = program_seed
        want = self.expected[program_seed]["sha256"]
        ok = r["sha256"] == want
        p, f, s = r["counts"]
        failing = f" ({', '.join(r['failed_checks'])})" if f else ""
        print(f"  program seed {program_seed} ({tag}): setup {r['setup_s']:.4f} s, "
              f"verdict {r['verdict_s']:.4f} s, rss {r['rss_mib']:.2f} MiB, "
              f"report {p} passed, {f} failed{failing}, {s} skipped, "
              f"body {'as recorded' if ok else 'DIFFERS from the recording'}")
        if not ok:
            # still timed: the run reports it, with correct = false
            self.failed += 1
            print(f"    body sha256 {r['sha256']} != recorded {want}",
                  file=sys.stderr)
        return r

    def fill_setups(self, program_seed: int, upto: int) -> None:
        while len(self.setups) < upto and time.perf_counter() < self.deadline:
            r = spawn(self.workload, program_seed, self.deadline,
                      setup_only=True)
            if "error" in r:
                break
            self.setups.append(r["setup_s"])


def corrected_segments(r: dict) -> list[float]:
    """A verdict's segments between marks, each scaled to a host on which
    the calibration unit takes REFERENCE_UNIT_S: segment seconds times
    REFERENCE_UNIT_S over the mean of the two units timed around it."""
    marks = r["marks"]
    if not marks:
        return [r["verdict_s"]]
    starts = [0.0] + [t + cal for t, cal in marks]
    ends = [t for t, _ in marks] + [r["verdict_s"]]
    cals = [c for _, c in marks]
    around = [cals[0]] + [(a + b) / 2 for a, b in zip(cals, cals[1:])] + [cals[-1]]
    return [(e - s) * REFERENCE_UNIT_S / c for s, e, c in zip(starts, ends, around)]


def verdict_estimate(results: list[dict]) -> float:
    """Sum over segments of the median of the corrected segment times of
    the verdicts.  All verdicts are of one program seed, so their marks
    cut the same work at the same points; if the mark counts differ all
    the same, the median of the corrected verdict totals stands in."""
    segs = [corrected_segments(r) for r in results]
    if len({len(s) for s in segs}) != 1:
        print("marks differ between verdicts; using whole verdicts",
              file=sys.stderr)
        return statistics.median(sum(s) for s in segs)
    return sum(statistics.median(x) for x in zip(*segs))


def end_to_end(run: Run, seed: int, reps: int) -> dict | None:
    # Set-ups are spread over the whole run, before, between and after
    # the verdicts, so that their median does not hang on a few seconds.
    share = MIN_SETUPS // (reps + 1)
    done = []
    for i in range(reps):
        run.fill_setups(seed, share * (i + 1))
        r = run.verdict(seed)
        if r:
            done.append(r)
    run.fill_setups(seed, MIN_SETUPS)
    if not done:
        return None
    est = verdict_estimate(done)
    cost = run.expected[seed]["cost_s"]
    pool_mean = statistics.fmean(run.expected[p]["cost_s"] for p in run.pool)
    units = [c for r in done for _, c in r["marks"]] or [float("nan")]
    print(f"verdict_s over {len(done)} verdicts: {est:.4f} s over "
          f"{len(done[0]['marks']) + 1} segments (calibration unit median "
          f"{statistics.median(units) * 1e6:.1f} us), recorded cost "
          f"{cost:.4f} s, pool mean cost {pool_mean:.4f} s; "
          f"setup_s over {len(run.setups)} set-ups")
    return {
        "verdict_s": est / cost * pool_mean,
        "setup_s": statistics.median(run.setups),
        "peak_rss_mib": max(r["rss_mib"] for r in done),
    }


def span_metrics(traced: list[dict]) -> dict:
    """Per-layer counts, self times and gcd input shares of traced verdicts."""
    spans = [t["spans"] for t in traced]
    setup = [t["setup_spans"] for t in traced]

    def total(kind: str, name: str, of=spans) -> float:
        return sum(s[kind][name] for s in of)

    m = {}
    for name in TARGETS:
        m[f"{name}.calls"] = total("calls", name)
        m[f"{name}.self_s"] = total("self_s", name)
    gcd_calls = m["polynomials.gcd.calls"]
    for share, key in (("trivial_share", "trivial"), ("repeat_share", "repeats")):
        hits = sum(s["gcd"][key] for s in spans)
        m[f"polynomials.gcd.{share}"] = hits / gcd_calls if gcd_calls else 0.0
    m["polynomials.gcd.max_degree"] = max(s["gcd"]["max_degree"] for s in spans)
    m["sampling.calls"] = sum(total("calls", f"sampling.{f}") for f in SAMPLERS)
    m["sampling.self_s"] = sum(total("self_s", f"sampling.{f}") for f in SAMPLERS)
    m["fields.validate_s"] = total("total_s", "fields.validate", setup)
    m["parser.parse_s"] = total("total_s", "parser.parse", setup)
    m["moufang.reconstruct_report_s"] = total("total_s",
                                              "moufang.reconstruct_report")
    return m


def per_layer(run: Run, seed: int) -> dict | None:
    plain = run.verdict(seed)
    traced = run.verdict(seed, trace=True)
    if not (plain and traced):
        return None
    m = span_metrics([traced])
    for s in SUITE_METRICS:
        m[f"verifier.suite.{s}_s"] = plain["suite_s"].get(s, 0.0)
    plain_s, traced_s = plain["verdict_s"], traced["verdict_s"]
    m["trace.untraced_verdict_s"] = plain_s
    m["trace.traced_verdict_s"] = traced_s
    m["trace.overhead_s"] = traced_s - plain_s
    m["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "f4quad", "__init__.py")):
        print(f"no f4quad sources under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    start = time.perf_counter()
    w = WORKLOADS[args.workload]
    expected = load_expected(w.name)
    seed, reps = plan(w, args.seed, args.seconds)
    info = machine()
    print(f"machine: nproc={info['nproc']} cpu={info['cpu']!r} "
          f"python={info['python']} load_start={info['load_start']}")
    print(f"workload {w.name} seed {args.seed}: program seed {seed}, "
          f"{reps} verdicts "
          f"(samples {w.samples}, max-degree {w.max_degree}, "
          f"suites {','.join(w.suites)})")

    run = Run(w, expected, start + RUN_BUDGET_S)
    if args.trace:
        values = per_layer(run, seed)
        units = {n: u for n, u, _ in per_layer_metrics()}
    else:
        values = end_to_end(run, seed, reps)
        units = dict(END_TO_END)
    print(f"machine: load_end={list(os.getloadavg())} "
          f"wall={time.perf_counter() - start:.1f} s")
    if values is None:
        print("no worker completed a verdict", file=sys.stderr)
        return 1
    print(f"runs_failed_share {run.failed / run.attempted:.4f} share "
          f"({run.failed} of {run.attempted} runs)")
    for name, unit in units.items():
        print(f"{name:<34} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
