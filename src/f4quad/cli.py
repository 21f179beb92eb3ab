"""Command line entry point.

    f4quad verify-all --seed 0 --samples 100 --max-degree 3
    f4quad verify-fields --instance my_instance.txt --format jsonl

Exit codes: 0 all selected checks pass, 1 at least one non-survey check
failed, 2 configuration error (bad flags or unparseable instance file).
"""

from __future__ import annotations

import argparse
import sys

from .parser import ParseError, load_instance
from .verifier import SUITES, SuiteConfig, emit_jsonl, emit_text, run

_COMMANDS = {f"verify-{name}": (name,) for name in SUITES}
_COMMANDS["verify-all"] = tuple(SUITES)


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="f4quad",
        description="verification suites for the quadrangle/Moufang-set library")
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd in _COMMANDS:
        p = sub.add_parser(cmd, help=f"run the {cmd[7:]} suite(s)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--max-degree", type=int, default=3)
        p.add_argument("--instance", type=str, default=None,
                       help="instance file (defaults to the built-in instance)")
        p.add_argument("--eq3-slot", type=int, choices=(2, 3), default=3,
                       help="slot for the [U2,U4] correction (2 is the "
                            "demonstrably failing reading)")
        p.add_argument("--survey", action="store_true",
                       help="keep going and report instead of failing hard")
        p.add_argument("--format", choices=("text", "jsonl"), default="text")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    instance = None
    if args.instance:
        try:
            instance, rep = load_instance(args.instance)
        except ParseError as exc:
            print(f"instance file error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"cannot read instance file: {exc}", file=sys.stderr)
            return 2
        if not rep.ok:
            msg = "; ".join(c.name for c in rep.checks if not c.passed)
            if args.survey:
                # a '#' line is a comment of the text body; jsonl holds
                # only records, so there the note goes to stderr
                print(f"# instance validation problems: {msg}",
                      file=sys.stdout if args.format == "text" else sys.stderr)
            else:
                print(f"instance validation failed: {msg}", file=sys.stderr)
                return 2
    if args.samples <= 0 or args.max_degree < 0:
        print("samples must be positive and max-degree non-negative",
              file=sys.stderr)
        return 2
    cfg = SuiteConfig(seed=args.seed, samples=args.samples,
                      max_degree=args.max_degree,
                      suites=_COMMANDS[args.command],
                      eq3_slot=args.eq3_slot,
                      survey=args.survey,
                      instance=instance)
    report = run(cfg)
    text = emit_text(report) if args.format == "text" else emit_jsonl(report)
    sys.stdout.write(text)
    if report.failed and not args.survey:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
