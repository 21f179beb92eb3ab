"""CLI contract: subcommands, flags, exit codes, deterministic bodies."""

import json
import os
import subprocess
import sys

import pytest

import f4quad
from f4quad import verifier
from f4quad.fields import Check, CheckList
from f4quad.cli import MAX_DEGREE, MAX_SAMPLES, build_arg_parser, main
from f4quad.verifier import report_body
from mutants import MUTANTS

FAST = ["--samples", "8", "--max-degree", "1"]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_verify_fields_passes(capsys):
    code, out = run_cli(["verify-fields"] + FAST, capsys)
    assert code == 0
    assert "summary:" in out
    assert "fail" not in [l.split()[0] for l in out.splitlines() if l.strip()]


def test_verify_all_subcommand_exists(capsys):
    code, out = run_cli(["verify-moufang"] + FAST, capsys)
    assert code == 0
    assert "generator-closure-derived" in out


def test_eq3_slot_two_fails_with_counterexample(capsys, monkeypatch):
    MUTANTS["eq3-slot-2"](monkeypatch)
    code, out = run_cli(["verify-root-groups"] + FAST, capsys)
    assert code == 1
    fail_lines = [l for l in out.splitlines() if l.startswith("fail")]
    assert fail_lines
    assert any("note=" in l for l in fail_lines)


def test_eq3_slot_option_is_gone(capsys):
    # the slot-2 reading is a test mutant, not a flag: a bad flag exits 2
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--eq3-slot", "2"])
    assert exc.value.code == 2
    assert "--eq3-slot" in capsys.readouterr().err


def test_jsonl_schema(capsys):
    code, out = run_cli(["verify-fields", "--format", "jsonl"] + FAST, capsys)
    assert code == 0
    for line in out.strip().splitlines():
        rec = json.loads(line)
        assert set(rec) == {"suite", "name", "anchor", "status",
                            "counterexample", "millis"}
        assert rec["status"] in ("pass", "fail", "skip")


def test_each_check_names_its_own_stream():
    # a row is (name, anchor, tag, fn); a repeated tag would make two
    # checks draw the same samples
    rows = [row for suite in verifier.SUITES for row in verifier.REGISTRY[suite]]
    assert all(len(row) == 4 for row in rows)
    tags = [tag for _, _, tag, _ in rows if tag is not None]
    assert all(type(tag) is int for tag in tags)
    assert len(set(tags)) == len(tags)
    assert [name for name, _, tag, _ in rows if tag is None] == [
        "instance-validation"]


def _crash(ctx, rng):
    raise ZeroDivisionError("planted")


def test_crash_reads_error_not_fail(capsys, monkeypatch):
    checks = list(verifier.REGISTRY["fields"])
    name, anchor, tag, _ = checks[1]
    checks[1] = (name, anchor, tag, _crash)
    monkeypatch.setitem(verifier.REGISTRY, "fields", checks)
    code, out = run_cli(["verify-all", "--format", "jsonl"] + FAST, capsys)
    assert code == 1
    recs = [json.loads(line) for line in out.strip().splitlines()]
    crashed = [r for r in recs if r["name"] == name]
    assert [r["status"] for r in crashed] == ["error"]
    line = _crash.__code__.co_firstlineno + 1
    assert crashed[0]["counterexample"] == (
        f"ZeroDivisionError at test_cli.py:{line}: planted")
    # the rest of its suite runs; the suites after it are skipped
    assert all(r["status"] == "pass" for r in recs
               if r["suite"] == "fields" and r["name"] != name)
    later = [r["status"] for r in recs if r["suite"] != "fields"]
    assert later and set(later) == {"skip"}
    crash = CheckList([Check(name, "error", suite="s", anchor=anchor)])
    assert not crash.ok and crash.counts() == (0, 1, 0)


def test_anchor_completeness(capsys):
    code, out = run_cli(["verify-fields", "--format", "jsonl"] + FAST, capsys)
    for line in out.strip().splitlines():
        rec = json.loads(line)
        assert rec["anchor"], f"check {rec['name']} has no anchor"


def test_determinism_of_bodies(capsys):
    args = ["verify-fields", "--seed", "3", "--format", "jsonl"] + FAST
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert report_body(out1, "jsonl") == report_body(out2, "jsonl")
    args = ["verify-root-groups", "--seed", "3"] + FAST
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert report_body(out1, "text") == report_body(out2, "text")


def test_seed_changes_samples_not_verdict(capsys):
    code1, out1 = run_cli(["verify-fields", "--seed", "1"] + FAST, capsys)
    code2, out2 = run_cli(["verify-fields", "--seed", "2"] + FAST, capsys)
    assert code1 == code2 == 0
    assert report_body(out1, "text") == report_body(out2, "text")


def test_instance_file_flag(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text("delta = s + t\nphiE = e + s\nbeta = s\nalpha = t\n")
    code, out = run_cli(["verify-fields", "--instance", str(path)] + FAST,
                        capsys)
    assert code == 0


def test_bad_instance_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("delta = s +\nphiE = e + s\nbeta = s\nalpha = t\n")
    code = main(["verify-fields", "--instance", str(path)])
    assert code == 2


def test_invalid_instance_is_config_error(tmp_path, capsys):
    path = tmp_path / "wrong.txt"
    path.write_text("delta = s + t\nphiE = e + s\nbeta = s\nalpha = s\n")
    code = main(["verify-fields", "--instance", str(path)])
    assert code == 2


def test_survey_mode_keeps_going(tmp_path, capsys):
    path = tmp_path / "wrong.txt"
    path.write_text("delta = s + t\nphiE = e + s\nbeta = s\nalpha = s\n")
    code, out = run_cli(["verify-fields", "--survey", "--instance",
                         str(path)] + FAST, capsys)
    assert code == 0  # survey mode reports, never fails the process
    assert "instance validation problems" in out


def test_survey_jsonl_stdout_is_all_records(tmp_path, capsys):
    path = tmp_path / "wrong.txt"
    path.write_text("delta = s + t\nphiE = e + s\nbeta = s\nalpha = s\n")
    code = main(["verify-fields", "--survey", "--format", "jsonl",
                 "--instance", str(path)] + FAST)
    captured = capsys.readouterr()
    assert code == 0
    for line in captured.out.splitlines():
        json.loads(line)
    assert report_body(captured.out, "jsonl")
    assert "instance validation problems" in captured.err


def test_nonpositive_samples_is_config_error(capsys):
    assert main(["verify-fields", "--samples", "0"]) == 2


@pytest.mark.parametrize("flags", [
    ["--samples", str(MAX_SAMPLES + 1)],
    ["--samples", "10" + "0" * 40],
    ["--max-degree", str(MAX_DEGREE + 1)],
    ["--max-degree", "-1"],
], ids=["samples", "huge-samples", "max-degree", "negative-degree"])
def test_out_of_bounds_flags_are_config_errors(flags, capsys):
    assert main(["verify-all"] + flags) == 2
    assert "max-degree in 0.." in capsys.readouterr().err


def test_bounds_admit_defaults_and_benchmark_sizes(capsys):
    args = build_arg_parser().parse_args(["verify-all"])
    assert args.samples <= MAX_SAMPLES and args.max_degree <= MAX_DEGREE
    assert MAX_SAMPLES >= 4000 and MAX_DEGREE >= 6  # the fields benchmark
    code, _ = run_cli(["verify-fields", "--samples", "1",
                       "--max-degree", str(MAX_DEGREE)], capsys)
    assert code == 0


def test_module_entry_point():
    # the child imports the same f4quad as this process, installed or not
    src = os.path.dirname(os.path.dirname(f4quad.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "f4quad.cli", "verify-fields"] + FAST,
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "summary:" in proc.stdout


def test_package_surface_resolves():
    star: dict = {}
    exec("from f4quad import *", star)
    for name in f4quad.__all__:
        assert star[name] is getattr(f4quad, name), name


def test_unusable_field_value_is_config_error(tmp_path, capsys):
    path = tmp_path / "zero_beta.txt"
    path.write_text("delta = s + t\nphiE = e + s\nbeta = 0\nalpha = t\n")
    assert main(["verify-fields", "--instance", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_non_ascii_digit_is_config_error(tmp_path, capsys):
    path = tmp_path / "superscript.txt"
    path.write_text("delta = s + t\nphiE = e + s\nbeta = s\nalpha = \u00b2\n",
                    encoding="utf-8")
    assert main(["verify-fields", "--instance", str(path)]) == 2
    assert "line 4" in capsys.readouterr().err


def test_deep_nesting_is_config_error(tmp_path, capsys):
    path = tmp_path / "deep.txt"
    path.write_text("delta = s + t\nphiE = e + s\nbeta = s\n"
                    f"alpha = {'(' * 400}t{')' * 400}\n")
    assert main(["verify-fields", "--instance", str(path)]) == 2
    assert "nested deeper" in capsys.readouterr().err


def test_non_utf8_instance_is_config_error(tmp_path, capsys):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"delta = s + t\nphiE = e + s\nbeta = s\n"
                     b"alpha = t \xff\n")
    assert main(["verify-fields", "--instance", str(path)]) == 2
    assert "cannot read instance file: " in capsys.readouterr().err
