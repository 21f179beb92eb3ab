"""CLI contract: subcommands, flags, exit codes, deterministic bodies."""

import json
import os
import subprocess
import sys

import f4quad
from f4quad.cli import main
from f4quad.verifier import report_body

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


def test_eq3_slot_two_fails_with_counterexample(capsys):
    code, out = run_cli(["verify-root-groups", "--eq3-slot", "2"] + FAST,
                        capsys)
    assert code == 1
    fail_lines = [l for l in out.splitlines() if l.startswith("fail")]
    assert fail_lines
    assert any("note=" in l for l in fail_lines)


def test_jsonl_schema(capsys):
    code, out = run_cli(["verify-fields", "--format", "jsonl"] + FAST, capsys)
    assert code == 0
    for line in out.strip().splitlines():
        rec = json.loads(line)
        assert set(rec) == {"suite", "name", "anchor", "status",
                            "counterexample", "millis"}
        assert rec["status"] in ("pass", "fail", "skip")


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


def test_unusable_field_value_is_config_error(tmp_path, capsys):
    path = tmp_path / "zero_beta.txt"
    path.write_text("delta = s + t\nphiE = e + s\nbeta = 0\nalpha = t\n")
    assert main(["verify-fields", "--instance", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err
