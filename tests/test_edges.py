"""Edge behaviour: domain errors, empty reports, projections with lines."""

import json

import pytest

from f4quad.fields import (K_ONE, K_S, L_E, L_ZERO, Check, CheckList,
                           FieldError, default_instance, theta_k)
from f4quad.moufang import MoufangSet, UnsupportedBlock
from f4quad.parser import load_instance
from f4quad.polynomials import P_S, P_T
from f4quad.quadrangle import Quadrangle
from f4quad.rootgroups import UPlus
from f4quad.sampling import Rng
from f4quad.verifier import emit_jsonl, emit_text, report_body


@pytest.fixture(scope="module")
def ms():
    return MoufangSet(Quadrangle(UPlus(default_instance())))


def test_l_inverse_of_zero(ms):
    with pytest.raises(FieldError):
        ms.inst.linv(L_ZERO)


def test_theta_l_domain_error(ms):
    with pytest.raises(FieldError):
        ms.inst.theta_l(L_E)  # e is not in the image of the twist


def test_theta_k_domain_error():
    with pytest.raises(FieldError):
        theta_k(K_S)


def test_sqrt_of_nonsquare():
    with pytest.raises(ArithmeticError):
        (P_S + P_T).sqrt()


def test_negative_power():
    s = K_S
    assert s ** -2 == (s * s).inv()
    assert s ** 0 == K_ONE


def test_project_with_line(ms):
    quad = ms.quad
    rng = Rng(90)
    f = ms.flag_of_label(ms.sample_label(rng, 1))
    foot = quad.project(quad.pt_inf, f.line)
    join = quad.collinear(quad.pt_inf, foot)
    assert quad.incident(foot, f.line)
    assert quad.incident(quad.pt_inf, join) and quad.incident(foot, join)


def test_unsupported_circle_message(ms):
    rng = Rng(91)
    with pytest.raises(UnsupportedBlock) as err:
        ms.circle_general(ms.sample_label(rng, 1), ms.sample_label(rng, 1))
    assert "opposite root groups" in str(err.value)


def test_empty_report_emission():
    rep = CheckList()
    text = emit_text(rep)
    assert "summary: 0 passed, 0 failed, 0 skipped" in text
    assert emit_jsonl(rep) == "\n"
    # one record per status: the note is printed only where it is set
    crash = "ZeroDivisionError at f.py:1: planted"
    rep = CheckList([Check("a", "pass", None, "s", "Eq. (1)"),
                     Check("b", "fail", "x=s", "s", "Eq. (2)"),
                     Check("c", "error", crash, "s", "Eq. (3)"),
                     Check("d", "skip", None, "u", "Eq. (4)")])
    assert report_body(emit_text(rep), "text").splitlines() == [
        "== s ==",
        "pass  a  anchor=Eq. (1)",
        "fail  b  anchor=Eq. (2)  note=x=s",
        f"error c  anchor=Eq. (3)  note={crash}",
        "== u ==",
        "skip  d  anchor=Eq. (4)",
        "summary: 1 passed, 2 failed, 1 skipped",
    ]
    recs = [json.loads(line) for line in emit_jsonl(rep).splitlines()]
    assert [r["counterexample"] for r in recs] == [None, "x=s", crash, None]
    assert [r["status"] for r in recs] == ["pass", "fail", "error", "skip"]
    assert not rep.ok


def test_load_instance_attaches_report(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("delta = s + t\nphiE = e + s\nbeta = s\nalpha = t\n")
    inst, report = load_instance(str(path))
    assert report.ok
    assert inst.beta == K_S
