"""The mutation kill matrix: does some check notice each mutant?

Every row of `mutants.MUTANTS` is applied in turn, and all suites run at
seed 0, samples 20 under `survey=True`; a row that `mutants.ROW_SUITES`
lists runs only those suites, and is compared with the same checks of
the one unpatched run.  A row is killed when some
check's status differs from the unpatched run, and a kill must include
a `fail`: a check that only crashes (`error`) names no broken relation.
The rows no check kills are the recorded SURVIVORS, each with the
ROADMAP item that will kill it.  The set may only shrink, and a row
leaves it by a check that is corrected, never by an edit here.
"""

from dataclasses import replace

import pytest

from f4quad import verifier
from f4quad.verifier import SuiteConfig
from mutants import MUTANTS, ROW_SUITES

CONFIG = SuiteConfig(seed=0, samples=20, survey=True)

SURVIVORS = {
    "tau-prime-identity",  # item 13: tau' decided as one equation
    "special-first-accepts-all",  # item 2: blocks tested on their own points
    "special-second-accepts-all",  # item 2, likewise
    "circle-at-infinity-accepts-all",  # item 5: block-transport moves non-members
    "form1-never-zero",  # item 1(a): a box search finds the zero
}


def _statuses(cfg=CONFIG):
    return {c.name: (c.status, c.note) for c in verifier.run(cfg).checks}


@pytest.fixture(scope="module")
def unpatched():
    return _statuses()


@pytest.fixture(scope="module")
def moved(unpatched):
    """Row name -> {check: (status, note)} of the checks whose status the
    row changes."""
    out = {}
    for name, patch in MUTANTS.items():
        cfg = replace(CONFIG, suites=ROW_SUITES.get(name, CONFIG.suites))
        with pytest.MonkeyPatch.context() as mp:
            patch(mp)
            out[name] = {check: got for check, got in _statuses(cfg).items()
                         if got[0] != unpatched[check][0]}
    return out


def test_unpatched_run_passes(unpatched):
    assert {status for status, _ in unpatched.values()} == {"pass"}


def test_survivors_are_the_recorded_set(moved):
    assert {name for name, checks in moved.items() if not checks} == SURVIVORS


def test_every_kill_fails_a_check(moved):
    for name, checks in moved.items():
        if checks:
            assert "fail" in {status for status, _ in checks.values()}, name


def test_slot_two_reading_fails_associativity(moved):
    status, note = moved["eq3-slot-2"]["associativity"]
    assert status == "fail" and note


def test_decided_twist_law_fails_a_dropped_phie_slot(moved):
    assert moved["phi-l-drops-phie-c0"]["instance-validation"][0] == "fail"
