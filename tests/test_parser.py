"""Instance file grammar and validation wiring."""

import pytest

from f4quad.fields import KElem, default_instance
from f4quad.parser import MAX_DEGREE, ParseError, parse_instance_text

DEFAULT_TEXT = """
# the shipped instance
delta = s + t
phiE  = e + s
beta  = s
alpha = t
"""


def test_default_instance_file_roundtrip():
    inst = parse_instance_text(DEFAULT_TEXT)
    ref = default_instance()
    assert inst.delta == ref.delta
    assert inst.phi_e == ref.phi_e
    assert inst.beta == ref.beta
    assert inst.alpha == ref.alpha
    assert inst.validate(samples=5, max_degree=2).ok


def test_expression_grammar():
    inst = parse_instance_text("""
delta = (s + t)^1
phiE = e + s*1
beta = s^2 / s
alpha = t + 0
""")
    ref = default_instance()
    assert inst.delta == ref.delta
    assert inst.beta == ref.beta
    assert inst.alpha == ref.alpha


def test_precedence_and_parens():
    inst = parse_instance_text("""
delta = s + t
phiE = e + s
beta = s + s*t + s   # = s*t in GF(2)
alpha = (t + t) + t^2 + t*(1 + t)  # = t
""".replace("   # = s*t in GF(2)", "").replace("  # = t", ""))
    assert inst.beta == KElem.s() * KElem.t()
    assert inst.alpha == KElem.t()


def test_coefficients_reduce_mod_2():
    inst = parse_instance_text("""
delta = s + t
phiE = e + s
beta = 3*s
alpha = 2 + t + 1""" + "0" * 5000 + """
""")
    assert inst.beta == KElem.s()
    assert inst.alpha == KElem.t()


def test_wrong_alpha_fails_validation():
    inst = parse_instance_text("""
delta = s + t
phiE = e + s
beta = s
alpha = s
""")
    rep = inst.validate(samples=4, max_degree=2)
    assert not rep.ok
    assert any(c.name == "alpha-is-twist-of-beta" and not c.passed
               for c in rep.checks)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_instance_text("delta = s +\nphiE = e\nbeta = s\nalpha = t")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_instance_text("delta = s + t\nphiE = e + s\nbeta = s\n"
                            "  alpha = t + (s+t)^65")
    assert (err.value.line, err.value.col) == (4, 21)


def test_unknown_character_rejected():
    with pytest.raises(ParseError):
        parse_instance_text("delta = s ? t\nphiE = e\nbeta = s\nalpha = t")


def test_unknown_name_rejected():
    with pytest.raises(ParseError):
        parse_instance_text("delta = s + u\nphiE = e\nbeta = s\nalpha = t")


def test_missing_field_rejected():
    with pytest.raises(ParseError) as err:
        parse_instance_text("delta = s + t\nphiE = e + s\nbeta = s")
    assert "alpha" in str(err.value)


def test_duplicate_field_rejected():
    with pytest.raises(ParseError):
        parse_instance_text(
            "delta = s\ndelta = t\nphiE = e\nbeta = s\nalpha = t")


def test_e_outside_phie_rejected():
    with pytest.raises(ParseError) as err:
        parse_instance_text("delta = e + s\nphiE = e + s\nbeta = s\nalpha = t")
    assert "delta" in str(err.value)


def test_division_by_zero_rejected():
    with pytest.raises(ParseError):
        parse_instance_text(
            "delta = s + t\nphiE = e + s\nbeta = s/(t+t)\nalpha = t")


@pytest.mark.parametrize("text, line, message", [
    ("delta = s + t\nphiE = e + s\nbeta = 0\nalpha = t", 3, "beta must be nonzero"),
    ("delta = s + t\nphiE = s\nbeta = s\nalpha = t", 2, "phiE must involve e"),
    ("delta = e*e\nphiE = e + s\nbeta = s\nalpha = t", 1, "delta must not involve e"),
])
def test_field_constraint_is_parse_error(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_instance_text(text)
    assert err.value.line == line
    assert message in str(err.value)


def test_power_is_bounded():
    inst = parse_instance_text(f"delta = s + t\nphiE = e + s\nbeta = s\n"
                               f"alpha = (s + t)^{MAX_DEGREE} + t")
    assert inst.alpha == (KElem.s() + KElem.t()) ** MAX_DEGREE + KElem.t()
    for power in (f"(s+t)^{MAX_DEGREE + 1}", "(s^8)^9", "1^16000",
                  "s^" + "9" * 5000):
        with pytest.raises(ParseError) as err:
            parse_instance_text(
                f"delta = s + t\nphiE = e + s\nbeta = s\nalpha = t + {power}")
        # the column of the exponent within the line "alpha = t + <power>"
        assert (err.value.line, err.value.col) == (4, power.rindex("^") + 14)
