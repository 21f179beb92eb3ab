"""Instance file grammar and validation wiring."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from f4quad.fields import K_ONE, K_S, K_T, default_instance
from f4quad.parser import (MAX_DEGREE, MAX_NESTING, ParseError,
                           parse_instance_text)

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
    assert inst.beta == K_S * K_T
    assert inst.alpha == K_T


def test_coefficients_reduce_mod_2():
    inst = parse_instance_text("""
delta = s + t
phiE = e + s
beta = 3*s
alpha = 2 + t + 1""" + "0" * 5000 + """
""")
    assert inst.beta == K_S
    assert inst.alpha == K_T


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


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
def test_error_lines_count_newlines_only(sep):
    # str.splitlines breaks at each of these too; a line ends at '\n'
    text = f"delta = s + t{sep}phiE = e + s\nbeta = s\nalpha = ?"
    with pytest.raises(ParseError) as err:
        parse_instance_text(text)
    assert err.value.line <= text.count("\n") + 1
    with pytest.raises(ParseError) as err:
        parse_instance_text(f"delta = s + t\nphiE = e + s{sep}\nbeta = s\nalpha = ?")
    assert (err.value.line, err.value.col) == (4, 9)


HEAD = "delta = s + t\nphiE = e + s\nbeta = s\n"


@pytest.mark.parametrize("text, message, line, col", [
    (HEAD + "alpha = t +  \t", "unexpected end of expression", 4, 12),
    (HEAD + "alpha = t t", "trailing input 't'", 4, 11),
    (HEAD + "alpha = (s + t", "expected ')'", 4, 15),
    (HEAD + "\t alpha = t + )", "unexpected token ')'", 4, 15),
    (HEAD + "alpha = t^s", "exponent must be a non-negative integer", 4, 11),
    (HEAD + "alpha = t + sx", "unknown name starting at 'sx'", 4, 13),
    (HEAD + "alpha = t ? s", "unexpected character '?'", 4, 11),
    (HEAD + "  alpha t", "expected 'name = expression'", 4, 3),
    (HEAD + "gamma = t", "unknown field 'gamma'", 4, 1),
    (HEAD + "beta = t", "duplicate field 'beta'", 4, 1),
    # a field error points at the name, a value error at the right-hand side
    (HEAD + " \t gamma = t", "unknown field 'gamma'", 4, 4),
    (HEAD + "  beta = t", "duplicate field 'beta'", 4, 3),
    ("delta = s + e\nphiE = e + s\nbeta = s\nalpha = t",
     "delta must not involve e", 1, 13),
    ("delta = s + t\nphiE = e + s\nbeta =  s + e\nalpha = t",
     "beta must not involve e", 3, 9),
    ("delta = s + t\nphiE = \ts\nbeta = s\nalpha = t",
     "phiE must involve e", 2, 9),
    (HEAD + "  alpha = t + t", "alpha must be nonzero", 4, 11),
    ("delta = s + t\nphiE = e + s\nbeta = s", "missing fields: alpha", 3, 9),
    ("beta = s\n\nalpha = t\n", "missing fields: delta, phiE", 4, 1),
])
def test_error_position(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_instance_text(text)
    assert str(err.value) == f"line {line}, column {col}: {message}"
    assert (err.value.line, err.value.col) == (line, col)


def test_unknown_character_rejected():
    with pytest.raises(ParseError):
        parse_instance_text("delta = s ? t\nphiE = e\nbeta = s\nalpha = t")


@pytest.mark.parametrize("rhs", ["\u00b2", "t^\u00b2", "\u0663"])
def test_non_ascii_digit_rejected(rhs):
    # superscript two and Arabic-Indic three are digits to str.isdigit
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_instance_text(f"delta = s + t\nphiE = e + s\nbeta = s\nalpha = {rhs}")
    assert (err.value.line, err.value.col) == (4, 9 + len(rhs) - 1)


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


def test_division_by_zero_points_at_the_slash():
    with pytest.raises(ParseError, match="division by zero") as err:
        parse_instance_text(
            "delta = s + t\nphiE = e + s\nbeta = s / (t + t)\nalpha = t")
    assert (err.value.line, err.value.col) == (3, 10)


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
    assert inst.alpha == (K_S + K_T) ** MAX_DEGREE + K_T
    for power in (f"(s+t)^{MAX_DEGREE + 1}", "(s^8)^9", "1^16000",
                  "s^" + "9" * 5000):
        with pytest.raises(ParseError) as err:
            parse_instance_text(
                f"delta = s + t\nphiE = e + s\nbeta = s\nalpha = t + {power}")
        # the column of the exponent within the line "alpha = t + <power>"
        assert (err.value.line, err.value.col) == (4, power.rindex("^") + 14)


def test_product_is_bounded():
    # the cap of ^ holds for * as well: 300 factors stop at the 65th
    beta = "*".join(["s"] * 300)
    with pytest.raises(ParseError) as err:
        parse_instance_text(f"delta = s + t\nphiE = e + s\nbeta = {beta}\n"
                            "alpha = t")
    # the '*' before the 65th factor, counted from the line start "beta = "
    assert (err.value.line, err.value.col) == (3, 8 + 2 * MAX_DEGREE - 1)
    assert "product or quotient" in str(err.value)
    at_cap = "*".join(["s"] * MAX_DEGREE)
    assert parse_instance_text(f"delta = s + t\nphiE = e + s\nbeta = {at_cap}\n"
                               "alpha = t").beta == K_S ** MAX_DEGREE


def test_quotient_is_bounded():
    # each quotient has degree 40 in numerator and denominator; the second
    # division puts t^80 in the denominator
    text = "delta = s + t\nphiE = e + s\nbeta = s\nalpha = s^40 / t^40 / t^40"
    with pytest.raises(ParseError) as err:
        parse_instance_text(text)
    line = text.splitlines()[3]
    assert (err.value.line, err.value.col) == (4, line.rindex("/") + 1)
    assert "product or quotient" in str(err.value)


def test_power_at_the_limit_is_exact():
    # s^64 is the largest power admitted, and the first s-degree that
    # needs a stride wider than W in the packed layout
    inst = parse_instance_text(f"delta = s + t\nphiE = e + s\n"
                               f"beta = (s^32 + t)^2 / (s^32 + t) + s^{MAX_DEGREE}\n"
                               f"alpha = t^{MAX_DEGREE} + t^32 + s^2")
    assert MAX_DEGREE == 64
    assert str(inst.beta) == "s^64 + s^32 + t"
    assert str(inst.alpha) == "t^64 + t^32 + s^2"
    assert inst.beta * K_S / K_S ** 65 == K_ONE + (
        K_S ** 32 + K_T) / K_S ** 64
    assert inst.validate(samples=5, max_degree=2).ok


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1, 400])
def test_nesting_is_bounded(depth):
    text = ("delta = s + t\nphiE = e + s\nbeta = s\n"
            f"alpha = {'(' * depth}t{')' * depth}")
    if depth <= MAX_NESTING:
        assert parse_instance_text(text).alpha == K_T
        return
    with pytest.raises(ParseError) as err:
        parse_instance_text(text)
    # the first '(' too many, counted from the line start "alpha = "
    assert (err.value.line, err.value.col) == (4, 9 + MAX_NESTING)


FIELDS = {"delta": "s + t", "phiE": "e + s", "beta": "s", "alpha": "t"}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(field=st.sampled_from(sorted(FIELDS)),
       body=st.text(alphabet="ste0123456789 +-*/^()\u00b2\u0663\u00e9"
                    "\t\u00a0\u2028ux_",
                    max_size=40),
       depth=st.integers(0, 500))
def test_fuzzed_right_hand_side_raises_only_parse_error(field, body, depth):
    text = "\n".join(f"{name} = {rhs}" for name, rhs in FIELDS.items()
                     if name != field)
    text += f"\n{field} = {'(' * depth}{body}{')' * depth}"
    t0 = time.perf_counter()
    try:
        parse_instance_text(text)
    except ParseError:
        pass
    assert time.perf_counter() - t0 < 1.0
