"""Polynomial kernel: canonical forms, gcd, exact division, substitutions."""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from f4quad import polynomials
from f4quad.polynomials import (Poly2, _coprime_at_alpha, _prs_gcd,
                                poly_divexact, poly_gcd)
from f4quad.sampling import Rng, sample_poly, sample_poly_nonzero

S = Poly2.s()
T = Poly2.t()
ONE = Poly2.one()
ZERO = Poly2.zero()
# the modulus of GF(256), x^8 + x^4 + x^3 + x + 1, in s and in t
F_S = Poly2({0: 0x11B})
F_T = Poly2.from_terms((0, j) for j in (8, 4, 3, 1, 0))


def test_char2_square_gcd():
    # s^2 + t^2 = (s + t)^2 in characteristic 2
    assert poly_gcd(S * S + T * T, S + T) == S + T


def test_gcd_zero_identity():
    p = S * S + T
    assert poly_gcd(p, ZERO) == p
    assert poly_gcd(ZERO, p) == p


def test_gcd_hand_factored():
    # st + t^2 = t(s+t) and s^2 + st = s(s+t), built from the factors
    left = T * (S + T)
    right = S * (S + T)
    assert left == S * T + T * T
    assert right == S * S + S * T
    assert poly_gcd(left, right) == S + T


def test_gcd_divides_and_is_maximal():
    rng = Rng(42)
    for _ in range(60):
        a = sample_poly(rng, 3)
        b = sample_poly(rng, 3)
        c = sample_poly_nonzero(rng, 2)
        g = poly_gcd(a * c, b * c)
        if a.is_zero() and b.is_zero():
            continue
        # c divides the gcd, and the gcd divides both products
        poly_divexact(g, c)
        if not a.is_zero():
            poly_divexact(a * c, g)
        if not b.is_zero():
            poly_divexact(b * c, g)
        assert poly_gcd(a * c, b * c) == poly_gcd(b * c, a * c)


def test_cofactors_coprime():
    rng = Rng(7)
    for _ in range(40):
        a = sample_poly_nonzero(rng, 3)
        b = sample_poly_nonzero(rng, 3)
        g = poly_gcd(a, b)
        assert poly_gcd(poly_divexact(a, g), poly_divexact(b, g)).is_one()


def test_ring_axioms_sampled():
    rng = Rng(1)
    for _ in range(50):
        a = sample_poly(rng, 3)
        b = sample_poly(rng, 3)
        c = sample_poly(rng, 3)
        assert a + b == b + a
        assert a + a == ZERO
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_divexact_roundtrip():
    rng = Rng(2)
    for _ in range(40):
        a = sample_poly(rng, 3)
        b = sample_poly_nonzero(rng, 3)
        assert poly_divexact(a * b, b) == a


def test_square_and_sqrt():
    rng = Rng(3)
    for _ in range(30):
        a = sample_poly(rng, 3)
        sq = a.square()
        assert sq == a * a
        assert sq.sqrt() == a


def test_phi_theta_substitutions():
    p = S * T  # s t -> t s^2
    assert p.subst_phi() == Poly2.monomial(2, 1)
    q = Poly2.monomial(2, 1)  # s^2 t -> t s  (even s-exponents required)
    assert q.subst_theta() == Poly2.monomial(1, 1)
    rng = Rng(4)
    for _ in range(30):
        a = sample_poly(rng, 3)
        assert a.subst_phi().subst_phi() == a.square()
        assert a.subst_phi().subst_theta() == a


def test_grevlex_string_order():
    p = S * S + S * T + T * T + ONE
    assert str(p) == "s^2 + s*t + t^2 + 1"


def test_even_exponent_queries():
    assert (S * S + T).even_s_exponents()
    assert not (S + T).even_s_exponents()
    assert (S * S).all_exponents_even()
    assert not (S * S * T).all_exponents_even()


def _with_constant_term(p: Poly2) -> Poly2:
    """p or p + 1, whichever has a constant term: no monomial divides
    it, so the certificate refuses only for the factor under test."""
    return p if (0, 0) in p.terms() else p + ONE


def test_gcd_matches_prs():
    # poly_gcd (memo, monomial part, certificate) against the primitive
    # PRS alone, on products up to total degree 40
    polynomials._GCD_MEMO.clear()
    rng = Rng(11)
    certified = 0
    for k in range(80):
        d = 2 + k % 19
        a = sample_poly_nonzero(rng, d, 6)
        b = sample_poly_nonzero(rng, d, 6)
        c = sample_poly_nonzero(rng, d, 3)
        for x, y in ((a, b), (a * c, b), (a * c, b * c), (a * c, a)):
            assert poly_gcd(x, y) == _prs_gcd(x, y), (x, y)
        ca, cb = _with_constant_term(a), _with_constant_term(b)
        certified += _coprime_at_alpha(ca, cb)
    assert certified > 40  # the certificate path was exercised


@pytest.mark.parametrize("c", [
    S + ONE, S * S + S + ONE, F_S,                # in GF(2)[s] only
    T + ONE, T * T * T + T + ONE, F_T,            # in GF(2)[t] only
    Poly2.monomial(0, 51) + ONE,                  # alpha^51 = 1
    F_S * T + ONE,                                # lc_t vanishes at alpha
    F_S * F_T + ONE,                              # both images are 1
    (S + T) * (S * T + ONE),
], ids=["s+1", "s2+s+1", "f(s)", "t+1", "t3+t+1", "f(t)", "t51+1",
        "f(s)t+1", "f(s)f(t)+1", "(s+t)(st+1)"])
def test_certificate_rejects_common_factor(c):
    rng = Rng(12)
    for _ in range(30):
        a = _with_constant_term(sample_poly(rng, 6, 5))
        b = _with_constant_term(sample_poly(rng, 6, 5))
        assert not _coprime_at_alpha(a * c, b * c)
        assert poly_divexact(poly_gcd(a * c, b * c), c)


_polys = st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)),
                  max_size=7).map(Poly2.from_terms)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_polys, _polys, _polys)
def test_gcd_divides_with_coprime_cofactors(a, b, c):
    a, b = a * c, b * c
    if a.is_zero() or b.is_zero():
        return
    g = poly_gcd(a, b)
    ca, cb = poly_divexact(a, g), poly_divexact(b, g)
    assert poly_gcd(ca, cb).is_one()
    assert poly_gcd(ca, cb) == _prs_gcd(ca, cb)


def test_gcd_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    s, t = sympy.symbols("s t")

    def to_sympy(p: Poly2):
        return sympy.Poly.from_dict({(i, j): 1 for i, j in p.terms()},
                                    s, t, modulus=2)

    rng = Rng(13)
    for k in range(40):
        d = 2 + k % 10
        c = sample_poly_nonzero(rng, d)
        a = sample_poly_nonzero(rng, d) * c
        b = sample_poly_nonzero(rng, d) * c
        assert to_sympy(poly_gcd(a, b)) == sympy.gcd(to_sympy(a),
                                                     to_sympy(b)), (a, b)


def test_gcd_memo_stays_bounded():
    polynomials._GCD_MEMO.clear()
    pairs = [(S + Poly2.monomial(0, k), S * T + ONE) for k in range(1, 1001)]
    for p, q in pairs:
        poly_gcd(p, q)
        assert len(polynomials._GCD_MEMO) <= polynomials.GCD_MEMO_SIZE
    assert len(polynomials._GCD_MEMO) == polynomials.GCD_MEMO_SIZE
    p, q = pairs[-1]
    assert poly_gcd(p, q) is polynomials._GCD_MEMO[(p, q)]


def test_gcd_memo_under_threads():
    rng = Rng(14)
    cases = []
    for _ in range(600):
        c = sample_poly_nonzero(rng, 3)
        a, b = sample_poly_nonzero(rng, 4) * c, sample_poly_nonzero(rng, 4) * c
        cases.append((a, b, _prs_gcd(a, b)))
    errors = []

    def worker(part):
        try:
            for a, b, g in part:
                if poly_gcd(a, b) != g:
                    errors.append((a, b))
        except Exception as exc:  # reported through `errors`
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(cases[i::4],))
                   for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    assert len(polynomials._GCD_MEMO) <= polynomials.GCD_MEMO_SIZE
