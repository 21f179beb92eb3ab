"""Polynomial kernel: canonical forms, gcd, exact division, substitutions."""

import ast
import re
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from f4quad import polynomials
from f4quad.polynomials import (P_ONE, P_S, P_T, P_ZERO, Poly2,
                                _coprime_at_alpha, _prs_gcd, poly_divexact,
                                poly_gcd)
from f4quad.sampling import Rng, sample_poly, sample_poly_nonzero

S = P_S
T = P_T
ONE = P_ONE
ZERO = P_ZERO
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


def _reference_mul(a: Poly2, b: Poly2) -> Poly2:
    """Term-by-term product: every pair of terms, coefficients mod 2."""
    out: dict = {}
    for i1, j1 in a.terms():
        for i2, j2 in b.terms():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) ^ 1
    return Poly2.from_terms(k for k, c in out.items() if c)


def test_mul_matches_reference_product():
    # units, monomials (the shift path) and general factors, both orders
    rng = Rng(15)
    for k in range(120):
        a = sample_poly(rng, 1 + k % 6, 5)
        mono = Poly2.monomial(rng.below(7), rng.below(7))
        b = sample_poly(rng, 1 + k % 5, 5)
        for x in (ONE, ZERO, mono, S, T, b, b + ONE):
            assert a * x == _reference_mul(a, x), (a, x)
            assert x * a == _reference_mul(x, a), (x, a)
    assert ONE * (S + T) == S + T and (S + T) * ONE == S + T
    single_row = S * S + S  # one row, not a monomial
    assert single_row * (S + ONE) == _reference_mul(single_row, S + ONE)


def test_total_degree_and_substitutions_match_terms():
    rng = Rng(16)
    for k in range(80):
        a = sample_poly(rng, 1 + k % 7, 6)
        ts = a.terms()
        assert a.total_degree() == max((i + j for i, j in ts), default=-1)
        assert a.subst_phi() == Poly2.from_terms((2 * j, i) for i, j in ts)
        sq = a.square()
        assert sq.subst_theta() == Poly2.from_terms(
            (j, i // 2) for i, j in sq.terms())
        if any(i % 2 for i, _ in ts):
            with pytest.raises(ArithmeticError):
                a.subst_theta()


def test_odd_bits_closed_form_matches_loop():
    for n in range(301):
        loop = 0
        for k in range(1, n, 2):
            loop |= 1 << k
        low = (1 << n) - 1
        assert polynomials._ODD_BITS(n) & low == loop, n


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
    # poly_gcd (exits, monomial part, certificate) against the primitive
    # PRS alone, on products up to total degree 40
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


def test_gcd_at_high_t_degree():
    # t-degrees up to 1000 in the dense layout; s + t^k is irreducible and
    # does not divide st + 1, so the pair is coprime
    q = S * T + ONE
    for k in (1, 63, 64, 255, 256, 257, 1000):
        p = S + Poly2.monomial(0, k)
        assert poly_gcd(p, q) == _prs_gcd(p, q) == ONE, k
        assert poly_gcd(p * q, q * q) == _prs_gcd(p * q, q * q) == q, k


def test_gcd_exit_values():
    # zero, one and monomial inputs are answered before the certificate
    f = S * T + ONE
    m = Poly2.monomial(2, 1)
    for p, q, g in ((ZERO, f, f), (f, ZERO, f), (ONE, f, ONE), (f, ONE, ONE),
                    (m, f, ONE), (f, m, ONE),
                    (m, S * S * T + S * T * T, S * T), (m, m, m)):
        assert poly_gcd(p, q) == g, (p, q)


def test_gcd_of_equal_pair_is_p():
    rng = Rng(22)
    for p in (Poly2.monomial(3, 2), S * T + ONE, S * S + T,
              *(sample_poly_nonzero(rng, 4, 5) for _ in range(40))):
        g = poly_gcd(p, Poly2.from_terms(p.terms()))  # equal, not identical
        assert g == p
        if not p.is_monomial():
            assert g is p


def test_gcd_under_threads():
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


# ----------------------------------------------------------------------
# differential tests of the packed layout against a row-dict reference
# ----------------------------------------------------------------------

def _clmul(a: int, b: int) -> int:
    out = 0
    for k in range(b.bit_length()):
        if b >> k & 1:
            out ^= a << k
    return out


class _Rows:
    """Reference polynomial: {t-exponent: GF(2)[s] bitmask}, no zero rows."""

    def __init__(self, rows: dict[int, int]):
        self.rows = {j: m for j, m in rows.items() if m}

    @classmethod
    def of(cls, terms) -> "_Rows":
        rows: dict[int, int] = {}
        for i, j in terms:
            rows[j] = rows.get(j, 0) ^ (1 << i)
        return cls(rows)

    def pairs(self):
        return {(i, j) for j, m in self.rows.items()
                for i in range(m.bit_length()) if m >> i & 1}

    def __add__(self, other):
        rows = dict(self.rows)
        for j, m in other.rows.items():
            rows[j] = rows.get(j, 0) ^ m
        return _Rows(rows)

    def __mul__(self, other):
        rows: dict[int, int] = {}
        for j1, m1 in self.rows.items():
            for j2, m2 in other.rows.items():
                rows[j1 + j2] = rows.get(j1 + j2, 0) ^ _clmul(m1, m2)
        return _Rows(rows)

    def shift(self, i, j):
        return _Rows({jj + j: m << i for jj, m in self.rows.items()})

    def square(self):
        return _Rows.of((2 * i, 2 * j) for i, j in self.pairs())

    def subst_phi(self):
        return _Rows.of((2 * j, i) for i, j in self.pairs())

    def terms(self):
        return sorted(self.pairs(), key=lambda ij: (ij[0] + ij[1], -ij[1]),
                      reverse=True)

    def __str__(self):
        def mono(i, j):
            f = [x for x in (("s" if i == 1 else f"s^{i}") if i else "",
                             ("t" if j == 1 else f"t^{j}") if j else "") if x]
            return "*".join(f) or "1"
        return " + ".join(mono(i, j) for i, j in self.terms()) or "0"


def _agree(p: Poly2, r: _Rows):
    pairs = r.pairs()
    assert p.terms() == r.terms()
    assert str(p) == str(r)
    assert p.num_terms() == len(pairs)
    same = Poly2(r.rows)  # packed again from the reference rows
    assert p == same and hash(p) == hash(same)
    assert p.deg_t() == max((j for _, j in pairs), default=-1)
    assert p.total_degree() == max((i + j for i, j in pairs), default=-1)
    if pairs:
        assert p.val_s() == min(i for i, _ in pairs)
        assert p.val_t() == min(j for _, j in pairs)
        assert p.is_monomial() == (len(pairs) == 1)


# s-degrees at and around the stride edges, and t-degrees past the 256
# rows that the spill guard _HI covers
_S_EDGES = (0, 1, 2, 5, 31, 32, 33, 63, 64, 65, 127, 128, 129)
_T_EDGES = (0, 1, 2, 3, 255, 256, 300)


def _edge_terms(rng: Rng, k: int) -> list[tuple[int, int]]:
    return [(_S_EDGES[rng.below(len(_S_EDGES))] if rng.below(3) else rng.below(40),
             _T_EDGES[rng.below(len(_T_EDGES))] if rng.below(4) == 0 else rng.below(6))
            for _ in range(k)]


def _check_pair(ta, tb, shift=(0, 0)):
    a, b = Poly2.from_terms(ta), Poly2.from_terms(tb)
    ra, rb = _Rows.of(ta), _Rows.of(tb)
    _agree(a, ra)
    _agree(b, rb)
    _agree(a + b, ra + rb)
    _agree(a * b, ra * rb)
    _agree(b * a, ra * rb)
    _agree(a.shift(*shift), ra.shift(*shift))
    _agree(a.square(), ra.square())
    assert a.square().sqrt() == a
    _agree(a.subst_phi(), ra.subst_phi())
    assert a.subst_phi().subst_theta() == a
    assert a.subst_phi().subst_phi() == a.square()
    even, odd = a.split_even_odd()
    assert even + odd.shift(1, 0) == a
    assert even.even_s_exponents() and odd.even_s_exponents()
    if not b.is_zero() and not a.is_zero():
        assert poly_divexact(a * b, b) == a
    assert (a + b == b + a) and hash(a + b) == hash(b + a)


def test_packed_matches_rows_seeded():
    rng = Rng(17)
    for k in range(150):
        ta = _edge_terms(rng, 1 + k % 6)
        tb = _edge_terms(rng, 1 + k % 4)
        _check_pair(ta, tb, (_S_EDGES[k % len(_S_EDGES)], k % 3))


@pytest.mark.parametrize("i", [31, 32, 63, 64, 127, 128])
def test_stride_edges(i):
    # operands at s-degree i with a second row; the product doubles it
    ta = [(i, 1), (0, 0), (3, 2)]
    tb = [(i, 0), (1, 1)]
    _check_pair(ta, tb, (i, 1))
    wide = Poly2.monomial(i, 0)
    assert str(wide * wide) == f"s^{2 * i}"
    assert poly_divexact(wide * wide, wide) == wide


def test_t_degree_past_the_guarded_rows():
    # row 300 lies outside the rows that _HI covers; its s-degree 40 must
    # still send the product to a stride past 64, though the other
    # operand and row 0 clear _HI
    far = [(40, 300), (0, 0)]
    near = [(31, 0), (1, 0)]
    _check_pair(far, near)
    p = Poly2.from_terms(far) * Poly2.from_terms(near)
    assert (71, 300) in p.terms()


@pytest.mark.parametrize("j", [1, 31, 32, 33, 34, 64, 300])
def test_total_degree_across_the_fold_guard(j):
    # rows j around 33 and s-degrees around 32 and the stride W, where
    # i + j passes the row width
    for i in (0, 1, 31, 32, 33, 63, 64, 65):
        for low in ([], [(0, 0)], [(i + j + 1, 0)], [(i, j - 1), (1, 0)]):
            terms = [(i, j)] + low
            p = Poly2.from_terms(terms)
            assert p.total_degree() == max(a + b for a, b in set(terms))


def test_mixed_strides():
    narrow = [(5, 0), (31, 2)]
    for i in (64, 127, 128, 200):
        wide = [(i, 1), (2, 0)]
        _check_pair(narrow, wide, (40, 0))
        _check_pair(wide, narrow, (64, 0))


def test_wide_sum_cancels_to_narrow():
    wide = Poly2.monomial(64, 1)
    p = wide + wide + S
    assert p == S and hash(p) == hash(S) and str(p) == "s"
    q = Poly2.from_terms([(64, 1), (64, 1), (1, 0)])
    assert q == S and hash(q) == hash(S)
    # a quotient and a root fall back to the narrow stride too
    assert poly_divexact(wide * S, Poly2.monomial(65, 1)) == ONE
    assert (wide * wide).sqrt() == wide
    assert (wide + S).split_even_odd() == (wide, ONE)
    assert ((wide + ONE) * (S + ONE)).shift(0, 0) + wide * S + wide == S + ONE


_edge_polys = st.lists(
    st.tuples(st.one_of(st.integers(0, 8), st.sampled_from(_S_EDGES)),
              st.one_of(st.integers(0, 4), st.sampled_from(_T_EDGES))),
    max_size=6)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_edge_polys, _edge_polys, st.sampled_from(_S_EDGES), st.integers(0, 3))
def test_packed_matches_rows_hypothesis(ta, tb, i, j):
    _check_pair(ta, tb, (i, j))


def test_representation_stays_private():
    # only polynomials.py reads the packed layout (_v, _w, _rows)
    private = re.compile(r"\._[vw]\b|_rows\b")
    src = Path(polynomials.__file__).parent
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(src.glob("*.py")) if path.name != "polynomials.py"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if private.search(line)]
    assert not hits, hits


def test_only_the_field_layer_imports_polynomials():
    # Poly2 -> KElem -> ...: above fields, code sees K and L values only
    importer = re.compile(r"^\s*(from|import)\b.*\bpolynomials\b", re.M)
    src = Path(polynomials.__file__).parent
    importers = {path.name for path in src.glob("*.py")
                 if importer.search(path.read_text())}
    assert importers <= {"__init__.py", "fields.py", "sampling.py"}, importers


_RAW_LAYER = {"W", "_kraw", "_shared", "_over", "_lover", "_radd", "_rscale",
              "_rconj", "_rpolar", "_widening", "_pack", "_sdeg", "_Wider"}


@pytest.mark.parametrize("name", ["rootgroups", "quadrangle", "moufang",
                                  "verifier", "parser", "cli"])
def test_only_the_field_layer_sees_raw_values(name):
    # FieldInstance.evaluate takes L and K values and returns them: above
    # fields, no module imports or reads a name of the raw L format
    tree = ast.parse((Path(polynomials.__file__).parent / f"{name}.py").read_text())
    seen = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
            for a in n.names}
    seen |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not seen & _RAW_LAYER, seen & _RAW_LAYER


@pytest.mark.parametrize("i, j", [(0, 0), (3, 0), (0, 2), (2, 5), (70, 1)])
def test_cancel_monomial_by_exponents(i, j):
    m = Poly2.monomial(i, j)
    assert m.exponents() == (i, j)
    rng = Rng(i * 31 + j)
    for _ in range(20):
        p = sample_poly_nonzero(rng, 4, 5).shift(rng.below(4), rng.below(4))
        g = poly_gcd(p, m)
        assert p.cancel_monomial(i, j) == (poly_divexact(p, g),
                                           poly_divexact(m, g)), p
        if i == j == 0:
            assert p.cancel_monomial(i, j)[1] is P_ONE, p
