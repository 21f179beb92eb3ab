"""Sparse polynomials over GF(2) in the two indeterminates s and t.

A polynomial is a finite set of monomials s^i t^j; coefficients live in
GF(2), so the presence of a monomial *is* its coefficient and addition
is symmetric difference.

Layout (Kronecker substitution).  A Poly2 is one int `_v` and a stride
`_w`: the monomial s^i t^j is bit `_w*j + i` of `_v`, so the `_w` bits
from `_w*j` on are row j, the coefficient of t^j as a GF(2)[s] bitmask.
The stride is W = 64 unless the s-degree is 64 or more; then it is the
least W * 2^k above the s-degree.  So (_v, _w) is canonical, and `==`
and `hash` compare ints.  On this layout:

* a sum with a zero operand is the other operand, any other sum is one
  xor (operands of different strides meet at the wider; a wide sum that
  cancels to a narrow one is brought back to W);
* a product with the factor 1 is the other operand (a Poly2 is never
  mutated), a product with s^i t^j is one shift of the other operand,
  and exact division by s^i t^j is one shift back;
* a general product is the carry-less bit loop `u_mul` run on the two
  packed ints.  That is exact when no row of the product reaches into
  the next, i.e. when the stride exceeds the product's s-degree, which
  is exactly the sum of the operands' s-degrees.  The cheap first test
  is `_HI`, the upper half (bits 32-63) of every one of the first 256
  rows at stride W: when both operands are at stride W and clear it,
  every row of the product has s-degree at most 62.  Other operands
  (a wide one, a row past s^31 or past t^255) are first relaid at the
  stride the product needs.  A shift by s^i, a square, and a product
  with a GF(2)[s] coefficient (in the gcd) are relaid the same way;
* t-valuation, t-degree, term count, leading t-coefficient, the even
  s-exponent test and the split into even and odd s-exponents are int
  operations; the s-valuation ORs the rows together by halving.

Rows are unpacked (`_rows`, through the bytes of `_v`, in time linear
in its size) only by exact division by a non-monomial, the content and
pseudo-remainder sequence of the gcd, the GF(256) certificate, the
square-root test, the total degree (no verdict asks it) and
`terms()`/`str`.

The layout is dense in t: a polynomial of t-degree d takes d + 1 rows
of at least 64 bits whatever its number of terms, and a general product
loops over the bits of the sparser operand, each step a shift and an
xor as long as the other.  So sparse polynomials of high t-degree cost
more than a dict of their rows would (README, performance notes).

Every reduced fraction costs gcds.  `poly_gcd` answers a zero, one or
monomial input at once (gcd(s^i t^j, q) = s^min(i, val_s q)
t^min(j, val_t q)), and an equal pair by gcd(p, p) = p, which the
certificate below cannot prove and the PRS would take the long way to;
`fields` does not even ask it for a denominator 1 or s^i t^j.  For
other pairs the common monomial factor comes out, then:

* a coprimality certificate (most pairs are coprime): `_coprime_at_alpha`
  substitutes s -> alpha and t -> alpha, alpha a root of
  x^8 + x^4 + x^3 + x + 1, and runs Euclid in GF(256)[y].  It is a
  proof, not a probabilistic test; the argument is in its docstring;
* otherwise the exact algorithm, content/primitive-part-wise: contents
  are univariate GCDs of the coefficient rows (bitmask Euclid), the
  primitive parts go through a primitive pseudo-remainder sequence in t.

No result is remembered, because few pairs recur.  At program seed 9
group-law sends no pair this far, and field-kernel sends 10,489 pairs,
9,908 of them distinct; a 256-entry memo answered 204 of them, and 197
of 984 and 94 of 827 at verify-all's seeds 3 and 10.

Over GF(2) the only unit is 1, so reduced objects are canonical with no
further normalisation.

0, 1, s and t are the module constants P_ZERO, P_ONE, P_S and P_T, and
have no other name.  P_ONE is the shared one: a factor 1 gives the
other operand back, so P_ONE * P_ONE is P_ONE, and the raw L arithmetic
of `fields` takes its monomial path on `g is P_ONE`, a test of identity,
not of equality.  Its numerators are ints in the layout above at the
stride of an evaluation: in by `_pack`, bounded by `_sdeg`, multiplied
by `u_mul`, squared by `_spread` and out by `_shrink`.
"""

from __future__ import annotations

import sys


# ----------------------------------------------------------------------
# univariate helpers: an int is a polynomial in s over GF(2), bit i = s^i
# ----------------------------------------------------------------------

def u_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[s] bitmasks."""
    if a.bit_count() < b.bit_count():
        a, b = b, a
    acc = 0
    while b:
        low = b & -b
        acc ^= a << (low.bit_length() - 1)
        b ^= low
    return acc


def u_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of GF(2)[s] bitmask division."""
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    db = b.bit_length()
    q = 0
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def u_gcd(a: int, b: int) -> int:
    """GCD of two GF(2)[s] bitmasks."""
    while b:
        a, b = b, u_divmod(a, b)[1]
    return a


def u_divexact(a: int, b: int) -> int:
    q, r = u_divmod(a, b)
    if r:
        raise ArithmeticError("inexact univariate division")
    return q


def _ODD_BITS(nbits: int) -> int:
    # 0b1010...10, at least the requested width: 0b0101...01 with k
    # ones is (4^k - 1) / 3
    k = (nbits + 1) // 2
    return (((1 << 2 * k) - 1) // 3) << 1


def _spread(x: int) -> int:
    """Bit i -> bit 2i: the binary digits of x read in base 4."""
    return int(f"{x:b}", 4)


def _squeeze(x: int) -> int:
    """Bit 2i -> bit i, for an x with no odd bit set: every second
    binary digit of x, from the lowest."""
    return int(f"{x:b}"[::-2][::-1], 2)


# ----------------------------------------------------------------------
# the packed layout: bit w*j + i of an int is s^i t^j at stride w
# ----------------------------------------------------------------------

W = 64
# bits 32-63 of each of the first 256 rows at stride W
_HI = int.from_bytes((bytes(4) + b"\xff" * 4) * 256, "little")


def _stride(nbits: int) -> int:
    """The least W * 2^k that holds a row of nbits bits."""
    if nbits <= W:
        return W
    return W << ((nbits - 1) // W).bit_length()


def _rows(v: int, w: int) -> list[int]:
    """The rows of v at stride w, t^0 first, up to the last nonzero one.
    Linear in the size of v, so a high t-degree costs no more than its
    bits: the rows at stride W are read as 8-byte words."""
    wb = w >> 3
    n = (v.bit_length() + w - 1) // w * wb
    if w == W:
        # native words: in big-endian order they come top row first
        words = memoryview(v.to_bytes(n, sys.byteorder)).cast("Q").tolist()
        return words if sys.byteorder == "little" else words[::-1]
    b = v.to_bytes(n, "little")
    return [int.from_bytes(b[k:k + wb], "little") for k in range(0, n, wb)]


def _fold(v: int, w: int) -> int:
    """The OR of the rows of v at stride w: bit i is set iff some
    monomial has s^i.  Halves the number of rows per step."""
    n = (v.bit_length() + w - 1) // w
    while n > 1:
        n = (n + 1) >> 1
        cut = n * w
        v = (v >> cut) | (v & ((1 << cut) - 1))
    return v


def _restride(v: int, w: int, w2: int) -> int:
    """v relaid from stride w to stride w2, which exceeds its s-degree:
    byte r of every row moves as one strided slice."""
    wb, w2b = w >> 3, w2 >> 3
    n = (v.bit_length() + w - 1) // w
    b = v.to_bytes(n * wb, "little")
    out = bytearray(n * w2b)
    for r in range(min(wb, w2b)):
        out[r::w2b] = b[r::wb]
    return int.from_bytes(out, "little")


_alloc = object.__new__


def _new(v: int, w: int) -> "Poly2":
    p = _alloc(Poly2)
    p._v = v
    p._w = w
    return p


def _shrink(v: int, w: int) -> "Poly2":
    """The Poly2 with bits v at stride w, which may be wider than the
    canonical stride (a sum, a quotient or a root can lower the s-degree)."""
    if w > W:
        w2 = _stride(_fold(v, w).bit_length())
        if w2 < w:
            return _new(_restride(v, w, w2), w2)
    return _new(v, w)


class _Wider(Exception):
    """A value or bound of the raw L arithmetic of `fields` does not fit the
    stride of its evaluation, which then reruns at twice the stride."""


def _pack(p: "Poly2", w: int) -> int:
    """p's bits at stride w, the inverse of `_shrink`; _Wider when p's
    s-degree reaches w, as its canonical stride then exceeds w."""
    v, pw = p._v, p._w
    if pw > w:
        raise _Wider
    return v if pw == w else _restride(v, pw, w)


def _sdeg(v: int, w: int) -> int:
    """The s-degree of the bits v at stride w, -1 for 0."""
    return (_fold(v, w) if v >> w else v).bit_length() - 1


def _clears_hi(v: int, w: int) -> bool:
    """True iff v is at stride W and every row has s-degree below 32:
    v has no bit of _HI, and none past its 256 rows (then v < _HI)."""
    return w == W and v < _HI and not v & _HI


# ----------------------------------------------------------------------
# bivariate polynomials
# ----------------------------------------------------------------------

def _grevlex_key(term: tuple[int, int]) -> tuple[int, int]:
    # descending total degree, then descending grevlex (smaller t-exponent
    # is larger among equal total degree: s^2 > st > t^2)
    i, j = term
    return (i + j, -j)


class Poly2:
    """Polynomial in GF(2)[s, t], canonical packed form (module docstring)."""

    __slots__ = ("_v", "_w")

    def __init__(self, rows: dict[int, int] | None = None):
        """rows[j] is the coefficient of t^j, a GF(2)[s] bitmask."""
        rows = rows or {}
        w = _stride(max((m.bit_length() for m in rows.values()), default=0))
        v = 0
        for j, m in rows.items():
            v ^= m << w * j
        self._v = v
        self._w = w

    # -- constructors ---------------------------------------------------

    @classmethod
    def monomial(cls, i: int, j: int) -> "Poly2":
        """The monomial s^i t^j."""
        if i < 0 or j < 0:
            raise ValueError("exponents must be non-negative")
        w = _stride(i + 1)
        return _new(1 << w * j + i, w)

    @classmethod
    def from_terms(cls, terms) -> "Poly2":
        """The sum of s^i t^j over the (i, j) pairs given (mod 2)."""
        terms = list(terms)
        w = _stride(max((i for i, _ in terms), default=0) + 1)
        v = 0
        for i, j in terms:
            if i < 0 or j < 0:
                raise ValueError("exponents must be non-negative")
            v ^= 1 << w * j + i
        return _shrink(v, w)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._v

    def is_one(self) -> bool:
        return self._v == 1

    def __bool__(self) -> bool:
        return bool(self._v)

    def terms(self) -> list[tuple[int, int]]:
        """All (s-exponent, t-exponent) pairs, grevlex-descending."""
        out = []
        for j, m in enumerate(_rows(self._v, self._w)):
            while m:
                low = m & -m
                out.append((low.bit_length() - 1, j))
                m ^= low
        out.sort(key=_grevlex_key, reverse=True)
        return out

    def num_terms(self) -> int:
        return self._v.bit_count()

    def deg_t(self) -> int:
        """Degree in t; -1 for zero."""
        return (self._v.bit_length() - 1) // self._w

    def total_degree(self) -> int:
        """Largest i + j of a monomial s^i t^j; -1 for zero."""
        return max((m.bit_length() - 1 + j
                    for j, m in enumerate(_rows(self._v, self._w)) if m),
                   default=-1)

    def val_s(self) -> int:
        """Largest power of s dividing the polynomial (0 for zero)."""
        v, w = self._v, self._w
        f = _fold(v, w) if v >> w else v
        return (f & -f).bit_length() - 1 if f else 0

    def val_t(self) -> int:
        v = self._v
        return ((v & -v).bit_length() - 1) // self._w if v else 0

    def is_monomial(self) -> bool:
        v = self._v
        return v != 0 and not v & (v - 1)

    def even_s_exponents(self) -> bool:
        """True iff every monomial has an even power of s (the stride is
        even, so these are the even bits)."""
        v = self._v
        return not v & _ODD_BITS(v.bit_length())

    def all_exponents_even(self) -> bool:
        return (self.even_s_exponents()
                and not any(_rows(self._v, self._w)[1::2]))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        if not isinstance(other, Poly2):
            return NotImplemented
        if not other._v:
            return self
        if not self._v:
            return other
        w = self._w
        if w == other._w:
            if w != W:
                return _shrink(self._v ^ other._v, w)
            p = _alloc(Poly2)
            p._v = self._v ^ other._v
            p._w = W
            return p
        # the wider operand has the larger s-degree, and nothing in the
        # narrower one cancels its top terms: the sum keeps that stride
        a, b = (self, other) if w > other._w else (other, self)
        return _new(a._v ^ _restride(b._v, b._w, a._w), a._w)

    def __mul__(self, other: "Poly2") -> "Poly2":
        if not isinstance(other, Poly2):
            return NotImplemented
        a, b = self._v, other._v
        if not a or not b:
            return P_ZERO
        # a factor 1 gives the other operand back (Poly2 is immutable);
        # a monomial factor s^i t^j shifts the other operand
        if a == 1:
            return other
        if b == 1:
            return self
        if not a & (a - 1):
            return other.shift(*self.exponents())
        if not b & (b - 1):
            return self.shift(*other.exponents())
        # no row of the packed product spills while both clear _HI
        # (_clears_hi for both, inlined)
        if (a < _HI and b < _HI and not (a | b) & _HI
                and self._w == W == other._w):
            p = _alloc(Poly2)
            p._v = u_mul(a, b)
            p._w = W
            return p
        # otherwise relay both at the stride of the product's s-degree,
        # which is exactly the sum of theirs: no row reaches the next
        wa, wb = self._w, other._w
        w = _stride(_fold(a, wa).bit_length() + _fold(b, wb).bit_length() - 1)
        if w != wa:
            a = _restride(a, wa, w)
        if w != wb:
            b = _restride(b, wb, w)
        return _new(u_mul(a, b), w)

    def shift(self, i: int, j: int) -> "Poly2":
        """Multiply by the monomial s^i t^j."""
        v, w = self._v, self._w
        if not v or not i | j:
            return self
        if i and not (i <= W // 2 and _clears_hi(v, w)):
            # s^i may carry a row past the stride: relay at the stride
            # of the shifted s-degree first
            w2 = _stride(_fold(v, w).bit_length() + i)
            if w2 != w:
                v, w = _restride(v, w, w2), w2
        return _new(v << w * j + i, w)

    def square(self) -> "Poly2":
        v, w = self._v, self._w
        if not _clears_hi(v, w):
            # s^i t^j -> s^2i t^2j is bit i -> 2i at the same stride
            # while 2i stays below it; otherwise the stride doubles
            if 2 * (_fold(v, w).bit_length() - 1) >= w:
                v, w = _restride(v, w, 2 * w), 2 * w
        return _new(_spread(v), w)

    def sqrt(self) -> "Poly2":
        """Square root when all exponents are even (unique in char 2)."""
        if not self.all_exponents_even():
            raise ArithmeticError("not a square in GF(2)[s,t]")
        return _shrink(_squeeze(self._v), self._w)

    def split_even_odd(self) -> tuple["Poly2", "Poly2"]:
        """(even, odd) with self = even + s*odd, both in GF(2)[s^2, t]."""
        v, w = self._v, self._w
        odd = v & _ODD_BITS(v.bit_length())
        return _shrink(v ^ odd, w), _shrink(odd >> 1, w)

    def exponents(self) -> tuple[int, int]:
        """(i, j) for the monomial s^i t^j."""
        j, i = divmod(self._v.bit_length() - 1, self._w)
        return i, j

    def cancel_monomial(self, i: int, j: int) -> tuple["Poly2", "Poly2"]:
        """(self/g, s^i t^j/g) for g = gcd(self, s^i t^j), self nonzero:
        g = s^min(i, val_s self) t^min(j, val_t self), so g divides both
        and each quotient is a shift; a denominator 1 is P_ONE."""
        if not i | j:
            return self, P_ONE
        v, w = self._v, self._w
        ci = cj = 0
        if i:
            f = _fold(v, w) if v >> w else v
            ci = min(i, (f & -f).bit_length() - 1)
        if j:
            cj = min(j, ((v & -v).bit_length() - 1) // w)
        i, j = i - ci, j - cj
        m = (P_ONE if not i | j else _new(1 << W * j + i, W) if i < W
             else Poly2.monomial(i, j))
        return (_shift_down(self, ci, cj) if ci | cj else self), m

    # -- structure --------------------------------------------------------

    def lc_t(self) -> int:
        """Leading coefficient (a GF(2)[s] mask) w.r.t. t."""
        v, w = self._v, self._w
        return v >> w * ((v.bit_length() - 1) // w)

    def content_t(self) -> int:
        """GCD in GF(2)[s] of all t-coefficients."""
        g = 0
        for mask in _rows(self._v, self._w):
            if mask:
                g = u_gcd(g, mask)
                if g == 1:
                    break
        return g

    def scale_u(self, mask: int) -> "Poly2":
        """Multiply by a GF(2)[s] coefficient."""
        if mask == 0:
            return P_ZERO
        if mask == 1 or not self._v:
            return self
        # every row times mask, packed: the s-degree grows by deg mask,
        # so at that stride no row reaches into the next
        v, w = self._v, self._w
        w2 = _stride(_fold(v, w).bit_length() + mask.bit_length() - 1)
        if w2 != w:
            v = _restride(v, w, w2)
        return _new(u_mul(v, mask), w2)

    def div_u_exact(self, mask: int) -> "Poly2":
        rows = _rows(self._v, self._w)
        return Poly2({j: u_divexact(m, mask) for j, m in enumerate(rows) if m})

    def primitive_t(self) -> tuple[int, "Poly2"]:
        if not self._v:
            return 0, self
        c = self.content_t()
        if c == 1:
            return 1, self
        return c, self.div_u_exact(c)

    # -- maps used by the twist endomorphisms -----------------------------

    def subst_phi(self) -> "Poly2":
        """Monomial substitution s -> t, t -> s^2."""
        v, w = self._v, self._w
        w2 = _stride(2 * self.deg_t() + 1)
        out = 0
        while v:
            top = v.bit_length() - 1
            j, i = divmod(top, w)
            out |= 1 << w2 * i + 2 * j
            v ^= 1 << top
        return _new(out, w2)

    def subst_theta(self) -> "Poly2":
        """Monomial substitution s^2 -> t, t -> s (even s-exponents only)."""
        if not self.even_s_exponents():
            raise ArithmeticError("theta substitution needs even s-exponents")
        v, w = self._v, self._w
        w2 = _stride(self.deg_t() + 1)
        out = 0
        while v:
            top = v.bit_length() - 1
            j, i = divmod(top, w)
            out |= 1 << w2 * (i >> 1) + j
            v ^= 1 << top
        return _new(out, w2)

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly2)
                and self._v == other._v and self._w == other._w)

    def __hash__(self) -> int:
        return hash(self._v)

    def __str__(self) -> str:
        if not self._v:
            return "0"
        parts = []
        for i, j in self.terms():
            if i == 0 and j == 0:
                parts.append("1")
                continue
            factors = []
            if i == 1:
                factors.append("s")
            elif i > 1:
                factors.append(f"s^{i}")
            if j == 1:
                factors.append("t")
            elif j > 1:
                factors.append(f"t^{j}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Poly2({self})"


def _shift_down(p: Poly2, i: int, j: int) -> Poly2:
    """p / (s^i t^j) for a p that s^i t^j divides: every bit moves down
    within its own row."""
    w = p._w
    if w == W:
        return _new(p._v >> i + W * j, W)
    return _shrink(p._v >> i + w * j, w)


P_ZERO = _new(0, W)
P_ONE = _new(1, W)
P_S = _new(2, W)
P_T = _new(1 << W, W)


# ----------------------------------------------------------------------
# division and gcd
# ----------------------------------------------------------------------

def poly_divexact(p: Poly2, g: Poly2) -> Poly2:
    """Exact division in GF(2)[s,t]; raises if g does not divide p."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return P_ZERO
    if g.is_one():
        return p
    if g.is_monomial():
        i, j = g.exponents()
        if p.val_s() < i or p.val_t() < j:
            raise ArithmeticError("inexact division by monomial")
        return _shift_down(p, i, j)
    # long division in t on the rows; the quotient's t^k coefficient is
    # an exact univariate quotient of leading coefficients
    r = _rows(p._v, p._w)
    rg = list(enumerate(_rows(g._v, g._w)))
    dg, lcg = rg[-1]
    quot: dict[int, int] = {}
    for dr in range(len(r) - 1, dg - 1, -1):
        c = r[dr]
        if c:
            k = dr - dg
            qc = quot[k] = u_divexact(c, lcg)
            for jg, m in rg:
                if m:
                    r[k + jg] ^= u_mul(qc, m)
    if any(r[:dg]):
        raise ArithmeticError("inexact bivariate division")
    return Poly2(quot)


def _pseudo_rem(a: Poly2, b: Poly2) -> Poly2:
    """Pseudo-remainder of a by b w.r.t. t (any associate works here)."""
    db = b.deg_t()
    lcb = b.lc_t()
    while not a.is_zero() and a.deg_t() >= db:
        da = a.deg_t()
        lca = a.lc_t()
        a = a.scale_u(lcb) + b.scale_u(lca).shift(0, da - db)
    return a


def poly_gcd(p: Poly2, q: Poly2) -> Poly2:
    """GCD in GF(2)[s,t]; gcd(0, q) = q, canonical (units are trivial).
    The path (exits, monomial part, certificate, PRS) is in the module
    docstring."""
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    if p.is_one() or q.is_one():
        return P_ONE
    if p.is_monomial():
        return _monomial_gcd(p, q)
    if q.is_monomial():
        return _monomial_gcd(q, p)
    # a * a.inv() asks this: the certificate cannot prove it, and the
    # PRS would take the long way to p
    if p == q:
        return p
    # the common monomial part comes out first; it keeps the PRS sparse
    vs = min(p.val_s(), q.val_s())
    vt = min(p.val_t(), q.val_t())
    if vs or vt:
        p = _shift_down(p, vs, vt)
        q = _shift_down(q, vs, vt)
    g = P_ONE if _coprime_at_alpha(p, q) else _prs_gcd(p, q)
    return g.shift(vs, vt) if vs or vt else g


def _monomial_gcd(m: Poly2, q: Poly2) -> Poly2:
    """gcd(s^i t^j, q) = s^min(i, val_s q) t^min(j, val_t q), q nonzero."""
    i, j = m.exponents()
    return Poly2.monomial(min(i, q.val_s()), min(j, q.val_t()))


def _prs_gcd(p: Poly2, q: Poly2) -> Poly2:
    """GCD of nonzero p, q: the gcd of their contents in GF(2)[s] times
    the last member of the primitive pseudo-remainder sequence in t."""
    cp, pp = p.primitive_t()
    cq, qq = q.primitive_t()
    c = u_gcd(cp, cq)
    a, b = pp, qq
    if a.deg_t() < b.deg_t():
        a, b = b, a
    while not b.is_zero():
        r = _pseudo_rem(a, b)
        a, b = b, r.primitive_t()[1]
    return a.scale_u(c)


# ----------------------------------------------------------------------
# coprimality certificate over GF(256) = GF(2)[x]/(x^8 + x^4 + x^3 + x + 1)
# ----------------------------------------------------------------------
# A field element is a byte (bit k = x^k).  alpha is the class of x, so
# an s-mask reduced mod the modulus is its value at alpha.  _LOG and
# _EXP are taken to the base x + 1, which generates the multiplicative
# group (x alone has order 51).  _LOG[0] points into a run of zeros of
# _EXP, so a product with a zero factor reads 0 without a branch.

_MODULUS = 0x11B
_EXP = [0] * 1536
_LOG = [768] * 256
_x = 1
for _k in range(255):
    _EXP[_k] = _EXP[_k + 255] = _EXP[_k + 510] = _x
    _LOG[_x] = _k
    _x ^= _x << 1  # times x + 1
    if _x & 0x100:
        _x ^= _MODULUS
del _x, _k
# _ALPHA_POW[j] = alpha^j; _TIMES_X8[v] = v * alpha^8 (one Horner step)
_ALPHA_POW = [_EXP[j * _LOG[2] % 255] for j in range(255)]
_TIMES_X8 = [_EXP[_LOG[v] + 8 * _LOG[2] % 255] for v in range(256)]


def _at_alpha(mask: int) -> int:
    """Value at alpha of a GF(2)[s] mask, i.e. the mask reduced mod
    the modulus (Horner over its bytes, highest first)."""
    if mask < 256:
        return mask
    v = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "big"):
        v = _TIMES_X8[v] ^ byte
    return v


def _image_s(p: Poly2) -> list[int]:
    """p(alpha, t): coefficients in GF(256), lowest t-degree first,
    deg_t(p) + 1 of them."""
    return [_at_alpha(mask) for mask in _rows(p._v, p._w)]


def _image_t(p: Poly2) -> list[int]:
    """p(s, alpha): coefficients in GF(256), lowest s-degree first,
    deg_s(p) + 1 of them."""
    rows = _rows(p._v, p._w)
    img = [0] * max(m.bit_length() for m in rows)
    for j, mask in enumerate(rows):
        a = _ALPHA_POW[j % 255]
        while mask:
            low = mask & -mask
            img[low.bit_length() - 1] ^= a
            mask ^= low
    return img


def _images_coprime(a: list[int], b: list[int]) -> bool:
    """Euclid in GF(256)[y] on the images of two polynomials; False
    unless one of them kept its degree and the images are coprime."""
    if not (a[-1] or b[-1]):
        return False
    exp, log = _EXP, _LOG
    while a and not a[-1]:
        a.pop()
    while b and not b[-1]:
        b.pop()
    while len(b) > 1:
        n = len(b) - 1
        lb = [log[c] for c in b]
        inv = 255 - lb[n]
        del lb[n]
        for top in range(len(a) - 1, n - 1, -1):
            c = a[top]
            if c:
                f = log[c] + inv
                off = top - n
                a[off:top] = [x ^ exp[lk + f] for x, lk in zip(a[off:top], lb)]
        del a[n:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return bool(b) or len(a) == 1


def _coprime_at_alpha(p: Poly2, q: Poly2) -> bool:
    """True only if gcd(p, q) = 1, for nonzero p, q.  False means "not
    proven", not "not coprime".

    Proof.  Let g = gcd(p, q) and p = g h.  Substitute s -> alpha.  If
    p keeps its t-degree (its leading t-coefficient, a GF(2)[s] mask, is
    nonzero at alpha), then lc_t(p) = lc_t(g) lc_t(h) shows lc_t(g) is
    nonzero at alpha too, so deg_t g(alpha, t) = deg_t g.  As g(alpha, t)
    divides both images, coprime images force deg_t g = 0.  The same
    holds with q in place of p, and with t -> alpha and s-degrees.  When
    both substitutions pass, g has degree 0 in s and in t, so g = 1.
    """
    return (_images_coprime(_image_s(p), _image_s(q))
            and _images_coprime(_image_t(p), _image_t(q)))
