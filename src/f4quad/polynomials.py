"""Sparse polynomials over GF(2) in the two indeterminates s and t.

A polynomial is a finite set of monomials s^i t^j; coefficients live in
GF(2), so the presence of a monomial *is* its coefficient and addition
is symmetric difference.  Internally the terms are stored as a mapping
from t-exponent to a bitmask of s-exponents, which turns addition into
a per-row xor and multiplication into carry-less integer arithmetic on
the rows.

Units and monomials take exact shortcuts, each an algebraic identity:
a product with the factor 1 is the other operand (a Poly2 is never
mutated), a product with s^i t^j shifts the other operand's rows, and
only two non-monomials reach the carry-less bit loop `u_mul`.  Exact
division by s^i t^j is a shift back.

Every reduced fraction costs gcds.  `poly_gcd` answers a zero, one or
monomial input at once (gcd(s^i t^j, q) = s^min(i, val_s q)
t^min(j, val_t q)); `fields` does not even ask it for a denominator 1 or
s^i t^j.  Other pairs go through three steps:

* a memo of the last GCD_MEMO_SIZE results, keyed by the input pair
  (most gcd calls of a verification repeat an earlier pair);
* on a miss, after the common monomial factor comes out, a coprimality
  certificate (most pairs are coprime): `_coprime_at_alpha` substitutes
  s -> alpha and t -> alpha, alpha a root of x^8 + x^4 + x^3 + x + 1,
  and runs Euclid in GF(256)[y].  It is a proof, not a probabilistic
  test; the argument is in its docstring;
* otherwise the exact algorithm, content/primitive-part-wise: contents
  are univariate GCDs of the coefficient rows (bitmask Euclid), the
  primitive parts go through a primitive pseudo-remainder sequence in t.

Over GF(2) the only unit is 1, so reduced objects are canonical with no
further normalisation.
"""

from __future__ import annotations

import threading


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


# ----------------------------------------------------------------------
# bivariate polynomials
# ----------------------------------------------------------------------

def _grevlex_key(term: tuple[int, int]) -> tuple[int, int]:
    # descending total degree, then descending grevlex (smaller t-exponent
    # is larger among equal total degree: s^2 > st > t^2)
    i, j = term
    return (i + j, -j)


class Poly2:
    """Polynomial in GF(2)[s, t], canonical sparse form."""

    __slots__ = ("_rows", "_hash")

    def __init__(self, rows: dict[int, int] | None = None):
        d = {}
        if rows:
            for j, mask in rows.items():
                if mask:
                    d[j] = mask
        self._rows = d
        self._hash: int | None = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly2":
        return _ZERO

    @classmethod
    def one(cls) -> "Poly2":
        return _ONE

    @classmethod
    def s(cls) -> "Poly2":
        return _S

    @classmethod
    def t(cls) -> "Poly2":
        return _T

    @classmethod
    def monomial(cls, i: int, j: int) -> "Poly2":
        """The monomial s^i t^j."""
        if i < 0 or j < 0:
            raise ValueError("exponents must be non-negative")
        return cls({j: 1 << i})

    @classmethod
    def from_terms(cls, terms) -> "Poly2":
        rows: dict[int, int] = {}
        for i, j in terms:
            rows[j] = rows.get(j, 0) ^ (1 << i)
        return cls(rows)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._rows

    def is_one(self) -> bool:
        return self._rows == {0: 1}

    def __bool__(self) -> bool:
        return bool(self._rows)

    def terms(self) -> list[tuple[int, int]]:
        """All (s-exponent, t-exponent) pairs, grevlex-descending."""
        out = []
        for j, mask in self._rows.items():
            m = mask
            while m:
                low = m & -m
                out.append((low.bit_length() - 1, j))
                m ^= low
        out.sort(key=_grevlex_key, reverse=True)
        return out

    def num_terms(self) -> int:
        return sum(mask.bit_count() for mask in self._rows.values())

    def deg_t(self) -> int:
        if not self._rows:
            return -1
        return max(self._rows)

    def total_degree(self) -> int:
        if not self._rows:
            return -1
        return max(j + mask.bit_length() - 1 for j, mask in self._rows.items())

    def val_s(self) -> int:
        """Largest power of s dividing the polynomial (0 for zero)."""
        if not self._rows:
            return 0
        acc = 0
        for mask in self._rows.values():
            acc |= mask
        return (acc & -acc).bit_length() - 1

    def val_t(self) -> int:
        if not self._rows:
            return 0
        return min(self._rows)

    def is_monomial(self) -> bool:
        return len(self._rows) == 1 and next(iter(self._rows.values())).bit_count() == 1

    def even_s_exponents(self) -> bool:
        """True iff every monomial has an even power of s."""
        for mask in self._rows.values():
            if mask & _ODD_BITS(mask.bit_length()):
                return False
        return True

    def all_exponents_even(self) -> bool:
        for j, mask in self._rows.items():
            if j % 2:
                return False
            if mask & _ODD_BITS(mask.bit_length()):
                return False
        return True

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        if not isinstance(other, Poly2):
            return NotImplemented
        rows = dict(self._rows)
        for j, mask in other._rows.items():
            m = rows.get(j, 0) ^ mask
            if m:
                rows[j] = m
            else:
                rows.pop(j, None)
        p = Poly2.__new__(Poly2)
        p._rows = rows
        p._hash = None
        return p

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "Poly2") -> "Poly2":
        if not isinstance(other, Poly2):
            return NotImplemented
        a, b = self._rows, other._rows
        if not a or not b:
            return _ZERO
        # a factor 1 gives the other operand back (Poly2 is immutable);
        # a monomial factor s^i t^j shifts the other operand's rows
        if len(a) == 1:
            (j, m), = a.items()
            if not m & (m - 1):
                if m == 1 and not j:
                    return other
                return other.shift(m.bit_length() - 1, j)
        if len(b) == 1:
            (j, m), = b.items()
            if not m & (m - 1):
                if m == 1 and not j:
                    return self
                return self.shift(m.bit_length() - 1, j)
        if len(a) > len(b):
            a, b = b, a
        rows: dict[int, int] = {}
        for j1, m1 in a.items():
            for j2, m2 in b.items():
                j = j1 + j2
                rows[j] = rows.get(j, 0) ^ u_mul(m1, m2)
        p = Poly2.__new__(Poly2)
        p._rows = {j: m for j, m in rows.items() if m}
        p._hash = None
        return p

    def shift(self, i: int, j: int) -> "Poly2":
        """Multiply by the monomial s^i t^j."""
        rows = {jj + j: mask << i for jj, mask in self._rows.items()}
        p = Poly2.__new__(Poly2)
        p._rows = rows
        p._hash = None
        return p

    def square(self) -> "Poly2":
        rows = {}
        for j, mask in self._rows.items():
            rows[2 * j] = _spread_bits(mask)
        p = Poly2.__new__(Poly2)
        p._rows = rows
        p._hash = None
        return p

    def sqrt(self) -> "Poly2":
        """Square root when all exponents are even (unique in char 2)."""
        if not self.all_exponents_even():
            raise ArithmeticError("not a square in GF(2)[s,t]")
        rows = {}
        for j, mask in self._rows.items():
            rows[j // 2] = _unspread_bits(mask)
        return Poly2(rows)

    # -- structure --------------------------------------------------------

    def lc_t(self) -> int:
        """Leading coefficient (a GF(2)[s] mask) w.r.t. t."""
        return self._rows[max(self._rows)]

    def content_t(self) -> int:
        """GCD in GF(2)[s] of all t-coefficients."""
        g = 0
        for mask in self._rows.values():
            g = u_gcd(g, mask)
            if g == 1:
                break
        return g

    def scale_u(self, mask: int) -> "Poly2":
        """Multiply by a GF(2)[s] coefficient."""
        if mask == 0:
            return _ZERO
        if mask == 1:
            return self
        rows = {j: u_mul(m, mask) for j, m in self._rows.items()}
        return Poly2(rows)

    def div_u_exact(self, mask: int) -> "Poly2":
        rows = {j: u_divexact(m, mask) for j, m in self._rows.items()}
        return Poly2(rows)

    def primitive_t(self) -> tuple[int, "Poly2"]:
        if not self._rows:
            return 0, self
        c = self.content_t()
        if c == 1:
            return 1, self
        return c, self.div_u_exact(c)

    # -- maps used by the twist endomorphisms -----------------------------

    def subst_phi(self) -> "Poly2":
        """Monomial substitution s -> t, t -> s^2."""
        rows: dict[int, int] = {}
        for j, mask in self._rows.items():
            bit = 1 << (2 * j)
            while mask:
                low = mask & -mask
                i = low.bit_length() - 1
                rows[i] = rows.get(i, 0) ^ bit
                mask ^= low
        return Poly2(rows)

    def subst_theta(self) -> "Poly2":
        """Monomial substitution s^2 -> t, t -> s (even s-exponents only)."""
        rows: dict[int, int] = {}
        for j, mask in self._rows.items():
            if mask & _ODD_BITS(mask.bit_length()):
                raise ArithmeticError("theta substitution needs even s-exponents")
            bit = 1 << j
            while mask:
                low = mask & -mask
                i = (low.bit_length() - 1) // 2
                rows[i] = rows.get(i, 0) ^ bit
                mask ^= low
        return Poly2(rows)

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self._rows == other._rows

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._rows.items()))
        return self._hash

    def __str__(self) -> str:
        if not self._rows:
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


def _spread_bits(mask: int) -> int:
    """Interleave zeros: bit i -> bit 2i (squaring a GF(2)[s] mask)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << (2 * (low.bit_length() - 1))
        mask ^= low
    return out


def _unspread_bits(mask: int) -> int:
    out = 0
    while mask:
        low = mask & -mask
        k = low.bit_length() - 1
        if k % 2:
            raise ArithmeticError("mask is not a square")
        out |= 1 << (k // 2)
        mask ^= low
    return out


def _ODD_BITS(nbits: int) -> int:
    # 0b1010...10, at least the requested width: 0b0101...01 with k
    # ones is (4^k - 1) / 3
    k = (nbits + 1) // 2
    return (((1 << 2 * k) - 1) // 3) << 1


_ZERO = Poly2({})
_ONE = Poly2({0: 1})
_S = Poly2({0: 2})
_T = Poly2({1: 1})


# ----------------------------------------------------------------------
# division and gcd
# ----------------------------------------------------------------------

def poly_divexact(p: Poly2, g: Poly2) -> Poly2:
    """Exact division in GF(2)[s,t]; raises if g does not divide p."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return _ZERO
    if g.is_one():
        return p
    if g.is_monomial():
        (j, m), = g._rows.items()
        i = m.bit_length() - 1
        if p.val_s() < i or p.val_t() < j:
            raise ArithmeticError("inexact division by monomial")
        return Poly2({jj - j: mask >> i for jj, mask in p._rows.items()})
    quot_rows: dict[int, int] = {}
    r = p
    dg = g.deg_t()
    lcg = g.lc_t()
    while not r.is_zero():
        dr = r.deg_t()
        if dr < dg:
            raise ArithmeticError("inexact bivariate division")
        qc = u_divexact(r.lc_t(), lcg)
        quot_rows[dr - dg] = qc
        r = r + g.scale_u(qc).shift(0, dr - dg)
        if not r.is_zero() and r.deg_t() == dr:
            raise ArithmeticError("inexact bivariate division")
    return Poly2(quot_rows)


def _pseudo_rem(a: Poly2, b: Poly2) -> Poly2:
    """Pseudo-remainder of a by b w.r.t. t (any associate works here)."""
    db = b.deg_t()
    lcb = b.lc_t()
    while not a.is_zero() and a.deg_t() >= db:
        da = a.deg_t()
        lca = a.lc_t()
        a = a.scale_u(lcb) + b.scale_u(lca).shift(0, da - db)
    return a


# The gcd memo: insertion-ordered, the oldest entry is evicted first.
# The lock makes evict-and-insert one step for threads that share it.
GCD_MEMO_SIZE = 256
_GCD_MEMO: dict[tuple[Poly2, Poly2], Poly2] = {}
_GCD_MEMO_LOCK = threading.Lock()


def poly_gcd(p: Poly2, q: Poly2) -> Poly2:
    """GCD in GF(2)[s,t]; gcd(0, q) = q, canonical (units are trivial).

    Memo, coprimality certificate, then the exact algorithm: see the
    module docstring."""
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    if p.is_one() or q.is_one():
        return _ONE
    if p.is_monomial():
        return _monomial_gcd(p, q)
    if q.is_monomial():
        return _monomial_gcd(q, p)
    key = (p, q)
    g = _GCD_MEMO.get(key)
    if g is not None:
        return g
    # common monomial part comes out first; it keeps the PRS sparse
    vs = min(p.val_s(), q.val_s())
    vt = min(p.val_t(), q.val_t())
    if vs or vt:
        p = Poly2({j - vt: m >> vs for j, m in p._rows.items()})
        q = Poly2({j - vt: m >> vs for j, m in q._rows.items()})
    g = _ONE if _coprime_at_alpha(p, q) else _prs_gcd(p, q)
    if vs or vt:
        g = g.shift(vs, vt)
    with _GCD_MEMO_LOCK:
        if len(_GCD_MEMO) >= GCD_MEMO_SIZE:
            del _GCD_MEMO[next(iter(_GCD_MEMO))]
        _GCD_MEMO[key] = g
    return g


def _monomial_gcd(m: Poly2, q: Poly2) -> Poly2:
    """gcd(s^i t^j, q) = s^min(i, val_s q) t^min(j, val_t q), q nonzero."""
    (j, mask), = m._rows.items()
    i = mask.bit_length() - 1
    g = Poly2.__new__(Poly2)
    g._rows = {min(j, q.val_t()): 1 << min(i, q.val_s())}
    g._hash = None
    return g


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
    img = [0] * (max(p._rows) + 1)
    for j, mask in p._rows.items():
        img[j] = _at_alpha(mask)
    return img


def _image_t(p: Poly2) -> list[int]:
    """p(s, alpha): coefficients in GF(256), lowest s-degree first,
    deg_s(p) + 1 of them."""
    img = [0] * max(m.bit_length() for m in p._rows.values())
    for j, mask in p._rows.items():
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
