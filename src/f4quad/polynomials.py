"""Sparse polynomials over GF(2) in the two indeterminates s and t.

A polynomial is a finite set of monomials s^i t^j; coefficients live in
GF(2), so the presence of a monomial *is* its coefficient and addition
is symmetric difference.  Internally the terms are stored as a mapping
from t-exponent to a bitmask of s-exponents, which turns addition into
a per-row xor and multiplication into carry-less integer arithmetic on
the rows.

GCDs are computed content/primitive-part-wise: contents are univariate
GCDs of the coefficient rows (bitmask Euclid), the primitive parts go
through a primitive pseudo-remainder sequence in t.  Over GF(2) the
only unit is 1, so reduced objects are canonical with no further
normalisation.
"""

from __future__ import annotations


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
        return max(i + j for i, j in self.terms())

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
        for i, j in self.terms():
            rows[i] = rows.get(i, 0) ^ (1 << (2 * j))
        return Poly2(rows)

    def subst_theta(self) -> "Poly2":
        """Monomial substitution s^2 -> t, t -> s (even s-exponents only)."""
        rows: dict[int, int] = {}
        for i, j in self.terms():
            if i % 2:
                raise ArithmeticError("theta substitution needs even s-exponents")
            rows[i // 2] = rows.get(i // 2, 0) ^ (1 << j)
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
    # 0b1010...10 of the requested width
    out = 0
    for k in range(1, nbits, 2):
        out |= 1 << k
    return out


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
        (i, j), = g.terms()
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


def poly_gcd(p: Poly2, q: Poly2) -> Poly2:
    """GCD in GF(2)[s,t]; gcd(0, q) = q, canonical (units are trivial)."""
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    if p.is_one() or q.is_one():
        return _ONE
    # common monomial part comes out first; it keeps the PRS sparse
    vs = min(p.val_s(), q.val_s())
    vt = min(p.val_t(), q.val_t())
    if p.is_monomial() or q.is_monomial():
        return Poly2.monomial(vs, vt)
    if vs or vt:
        p = Poly2({j - vt: m >> vs for j, m in p._rows.items()})
        q = Poly2({j - vt: m >> vs for j, m in q._rows.items()})
    cp, pp = p.primitive_t()
    cq, qq = q.primitive_t()
    c = u_gcd(cp, cq)
    a, b = pp, qq
    if a.deg_t() < b.deg_t():
        a, b = b, a
    while not b.is_zero():
        r = _pseudo_rem(a, b)
        a, b = b, r.primitive_t()[1]
    g = a.scale_u(c)
    if vs or vt:
        g = g.shift(vs, vt)
    return g
