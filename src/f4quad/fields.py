"""The characteristic-2 field tower GF(2) < K' < K < L with its twist maps.

K is the rational function field GF(2)(s, t).  The square-root-of-
Frobenius endomorphism phi sends s -> t, t -> s^2, so phi(phi(f)) = f^2
and the image K' = phi(K) = GF(2)(s^2, t) is a proper subfield with
[K : K'] = 2 and basis {1, s}.  theta denotes the inverse of phi on K'.

L = K[e]/(e^2 + e + delta) is a separable quadratic extension; elements
are pairs c0 + c1*e.  Conjugation sends e -> e + 1.  An instance fixes
delta, the image phi(e), and the pair (beta, alpha = phi(beta)) that
parametrises the anisotropic forms.  L' is the subfield generated by
the squares of L together with K', equivalently the image phi(L).
L arithmetic runs on raw values (A0, A1, i, j, g, b) = (A0 + A1 e) /
(s^i t^j g): ints A0, A1 packed as in `polynomials` at one stride w per
evaluation, b bounding their s-degree, g free of s and t and
`polynomials.P_ONE` itself for a monomial denominator (`_shared`; a K
value has A1 = 0, `_kraw`).  A sum meets at the larger exponents and at
lcm(g, h), a gcd only when g != h; a product (`u_mul`; in L three and
one by delta) adds exponents.  Bounds add alike, so none falls below an
operand's but by a product with an exact 0: a result bounded below w is
exact.  `_over` reduces once per coordinate, a monomial cancel when g is
P_ONE (an identity test: a second Poly2 equal to 1 would send every
reduction through `_cancel`), after raising `_Wider` on a bound that
reaches w, as `_pack` does on an input; `_widening` reruns at 2w.  Only
this module sees the format: `FieldInstance.evaluate` runs formulas over
the raw ops, with one table keyed by (stride, name) that converts delta
and each constant on its first read at a stride.

KElem is a reduced fraction of Poly2 values and is canonical: over
GF(2) every nonzero leading coefficient is 1, so there is nothing to
normalise beyond the gcd.  A useful consequence used throughout: an
element of K lies in K' exactly when the canonical numerator and
denominator both have only even powers of s.  phi, theta, inversion and
squaring map reduced fractions to reduced ones, and a factor 1 gives
the other operand back, so none of these reduce again.

The library names each constant of the tower one way: K_ZERO, K_ONE,
K_S and K_T in K, L_ZERO, L_ONE and L_E in L.  An element c of K is
LElem(c) in L.  Subtraction is addition in characteristic 2, and the
classes define only `+`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .polynomials import (P_ONE, P_S, P_T, P_ZERO, W, Poly2, _pack, _sdeg,
                          _shrink, _spread, _stride, _Wider, poly_divexact,
                          poly_gcd, u_mul)


class FieldError(ArithmeticError):
    """Division by zero or a domain violation in the tower."""


# ----------------------------------------------------------------------
# K = GF(2)(s, t)
# ----------------------------------------------------------------------

class KElem:
    """A canonical reduced fraction of GF(2)[s,t] polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly2, den: Poly2 | None = None):
        if den is None:
            den = P_ONE
        if den.is_zero():
            raise FieldError("zero denominator")
        if num.is_zero():
            self.num, self.den = P_ZERO, P_ONE
        else:
            self.num, self.den = _cancel(num, den)

    # -- constructors ----------------------------------------------------

    # perfbench/selftest.py spells 0 and 1 of K so; the library uses
    # K_ZERO and K_ONE
    @classmethod
    def zero(cls) -> "KElem":
        return K_ZERO

    @classmethod
    def one(cls) -> "KElem":
        return K_ONE

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    # -- arithmetic ---------------------------------------------------------
    # addition and multiplication keep quotients reduced with the small
    # cross-gcds of Henrici's scheme instead of one large gcd per result

    def __add__(self, other: "KElem") -> "KElem":
        if not isinstance(other, KElem):
            return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if n1.is_zero():
            return other
        if n2.is_zero():
            return self
        if d1 == d2:
            num = n1 + n2
            if num.is_zero():
                return K_ZERO
            return _trusted_k(*_cancel(num, d1))
        # canonical operands with d1 != d2 differ, and a + b = 0 only if a = b
        g = poly_gcd(d1, d2)
        if g.is_one():
            return _trusted_k(n1 * d2 + n2 * d1, d1 * d2)
        d2r = poly_divexact(d2, g)
        num = n1 * d2r + n2 * poly_divexact(d1, g)
        h = poly_gcd(num, g)
        if h.is_one():
            return _trusted_k(num, d1 * d2r)
        return _trusted_k(poly_divexact(num, h),
                          poly_divexact(d1, h) * d2r)

    def __mul__(self, other: "KElem") -> "KElem":
        if not isinstance(other, KElem):
            return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if n1.is_zero() or n2.is_zero():
            return K_ZERO
        # a factor 1 gives the other operand back (KElem is immutable)
        if n1.is_one() and d1.is_one():
            return other
        if n2.is_one() and d2.is_one():
            return self
        n1, d2 = _cancel(n1, d2)
        n2, d1 = _cancel(n2, d1)
        return _trusted_k(n1 * n2, d1 * d2)

    def inv(self) -> "KElem":
        if self.num.is_zero():
            raise FieldError("inversion of zero in K")
        # swapping a reduced pair leaves it reduced
        return _trusted_k(self.den, self.num)

    def __truediv__(self, other: "KElem") -> "KElem":
        if not isinstance(other, KElem):
            return NotImplemented
        return self * other.inv()

    def square(self) -> "KElem":
        # gcd(a^2, b^2) = gcd(a, b)^2 = 1: the square is already reduced
        return _trusted_k(self.num.square(), self.den.square())

    def __pow__(self, n: int) -> "KElem":
        if n < 0:
            return self.inv() ** (-n)
        acc = K_ONE
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base.square() if n > 1 else base
            n >>= 1
        return acc

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, KElem)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        ns = str(self.num)
        if self.num.num_terms() > 1:
            ns = f"({ns})"
        ds = str(self.den)
        if self.den.num_terms() > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"KElem({self})"


def _cancel(num: Poly2, den: Poly2) -> tuple[Poly2, Poly2]:
    """(num/g, den/g) with g = gcd(num, den), for nonzero num and den;
    a denominator 1 or s^i t^j needs no gcd (`Poly2.cancel_monomial`)."""
    if den.is_one():
        return num, den
    if den.is_monomial():
        return num.cancel_monomial(*den.exponents())
    g = poly_gcd(num, den)
    if g.is_one():
        return num, den
    return poly_divexact(num, g), poly_divexact(den, g)


def _trusted_k(num: Poly2, den: Poly2) -> KElem:
    """Wrap an already-reduced fraction without re-normalising."""
    out = KElem.__new__(KElem)
    out.num = num
    out.den = den
    return out


def _widening(run, w: int = W):
    """run(w) at the first of the strides w, 2w, 4w, ... that holds its bounds."""
    try:
        return run(w)
    except _Wider:
        return _widening(run, 2 * w)


def _over(z, w: int = W, k: int = 0) -> KElem:
    """Numerator k of the raw z at stride w, reduced (module docstring)."""
    num, g = z[k], z[4]
    if z[5] >= w:
        raise _Wider
    if not num:
        return K_ZERO
    num, i, j = _shrink(num, w), z[2], z[3]
    if g is not P_ONE:
        return _trusted_k(*_cancel(num, g.shift(i, j)))
    return _trusted_k(*num.cancel_monomial(i, j))


def _lover(z, w: int = W) -> "LElem":
    return LElem(_over(z, w), _over(z, w, 1))


def _kden(d: Poly2):
    """(i, j, g) with d = s^i t^j g, g free of s and t (P_ONE for a monomial)."""
    if d.is_one():
        return 0, 0, P_ONE
    if d.is_monomial():
        return (*d.exponents(), P_ONE)
    i, j = d.val_s(), d.val_t()
    return i, j, poly_divexact(d, Poly2.monomial(i, j))


def _kraw(k: KElem, w: int = W):
    """(N, 0, i, j, g, b) with k = N / (s^i t^j g), N of s-degree b at w."""
    N = _pack(k.num, w)
    return (N, 0, *_kden(k.den), _sdeg(N, w))


def _shared(z: "LElem", w: int = W):
    """(A0, A1, i, j, g, b) with z = (A0 + A1 e) / (s^i t^j g)."""
    (i, j, g), (k, m, h) = _kden(z.c0.den), _kden(z.c1.den)
    A0, A1 = _pack(z.c0.num, w), _pack(z.c1.num, w)
    if g is h and i == k and j == m:
        return A0, A1, i, j, g, _sdeg(A0 | A1, w)
    return _radd((A0, 0, i, j, g, _sdeg(A0, w)), (0, A1, k, m, h, _sdeg(A1, w)), w)


def _gmul(g: Poly2, h: Poly2) -> Poly2:
    return h if g is P_ONE else g if h is P_ONE else g * h


def _lcm(g: Poly2, h: Poly2):
    """(l, l / g, l / h) for l = lcm(g, h)."""
    if g == h:
        return g, P_ONE, P_ONE
    c = poly_gcd(g, h)
    hc = poly_divexact(h, c)
    return g * hc, hc, poly_divexact(g, c)


def _radd(z, x, w: int = W):
    """z + x, met at the larger exponents and at the lcm of the g parts."""
    (A0, A1, i, j, g, b), (B0, B1, k, m, h, c) = z, x
    if g is not h:
        g, cz, cx = _lcm(g, h)
        cz, cx = _pack(cz, w), _pack(cx, w)
        A0, A1, B0, B1 = u_mul(cz, A0), u_mul(cz, A1), u_mul(cx, B0), u_mul(cx, B1)
        b, c = b + _sdeg(cz, w), c + _sdeg(cx, w)
    I, J = i if i > k else k, j if j > m else m
    b, c = b + I - i, c + I - k
    sz, sx = I - i + w * (J - j), I - k + w * (J - m)
    return A0 << sz ^ B0 << sx, A1 << sz ^ B1 << sx, I, J, g, b if b > c else c


def _rscale(f, z):
    """f z for a raw K value f and a raw value z."""
    (F, _, k, m, h, c), (A0, A1, i, j, g, b) = f, z
    if F & (F - 1):
        A0, A1 = u_mul(F, A0), u_mul(F, A1) if A1 else 0
    else:  # 0 or s^a t^c, at most one bit: the integer product is carry-less
        A0, A1 = A0 * F, A1 * F
    return A0, A1, i + k, j + m, _gmul(h, g), b + c


def _rconj(z):
    return (z[0] ^ z[1],) + z[1:]


def _rpolar(z, x):
    """The raw K value tr(z conj(x)) = A0 B1 + A1 B0 (the polar form)."""
    (A0, A1, i, j, g, b), (B0, B1, k, m, h, c) = z, x
    return u_mul(A0, B1) ^ u_mul(A1, B0), 0, i + k, j + m, _gmul(g, h), b + c


K_ZERO = KElem(P_ZERO)
K_ONE = KElem(P_ONE)
K_S = KElem(P_S)
K_T = KElem(P_T)


# ----------------------------------------------------------------------
# the twist endomorphism on K and its inverse on K'
# ----------------------------------------------------------------------

def phi_k(f: KElem) -> KElem:
    """The twist endomorphism on K: s -> t, t -> s^2 (phi o phi = squaring).

    The image of a reduced fraction is reduced, so it is not re-reduced.
    phi is an isomorphism of GF(2)[s,t] onto R = GF(2)[t, s^2].  If a
    non-unit h divided phi(n) and phi(d), then h^2, which lies in R,
    would divide phi(n)^2 and phi(d)^2 in R; but their gcd in R is
    phi(gcd(n, d))^2 = 1."""
    return _trusted_k(f.num.subst_phi(), f.den.subst_phi())


def kprime_member(f: KElem) -> bool:
    """Membership in K' = GF(2)(s^2, t), decided on the canonical form."""
    return f.num.even_s_exponents() and f.den.even_s_exponents()


def theta_k(f: KElem) -> KElem:
    """Inverse of the twist on K': rewrite in s^2, t and substitute back.

    The image of a reduced fraction is reduced, so it is not re-reduced.
    theta is the inverse isomorphism R = GF(2)[t, s^2] -> GF(2)[s,t], and
    a common factor of theta(n), theta(d) in GF(2)[s,t] would map to a
    common factor of n, d in R, which divides both in GF(2)[s,t] too."""
    if not kprime_member(f):
        raise FieldError(f"theta applied outside K': {f}")
    return _trusted_k(f.num.subst_theta(), f.den.subst_theta())


def kprime_decompose(f: KElem) -> tuple[KElem, KElem]:
    """Split f = g + s*h with g, h in GF(2)(s^2, t); f is in K' iff h = 0.

    Works by multiplying numerator and denominator with the denominator's
    odd/even conjugate: with p = p0 + s p1 over q = q0 + s q1,
    f = [(p0 q0 + s^2 p1 q1) + s (p0 q1 + p1 q0)] / (q0^2 + s^2 q1^2).
    """
    p0, p1 = f.num.split_even_odd()
    q0, q1 = f.den.split_even_odd()
    s2 = Poly2.monomial(2, 0)
    den = q0.square() + s2 * q1.square()
    g = KElem(p0 * q0 + s2 * (p1 * q1), den)
    h = KElem(p0 * q1 + p1 * q0, den)
    return g, h


# ----------------------------------------------------------------------
# L = K[e]/(e^2 + e + delta)
# ----------------------------------------------------------------------

class LElem:
    """c0 + c1*e with c0, c1 in K.  Instance-independent ops only."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0: KElem, c1: KElem | None = None):
        self.c0 = c0
        self.c1 = c1 if c1 is not None else K_ZERO

    # perfbench/selftest.py spells 1 of L so; the library uses L_ONE
    @classmethod
    def one(cls) -> "LElem":
        return L_ONE

    def is_zero(self) -> bool:
        return self.c0.is_zero() and self.c1.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other: "LElem") -> "LElem":
        if not isinstance(other, LElem):
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return LElem(self.c0 + other.c0, self.c1 + other.c1)

    def conj(self) -> "LElem":
        """The involution fixing K: e -> e + 1."""
        return LElem(self.c0 + self.c1, self.c1)

    def trace(self) -> KElem:
        """z + conj(z), always in K."""
        return self.c1

    def __eq__(self, other) -> bool:
        return (isinstance(other, LElem)
                and self.c0 == other.c0 and self.c1 == other.c1)

    def __hash__(self) -> int:
        return hash((self.c0, self.c1))

    def __str__(self) -> str:
        if self.c1.is_zero():
            return str(self.c0)
        es = "e" if self.c1.is_one() else f"({self.c1})*e"
        if self.c0.is_zero():
            return es
        return f"{self.c0} + {es}"

    def __repr__(self) -> str:
        return f"LElem({self})"


L_ZERO = LElem(K_ZERO, K_ZERO)
L_ONE = LElem(K_ONE, K_ZERO)
L_E = LElem(K_ZERO, K_ONE)


def kscale(k: KElem, z: LElem) -> LElem:
    """Multiply an L element by a K scalar."""
    return _widening(lambda w: _lover(_rscale(_kraw(k, w), _shared(z, w)), w))


# ----------------------------------------------------------------------
# the one verdict record, for sub-checks and for a verifier run's checks
# ----------------------------------------------------------------------

@dataclass
class Check:
    name: str
    status: str  # pass | fail | error (the check crashed) | skip
    note: str | None = None
    suite: str = ""
    anchor: str = ""
    millis: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def failed(self) -> bool:
        return self.status in ("fail", "error")


@dataclass
class CheckList:
    checks: list[Check] = field(default_factory=list)

    @property
    def results(self) -> list[Check]:
        """`checks`, for perfbench/worker.py, the one reader of this name."""
        return self.checks

    def add(self, name: str, passed: bool, note: str = "") -> None:
        self.checks.append(Check(name, "pass" if passed else "fail", note))

    @property
    def ok(self) -> bool:
        return not any(c.failed for c in self.checks)

    def counts(self) -> tuple[int, int, int]:
        """(passed, failed, skipped); a crash counts as failed."""
        return (sum(c.passed for c in self.checks),
                sum(c.failed for c in self.checks),
                sum(c.status == "skip" for c in self.checks))


def _first(witnesses):
    """The first witness that is not None, drawing nothing after it."""
    return next((w for w in witnesses if w is not None), None)


# ----------------------------------------------------------------------
# field instance: delta, phi(e), beta, alpha
# ----------------------------------------------------------------------

class FieldInstance:
    """Binds the free constants of the tower and provides L arithmetic.

    The ground endomorphism phi on K is fixed (s -> t, t -> s^2); the
    instance supplies delta (so L is defined), the image phi(e), and the
    form constants beta in K, alpha = phi(beta) in K'.
    """

    def __init__(self, delta: KElem, phi_e: LElem, beta: KElem, alpha: KElem):
        self.delta = delta
        self.phi_e = phi_e
        self.beta = beta
        self.alpha = alpha
        if beta.is_zero() or alpha.is_zero():
            raise FieldError("beta and alpha must be nonzero")
        if phi_e.c1.is_zero():
            raise FieldError("phi(e) must generate L over K")
        self.beta_inv = beta.inv()
        self.alpha_inv = alpha.inv()
        self.beta_sq = beta.square()
        self.beta_sq_inv = self.beta_sq.inv()
        self._raws = {}  # (stride, constant name or names) -> raw value(s) there

    # -- L arithmetic -------------------------------------------------------

    def lmul(self, z: LElem, x: LElem) -> LElem:
        """(a0 + a1 e)(b0 + b1 e) with e^2 reduced to e + delta."""
        if not z.c1:
            return kscale(z.c0, x) if z.c0 else L_ZERO
        if not x.c1:
            return kscale(x.c0, z) if x.c0 else L_ZERO
        return _widening(lambda w: _lover(self._rmul(_shared(z, w), _shared(x, w), w), w))

    def lnorm(self, z: LElem) -> KElem:
        """z * conj(z) = c0^2 + c0 c1 + delta c1^2, an element of K."""
        return _widening(lambda w: _over(self._rnorm(_shared(z, w), w), w))

    def linv(self, z: LElem) -> LElem:
        if z.is_zero():
            raise FieldError("inversion of zero in L")
        return kscale(self.lnorm(z).inv(), z.conj())

    def lsquare(self, z: LElem) -> LElem:
        return _widening(lambda w: _lover(self._rsquare(_shared(z, w), w), w))

    def _rdelta(self, p, q, r, i, j, g, b, w):
        """(p + delta r) + q e over s^i t^j g with bound b, at stride w:
        delta = D / d enters as d p + D r and d q over d."""
        D, d, di, dj, dg, bd = self._raws.get((w, "delta")) or self._raw(w, "delta")
        if d != 1:
            p, q = u_mul(d, p), u_mul(d, q)
        return p ^ u_mul(D, r), q, i + di, j + dj, _gmul(g, dg), b + bd

    def _rmul(self, z, x, w: int = W):
        """(A0 + A1 e)(B0 + B1 e) = A0 B0 + delta A1 B1
        + ((A0 + A1)(B0 + B1) + A0 B0) e."""
        (A0, A1, i, j, g, b), (B0, B1, k, m, h, c) = z, x
        p = u_mul(A0, B0)
        return self._rdelta(p, u_mul(A0 ^ A1, B0 ^ B1) ^ p, u_mul(A1, B1),
                            i + k, j + m, _gmul(g, h), b + c, w)

    def _rsquare(self, z, w: int = W):
        A0, A1, i, j, g, b = z
        q = _spread(A1)
        return self._rdelta(_spread(A0), q, q, 2 * i, 2 * j, _gmul(g, g), 2 * b, w)

    def _rnorm(self, z, w: int = W):
        """The raw K value A0^2 + A0 A1 + delta A1^2."""
        A0, A1, i, j, g, b = z
        return self._rdelta(u_mul(A0, A0 ^ A1), 0, _spread(A1), 2 * i, 2 * j,
                            _gmul(g, g), 2 * b, w)

    def evaluate(self, formula, names, kinds, *args):
        """formula(ops, *constants, *args) at the first stride that holds it,
        on the raw values of the L and K values args and of the instance's
        constants named in `names` (ops: `_raw`); each output reduced to a
        KElem where `kinds` has a K, else an LElem ("K": one K output)."""
        def at(w):
            ops, consts = self._raws.get((w, names)) or self._raw(w, names)
            out = formula(ops, *consts, *[_kraw(a, w) if type(a) is KElem
                                          else _shared(a, w) for a in args])
            return _over(out, w) if kinds == "K" else [
                _over(o, w) if k == "K" else _lover(o, w) for o, k in zip(out, kinds)]
        return _widening(at)

    def _raw(self, w: int, key):
        """Table entry (w, key), made on first read: for a tuple of names,
        the ops at stride w (L product, square, norm and sum, K-by-L scale,
        conjugation, K sum and product, polar form tr(z conj(w))) and those
        constants; for "delta", (D, d, di, dj, dg, b) with delta = D / d,
        d = s^di t^dj dg, b the larger s-degree; else the constant, raw."""
        if type(key) is tuple:
            mul, sq, norm, add = (op if w == W else partial(op, w=w) for op in
                                  (self._rmul, self._rsquare, self._rnorm, _radd))
            v = ((mul, sq, norm, add, _rscale, _rconj, add, _rscale, _rpolar),
                 [self._raws.get((w, n)) or self._raw(w, n) for n in key])
        elif key == "delta":
            (D, _, di, dj, dg, bn), d = _kraw(self.delta, w), _pack(self.delta.den, w)
            v = D, d, di, dj, dg, max(bn, _sdeg(d, w))
        else:
            v = _kraw(getattr(self, key), w)
        self._raws[w, key] = v
        return v

    # -- the twist on L -------------------------------------------------------

    def phi_l(self, z: LElem) -> LElem:
        """phi(c0 + c1 e) = phi(c0) + phi(c1) * phi(e)."""
        f0 = phi_k(z.c0)
        f1 = phi_k(z.c1)
        return LElem(f0 + f1 * self.phi_e.c0, f1 * self.phi_e.c1)

    def lprime_member(self, z: LElem) -> bool:
        """Membership in L' = phi(L): both phi-preimage coordinates in K'."""
        p0, p1 = self.phi_e.c0, self.phi_e.c1
        d1 = z.c1 / p1
        if not kprime_member(d1):
            return False
        return kprime_member(z.c0 + d1 * p0)

    def theta_l(self, z: LElem) -> LElem:
        """Inverse of phi on L'."""
        p0, p1 = self.phi_e.c0, self.phi_e.c1
        d1 = z.c1 / p1
        c1 = theta_k(d1)  # raises FieldError outside K'
        c0 = theta_k(z.c0 + d1 * p0)
        return LElem(c0, c1)

    # -- instance validation ---------------------------------------------------

    def validate(self, seed: int = 0, samples: int = 20,
                 max_degree: int = 3) -> CheckList:
        """Machine checks of the defining conditions.  Irreducibility of
        x^2 + x + delta and the two twist laws are decided exactly;
        anisotropy is probed, not proved: Rng(seed) feeds `samples` rounds
        each of the probes `zero_of_form1` and `zero_of_form2`, which the
        fields suite's anisotropy check shares.

        The twist laws need no other condition first.  phi_l is additive
        and K-semilinear, phi_l(k z) = phi(k) phi_l(z), whether or not
        phi(e) satisfies its minimal polynomial.  So for z = c0 + c1 e,
        phi(phi(z)) = c0^2 + c1^2 phi(phi(e)) and z^2 = c0^2 + c1^2 e^2:
        phi o phi is squaring on L iff phi(phi(e)) = e^2.  Likewise
        phi(conj(z)) + conj(phi(z)) = phi(c1) (1 + c1'), with c1' the
        e-coordinate of phi(e), so phi commutes with conjugation iff
        c1' = 1."""
        rep = CheckList()

        # (i) x^2 + x + delta has no root in K, decided exactly.
        root = self._artin_schreier_root()
        rep.add("irreducible-artin-schreier",
                root is None,
                "" if root is None else f"root found: {root}")

        # (ii) phi(e) satisfies the image of e's minimal polynomial, making
        # phi a ring endomorphism of L; the twist laws, decided at e.
        pe = self.phi_e
        for name, residue in (
                ("phiE-satisfies-image-minimal-polynomial",
                 self.lmul(pe, pe) + pe + LElem(phi_k(self.delta))),
                ("twist-squared-is-frobenius", self.phi_l(pe) + self.lsquare(L_E))):
            rep.add(name, residue.is_zero(),
                    "" if residue.is_zero() else f"residue: {residue}")
        rep.add("twist-commutes-with-conjugation", pe.c1.is_one())

        # (iii) alpha = phi(beta) and alpha lies in K'.
        rep.add("alpha-is-twist-of-beta", phi_k(self.beta) == self.alpha,
                f"phi(beta)={phi_k(self.beta)}, alpha={self.alpha}")
        rep.add("alpha-in-kprime", kprime_member(self.alpha))

        # (iv) randomized anisotropy probing of both defining forms.
        rng = Rng(seed)
        cx1 = _first(self.zero_of_form1(rng, max_degree) for _ in range(samples))
        cx2 = _first(self.zero_of_form2(rng, max_degree) for _ in range(samples))
        for form, cx in (("form1", cx1), ("form2", cx2)):
            rep.add(f"anisotropy-{form}-probe", cx is None,
                    "no nontrivial zero found (evidence, not proof)"
                    if cx is None else f"counterexample: {cx}")

        # (v) a counterexample in one form maps through the twist to the other.
        if cx1 is not None:
            u, v, a = cx1
            val = self.form2(self.phi_l(u), self.phi_l(v), theta_k(a))
            rep.add("counterexample-transfers-1to2", val.is_zero(), str(val))
        if cx2 is not None:
            x, y, b = cx2
            val = self.form1(self.theta_l(x), self.theta_l(y), phi_k(b))
            rep.add("counterexample-transfers-2to1", val.is_zero(), str(val))
        return rep

    def form1(self, u: LElem, v: LElem, a: KElem) -> KElem:
        """u ubar + alpha v vbar + beta a  (u, v in L, a in K')."""
        return self.lnorm(u) + self.alpha * self.lnorm(v) + self.beta * a

    def form2(self, x: LElem, y: LElem, b: KElem) -> KElem:
        """x xbar + beta^2 y ybar + alpha b^2  (x, y in L', b in K)."""
        return self.lnorm(x) + self.beta_sq * self.lnorm(y) + self.alpha * b.square()

    def zero_of_form1(self, rng, max_degree: int):
        """Draws u, v in L and a = phi(f), f in K; (u, v, a) if that is a
        nontrivial zero of form1."""
        u, v = sample_l(rng, max_degree), sample_l(rng, max_degree)
        a = phi_k(sample_k(rng, max_degree))
        return (u, v, a) if (u or v or a) and self.form1(u, v, a).is_zero() else None

    def zero_of_form2(self, rng, max_degree: int):
        """Draws x, y in L' as phi_l of samples of L, then b in K; (x, y, b)
        if that is a nontrivial zero of form2."""
        x = self.phi_l(sample_l(rng, max_degree))
        y = self.phi_l(sample_l(rng, max_degree))
        b = sample_k(rng, max_degree)
        return (x, y, b) if (x or y or b) and self.form2(x, y, b).is_zero() else None

    def _artin_schreier_root(self) -> KElem | None:
        """A root of x^2 + x + delta in K, or None; decided, not searched.

        A rational root p/q in lowest terms forces q | p^2, so q = 1 when
        delta is a polynomial; for fractional delta = n/d the denominator
        must satisfy q^2 = d, reducing to p^2 + p*q = n.  The map
        p -> p^2 + p*q is GF(2)-linear, and a root has total degree at
        most max(deg q, deg n // 2): above deg q the top part of p^2 has
        nothing to cancel against.  So one elimination decides it, on
        packed ints at one stride, each image of a monomial p kept under
        its highest bit together with the p that gives it.
        """
        n, d = self.delta.num, self.delta.den
        if d.is_one():
            q = P_ONE
        else:
            if not d.all_exponents_even():
                return None  # no square denominator, no root at all
            q = d.sqrt()
        top = max(q.total_degree(), n.total_degree() // 2)
        w = _stride(2 * top + 2)  # holds n and every image
        pivots: dict[int, tuple[int, int]] = {}

        def reduce(image: int, p: int) -> tuple[int, int]:
            while image.bit_length() in pivots:
                pivot_image, pivot_p = pivots[image.bit_length()]
                image, p = image ^ pivot_image, p ^ pivot_p
            return image, p

        for i in range(top + 1):
            for j in range(top + 1 - i):
                m = Poly2.monomial(i, j)
                image, p = reduce(_pack(m.square() + m * q, w), _pack(m, w))
                if image:
                    pivots[image.bit_length()] = image, p
        rest, p = reduce(_pack(n, w), 0)
        return None if rest else KElem(_shrink(p, w), q)

    def __repr__(self) -> str:
        return (f"FieldInstance(delta={self.delta}, phiE={self.phi_e}, "
                f"beta={self.beta}, alpha={self.alpha})")


def default_instance() -> FieldInstance:
    """delta = s + t, phi(e) = e + s, beta = s, alpha = t."""
    return FieldInstance(delta=K_S + K_T,
                         phi_e=LElem(K_S, K_ONE),
                         beta=K_S,
                         alpha=K_T)


# sampling builds on this module, which the package imports first
from .sampling import Rng, sample_k, sample_l  # noqa: E402
