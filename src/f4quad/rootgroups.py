"""Root group coordinates and the unipotent group U+ = U1 U2 U3 U4.

U1 and U3 are copies of the additive group L' x L' x K, U2 and U4 of
L x L x K'.  The defining commutation relations (numbered (1)-(4) in
the README's relation table) say consecutive root groups commute,
[U1,U3] lands in U2, [U2,U4] lands in U3, and [U1,U4] spreads over
U2 U3.  Every element then has a unique normal form g1 g2 g3 g4, and
multiplication is collection: pull the right factor's components
leftward, emitting commutator corrections as they cross.  The U2 part
of the [U1,U4] correction of p and q commutes with q (comm24's traces
cancel in pairs: tr(zbar) = tr(z), and tr vanishes on K), so a product
makes one [U2,U4] correction, for h2 past g4.

Commutator bookkeeping is pleasantly degenerate in characteristic 2:
each root group is elementary abelian, so every root element is its own
inverse, and the U2/U3-valued corrections for [g,h] and [h,g] coincide.

Relations (2)-(4) are written once, over operations and constants passed
in: `_trace_form` is the K slot of (2) and (3) and the trace terms of
(4), `_relation4` is (4); `FieldInstance.evaluate` runs them for any
instance.  `UPlus.relation4` is (4) unchecked, and the quadrangle's
solvers evaluate it.

Membership checks (L' and K' slots) are always on and raise
InternalConsistencyError; `comm14` is `relation4` followed by
check_r1/r2.  Each UPlus keeps the COMM14_MEMO_SIZE most recently used
non-trivial [U1,U4] corrections in a `functools.lru_cache`, keyed by
the input pair: a commutator and the Moufang set's multiplication ask
for the same pair again and again, and coordinate equality is exact
canonical equality, so a hit returns exactly what recomputation would.
The cache is thread-safe and stores no exception.

The coordinate records R1Coord, R2Coord and UPlusElem are slotted
dataclasses, immutable by convention like Poly2 and KElem (no frozen
`__setattr__`, so a record costs a third of the time to build).  A sum
of coordinates with a zero operand returns the other operand, as KElem
and LElem sums do: most sums of a collection add a zero correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fields import K_ZERO, L_ZERO, FieldInstance, KElem, LElem, kprime_member


class InternalConsistencyError(AssertionError):
    """A structural invariant of the coordinate algebra failed."""


@dataclass(unsafe_hash=True, slots=True)
class R1Coord:
    """Coordinates of U1/U3: (x, y, b) in L' x L' x K."""
    x: LElem
    y: LElem
    b: KElem

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero() and self.b.is_zero()

    def __add__(self, other: "R1Coord") -> "R1Coord":
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return R1Coord(self.x + other.x, self.y + other.y, self.b + other.b)

    def __str__(self) -> str:
        return f"({self.x}, {self.y}, {self.b})"


@dataclass(unsafe_hash=True, slots=True)
class R2Coord:
    """Coordinates of U2/U4: (u, v, a) in L x L x K'."""
    u: LElem
    v: LElem
    a: KElem

    def is_zero(self) -> bool:
        return self.u.is_zero() and self.v.is_zero() and self.a.is_zero()

    def __add__(self, other: "R2Coord") -> "R2Coord":
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return R2Coord(self.u + other.u, self.v + other.v, self.a + other.a)

    def __str__(self) -> str:
        return f"({self.u}, {self.v}, {self.a})"


@dataclass(unsafe_hash=True, slots=True)
class UPlusElem:
    """Normal form g1 g2 g3 g4; equality is component-wise."""
    g1: R1Coord
    g2: R2Coord
    g3: R1Coord
    g4: R2Coord

    def is_identity(self) -> bool:
        return (self.g1.is_zero() and self.g2.is_zero()
                and self.g3.is_zero() and self.g4.is_zero())

    def __str__(self) -> str:
        return f"{self.g1}_1 {self.g2}_2 {self.g3}_3 {self.g4}_4"


COMM14_MEMO_SIZE = 32


def _trace_form(ops, c, d, z, w, z2, w2):
    """c (tr(z conj(z2)) + d tr(w conj(w2))), in K for any L inputs: the K
    slot of relation (2) with (c, d) = (alpha, beta^2), of relation (3)
    with (c, d) = (beta^-1, alpha), and the trace terms of relation (4)."""
    *_, kadd, kmul, polar = ops
    return kmul(c, kadd(polar(z, z2), kmul(d, polar(w, w2))))


def _relation4(ops, alpha, beta, beta_sq, beta_inv, beta_sq_inv, x, y, u, v, b, a):
    """Relation (4): the [U1,U4] correction of p = (x, y, b), q = (u, v, a)
    is (w_u, w_v, w_a) in U2 and (z_x, z_y, z_b) in U3, with `ops` as
    `FieldInstance.evaluate` passes them.  The trace terms
    alpha (u^2 x ybar + ubar^2 xbar y + alpha (vbar^2 x y + v^2 xbar ybar))
    and alpha (beta^-1 (x u vbar + xbar ubar v) + y ubar vbar + ybar u v)
    are `_trace_form`s."""
    mul, sq, norm, add, sc, conj, kadd, kmul, _ = ops
    xbar, ybar, ubar, vbar = conj(x), conj(y), conj(u), conj(v)
    usq, vsq = sq(u), sq(v)
    ux, vx = mul(usq, x), mul(vsq, xbar)

    w_u = add(sc(b, u), sc(alpha, add(mul(xbar, v), sc(beta, mul(y, vbar)))))
    w_v = add(add(sc(b, v), mul(x, u)), sc(beta, mul(y, ubar)))
    d2 = kadd(kmul(b, b), kmul(alpha, kadd(norm(x), kmul(beta_sq, norm(y)))))
    w_a = kadd(kmul(a, d2), _trace_form(ops, alpha, alpha, ux, vx, y, y))

    z_x = add(add(sc(a, x), mul(conj(usq), y)), sc(alpha, mul(vsq, ybar)))
    z_y = add(sc(a, y), sc(beta_sq_inv, add(ux, sc(alpha, vx))))
    d3 = kadd(a, kmul(beta_inv, kadd(norm(u), kmul(alpha, norm(v)))))
    z_b = kadd(kmul(b, d3), _trace_form(ops, alpha, beta_inv, y, x,
                                        mul(u, v), mul(ubar, v)))
    return w_u, w_v, w_a, z_x, z_y, z_b


class UPlus:
    """The unipotent group attached to a field instance."""

    def __init__(self, inst: FieldInstance):
        self.inst = inst
        self.r1_zero = zr1 = R1Coord(L_ZERO, L_ZERO, K_ZERO)
        self.r2_zero = zr2 = R2Coord(L_ZERO, L_ZERO, K_ZERO)
        self.identity = UPlusElem(zr1, zr2, zr1, zr2)
        # per instance: a class-level cache would key on self and keep
        # every UPlus alive
        self._comm14_cache = lru_cache(maxsize=COMM14_MEMO_SIZE)(self._comm14)

    # -- coordinate validation ------------------------------------------------

    def check_r1(self, c: R1Coord, where: str = "") -> R1Coord:
        if not (self.inst.lprime_member(c.x) and self.inst.lprime_member(c.y)):
            raise InternalConsistencyError(
                f"U1/U3 coordinate outside L' {where}: {c}")
        return c

    def check_r2(self, c: R2Coord, where: str = "") -> R2Coord:
        if not kprime_member(c.a):
            raise InternalConsistencyError(
                f"U2/U4 coordinate outside K' {where}: {c}")
        return c

    # -- pure elements ----------------------------------------------------------

    def pure1(self, c: R1Coord) -> UPlusElem:
        return UPlusElem(c, self.r2_zero, self.r1_zero, self.r2_zero)

    def pure2(self, c: R2Coord) -> UPlusElem:
        return UPlusElem(self.r1_zero, c, self.r1_zero, self.r2_zero)

    def pure3(self, c: R1Coord) -> UPlusElem:
        return UPlusElem(self.r1_zero, self.r2_zero, c, self.r2_zero)

    def pure4(self, c: R2Coord) -> UPlusElem:
        return UPlusElem(self.r1_zero, self.r2_zero, self.r1_zero, c)

    # -- the commutator maps -----------------------------------------------------

    def comm13(self, p: R1Coord, q: R1Coord) -> R2Coord:
        """[U1, U3] correction, a central U2 element (relation (2)).

        The K'-slot is alpha * (tr(x xbar') + beta^2 tr(y ybar')); the
        symmetric trace form keeps it inside K'.
        """
        if (p.x.is_zero() and p.y.is_zero()) or (q.x.is_zero() and q.y.is_zero()):
            return self.r2_zero
        val = self.inst.evaluate(_trace_form, ("alpha", "beta_sq"), "K",
                                 p.x, p.y, q.x, q.y)
        if not kprime_member(val):
            raise InternalConsistencyError(f"comm13 slot left K': {val}")
        return R2Coord(L_ZERO, L_ZERO, val)

    def comm24(self, p: R2Coord, q: R2Coord) -> R1Coord:
        """[U2, U4] correction into U3 (relation (3)): additive
        in p, whose K' slot it never reads."""
        if (p.u.is_zero() and p.v.is_zero()) or (q.u.is_zero() and q.v.is_zero()):
            return self.r1_zero
        val = self.inst.evaluate(_trace_form, ("beta_inv", "alpha"), "K",
                                 p.u, p.v, q.u, q.v)
        return R1Coord(L_ZERO, L_ZERO, val)

    def comm14(self, p: R1Coord, q: R2Coord) -> tuple[R2Coord, R1Coord]:
        """[U1, U4] correction pair (U2 part, U3 part), relation (4).

        Non-trivial pairs go through the instance's memo (module
        docstring)."""
        if p.is_zero() or q.is_zero():
            return self.r2_zero, self.r1_zero
        return self._comm14_cache(p, q)

    def relation4(self, p: R1Coord, q: R2Coord) -> tuple[R2Coord, R1Coord]:
        """Relation (4) at any p and q, unchecked."""
        w_u, w_v, w_a, z_x, z_y, z_b = self.inst.evaluate(
            _relation4, ("alpha", "beta", "beta_sq", "beta_inv", "beta_sq_inv"),
            "LLKLLK", p.x, p.y, q.u, q.v, p.b, q.a)
        return R2Coord(w_u, w_v, w_a), R1Coord(z_x, z_y, z_b)

    def _comm14(self, p: R1Coord, q: R2Coord) -> tuple[R2Coord, R1Coord]:
        """comm14 computed and checked, for p and q both nonzero."""
        w, z = self.relation4(p, q)
        return (self.check_r2(w, "(comm14 U2 part)"),
                self.check_r1(z, "(comm14 U3 part)"))

    # -- group law -----------------------------------------------------------------

    def mul(self, g: UPlusElem, h: UPlusElem) -> UPlusElem:
        """Collected product: move h's components left past g's.

        Corrections: h1 past g3 emits comm13 into U2; h1 past g4 emits
        the comm14 pair (p2, p3), and p2 commutes with g4 (module
        docstring); h2 past g4 emits comm24 into U3.  Everything else
        commutes, and nilpotency class 3 stops the cascade.
        """
        p2, p3 = self.comm14(h.g1, g.g4)
        c24 = self.comm24(h.g2, g.g4)
        c2 = g.g2 + self.comm13(h.g1, g.g3) + p2 + h.g2
        return UPlusElem(g.g1 + h.g1, c2, g.g3 + p3 + c24 + h.g3, g.g4 + h.g4)

    def inv(self, g: UPlusElem) -> UPlusElem:
        """g4 g3 g2 g1 collected; root elements are their own inverses."""
        acc = self.pure4(g.g4)
        acc = self.mul(acc, self.pure3(g.g3))
        acc = self.mul(acc, self.pure2(g.g2))
        acc = self.mul(acc, self.pure1(g.g1))
        return acc

    def commutator(self, g: UPlusElem, h: UPlusElem) -> UPlusElem:
        return self.mul(self.mul(self.inv(g), self.inv(h)), self.mul(g, h))

    def conjugate(self, g: UPlusElem, by: UPlusElem) -> UPlusElem:
        return self.mul(self.mul(self.inv(by), g), by)

    # -- lower central structure ------------------------------------------------------

    def filtration_degree(self, g: UPlusElem) -> int:
        """Depth in the lower central series (whole group = 1, capped at 3).

        Degree >= 2 means g1 = g4 = 0; degree 3 additionally kills the
        L-slots of g2 and g3, leaving the Suzuki-Tits-like centre.
        """
        if g.is_identity():
            return 3
        if not (g.g1.is_zero() and g.g4.is_zero()):
            return 1
        central = (g.g2.u.is_zero() and g.g2.v.is_zero()
                   and g.g3.x.is_zero() and g.g3.y.is_zero())
        return 3 if central else 2

    # -- restrictions ----------------------------------------------------------------

    def suzuki_tits_member(self, g: UPlusElem) -> bool:
        """All L-slots vanish: the W(K, phi) subquadrangle's unipotents."""
        return (g.g1.x.is_zero() and g.g1.y.is_zero()
                and g.g2.u.is_zero() and g.g2.v.is_zero()
                and g.g3.x.is_zero() and g.g3.y.is_zero()
                and g.g4.u.is_zero() and g.g4.v.is_zero())
