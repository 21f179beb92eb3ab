"""The coordinatised generalized quadrangle and its polarity.

A point or line is its coordinate tuple, and its rank is the tuple's
length: points (inf), (a), (k,b), (a,l,a') and lines [inf], [k], [a,l],
[k,b,k'] have ranks 0 to 3, and the class is the sort: callers write
QPoint((k, b)), QLine((a, l)) or a prefix, QPoint(f.point.coords[:1]).
The base apartment is the octagon (inf) I [inf] I (0) I [0,0] I
(0,0,0) I [0,0,0] I (0,0) I [0] I (inf).  The unipotent group U+ fixes
the flag {(inf),[inf]} and acts regularly on the flags opposite it;
every element of the quadrangle lies in the U+ orbit of a
base-apartment element, with stabilisers by rank

    rank   point       stabiliser     line        stabiliser
    0      (inf)       U+             [inf]       U+
    1      (a)         U2 U3 U4       [k]         U1 U2 U3
    2      (k,b)       U1 U2          [a,l]       U3 U4
    3      (a,l,a')    U4             [k,b,k']    U1

so each element is a coset against a fixed transversal and the whole
geometry (incidence, projections, collinearity) is computed by group
collection: nothing here is transcribed from coordinate formulas, it
is all derived from the commutator relations at run time.

Incidence is a rule on ranks: (inf) I [inf]; elements whose ranks
differ by one are incident exactly when the shorter tuple is a prefix
of the longer; and the two maximal sorts meet by

    (a,l,a') I [k,b,k']  iff  w . m^-1 lies in the set U4 U1

with w, m the point and line transversals, which is tested by
re-collecting u4(c) u1(d) from the candidate's extreme components.
The polarity (5)-(8) keeps the rank and maps each coordinate by its
type, U1/U3 slots by `rho_r1` and U2/U4 slots by `rho_r2`.

Collinearity is the same prefix rule unless one point is maximal and
the other has rank 2 or 3: the only line that can join two points is
the higher-rank one's tuple less its last slot.  The other joins and
projection invert relation (4) in one argument.  The solvers hold no
copy of it: they evaluate `UPlus.relation4` at the basis (1,0), (e,0),
(0,1), (0,e) of L x L, solve the 4x4 system by Gauss-Jordan
elimination in K (`solve_linear_k`; this module works on K and L
values only, never on their polynomials), and read the last slot off
its additive (U2: c scales it by c^2) or linear (U3) dependence on the
first two.

Projections use the generalized-quadrangle axiom; the one family of
configurations that would need the opposite root groups (both elements
maximal, in general position after all available reductions) raises
ProjectionUnsupported instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import (K_ONE, K_ZERO, L_E, L_ONE, L_ZERO, KElem, LElem,
                     kprime_member, kscale, phi_k, theta_k)
from .rootgroups import (InternalConsistencyError, R1Coord, R2Coord, UPlus,
                         UPlusElem)


class ProjectionUnsupported(NotImplementedError):
    """Projection configuration outside the implemented (closed) cases."""


@dataclass(unsafe_hash=True, slots=True)
class QPoint:
    coords: tuple  # (), (a,), (k, b) or (a, l, a')

    def __str__(self) -> str:
        if not self.coords:
            return "(inf)"
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


@dataclass(unsafe_hash=True, slots=True)
class QLine:
    coords: tuple  # (), (k,), (a, l) or (k, b, k')

    def __str__(self) -> str:
        if not self.coords:
            return "[inf]"
        return "[" + ", ".join(str(c) for c in self.coords) + "]"


@dataclass(unsafe_hash=True, slots=True)
class Flag:
    point: QPoint
    line: QLine

    def __str__(self) -> str:
        return f"{{{self.point}, {self.line}}}"


class Quadrangle:
    """Incidence geometry driven by a UPlus group."""

    def __init__(self, group: UPlus):
        self.group = group
        self.inst = group.inst
        g = group
        self.pt_inf = QPoint(())
        self.ln_inf = QLine(())
        self.zero_point = QPoint((g.r1_zero, g.r2_zero, g.r1_zero))
        self.zero_line = QLine((g.r2_zero, g.r1_zero, g.r2_zero))
        self.inf_flag = Flag(self.pt_inf, self.ln_inf)
        self.zero_flag = Flag(self.zero_point, self.zero_line)

    # -- group action ------------------------------------------------------------

    def transversal(self, x) -> UPlusElem:
        """The coset representative that moves the base element of x's
        sort and rank to x: for points 1, u1(a), u3(b) u4(k) and
        u3(a') u2(l) u1(a) collected; for lines 1, u4(k), u1(a) u2(l)
        and u2(k') u3(b) u4(k)."""
        g, c = self.group, x.coords
        if not c:
            return g.identity
        z1, z2 = g.r1_zero, g.r2_zero
        if isinstance(x, QPoint):
            if len(c) == 1:
                return g.pure1(c[0])
            if len(c) == 2:
                return UPlusElem(z1, z2, c[1], c[0])
            return g.mul(g.mul(g.pure3(c[2]), g.pure2(c[1])), g.pure1(c[0]))
        if len(c) == 1:
            return g.pure4(c[0])
        if len(c) == 2:
            return UPlusElem(c[0], c[1], z1, z2)
        return UPlusElem(z1, c[2], c[1], c[0])

    def act_point(self, p: QPoint, g: UPlusElem) -> QPoint:
        if not p.coords:
            return p
        gp = self.group
        nf = gp.mul(self.transversal(p), g)
        if len(p.coords) == 1:
            return QPoint((nf.g1,))
        if len(p.coords) == 2:
            return QPoint((nf.g4, nf.g3))
        r = gp.mul(gp.pure4(nf.g4), nf)
        if not r.g4.is_zero():
            raise InternalConsistencyError("point extraction left a U4 part")
        l = r.g2 + gp.comm13(r.g1, r.g3)
        return QPoint((r.g1, l, r.g3))

    def act_line(self, m: QLine, g: UPlusElem) -> QLine:
        if not m.coords:
            return m
        gp = self.group
        nf = gp.mul(self.transversal(m), g)
        if len(m.coords) == 1:
            return QLine((nf.g4,))
        if len(m.coords) == 2:
            return QLine((nf.g1, gp.mul(nf, gp.pure1(nf.g1)).g2))
        return QLine((nf.g4, nf.g3, nf.g2))

    def point_on_line(self, m: QLine, d: R1Coord) -> QPoint:
        """The maximal point of the maximal line m with row parameter d."""
        if len(m.coords) != 3:
            raise ValueError("point rows are for maximal lines")
        base = QPoint((d, self.group.r2_zero, self.group.r1_zero))
        return self.act_point(base, self.transversal(m))

    def act(self, x, g: UPlusElem):
        if isinstance(x, QPoint):
            return self.act_point(x, g)
        if isinstance(x, QLine):
            return self.act_line(x, g)
        if isinstance(x, Flag):
            return Flag(self.act_point(x.point, g), self.act_line(x.line, g))
        raise TypeError(f"cannot act on {x!r}")

    # -- incidence ------------------------------------------------------------------

    def incident(self, p: QPoint, m: QLine) -> bool:
        """(inf) I [inf]; adjacent ranks by prefix; maximal by collection."""
        pc, mc = p.coords, m.coords
        if len(pc) == len(mc):
            return not pc or (len(pc) == 3 and self._opposite_flag_test(p, m))
        if len(pc) == len(mc) + 1:
            return pc[:len(mc)] == mc
        return len(mc) == len(pc) + 1 and mc[:len(pc)] == pc

    def _opposite_flag_test(self, p: QPoint, m: QLine) -> bool:
        """(a,l,a') I [k,b,k'] iff the transversal quotient lies in U4 U1."""
        g = self.group
        d = g.mul(self.transversal(p), g.inv(self.transversal(m)))
        e = g.mul(g.pure4(d.g4), g.pure1(d.g1))
        return e == d

    # -- collinearity -----------------------------------------------------------------

    def collinear(self, p: QPoint, q: QPoint):
        """The joining line, or None.  p and q must differ.  Below the
        rank pairs (2, 3) and (3, 3) it is the prefix rule."""
        if p == q:
            raise ValueError("collinearity needs two distinct points")
        a, b = (p, q) if len(p.coords) <= len(q.coords) else (q, p)
        ra, rb = len(a.coords), len(b.coords)
        if ra < 2 or rb < 3:
            m = QLine(b.coords[:rb - 1])
            return m if self.incident(a, m) else None
        g = self.group
        if ra == 2:
            k, kb = a.coords
            pa, pl, pa2 = b.coords
            p2, p3 = g.comm14(pa, k)
            if p3 == pa2 + kb + g.comm24(pl, k):
                return QLine((k, kb, pl + g.comm13(pa, pa2) + p2))
            return None
        # both maximal: reduce the first to the zero point
        w = self.transversal(a)
        qq = self.act_point(b, g.inv(w))
        qa, ql, qa2 = qq.coords
        if qa.is_zero():
            if ql.is_zero():
                return self.act_line(QLine((g.r1_zero, g.r2_zero)), w)
            return None
        target = ql + g.comm13(qa, qa2)
        c = self._solve_comm14_u2(qa, target)
        if c is None:
            return None
        if g.comm14(qa, c)[1] != qa2:
            return None
        return self.act_line(QLine((c, g.r1_zero, g.r2_zero)), w)

    # -- projection -------------------------------------------------------------------

    def project(self, p: QPoint, m: QLine) -> QPoint:
        """The unique point of m collinear with p (p not on m)."""
        if self.incident(p, m):
            raise ValueError(f"projection of an incident pair {p} I {m}")
        if not m.coords:  # [inf] is its own base line
            return self._project_base(p, 0)
        # move m to the base line of its rank by its transversal's inverse
        tv = self.transversal(m)
        q1 = self._project_base(self.act_point(p, self.group.inv(tv)),
                                len(m.coords))
        return self.act_point(q1, tv)

    def _project_base(self, p: QPoint, rank: int) -> QPoint:
        """The foot of p on the base line of the given rank."""
        g = self.group
        z1, z2 = g.r1_zero, g.r2_zero
        pr = len(p.coords)
        if rank == 0:  # the line [inf]; p is (k,b) or maximal
            return self.pt_inf if pr == 2 else QPoint((p.coords[0],))
        if rank == 1:  # the line [0]
            return self.pt_inf if pr in (1, 2) else QPoint((z2, p.coords[2]))
        if rank == 2:  # the line [0,0]
            if pr in (0, 1):
                return QPoint((z1,))
            if pr == 2:
                return QPoint((z1, z2, p.coords[1]))
            pa, pl, pa2 = p.coords
            if pa.is_zero():
                return QPoint((z1,))
            k = self._solve_comm14_u2(pa, pl + g.comm13(pa, pa2))
            if k is None:
                raise InternalConsistencyError("projection solve failed on [0,0]")
            return QPoint((z1, z2, pa2 + g.comm14(pa, k)[1]))
        # rank 3: the line [0,0,0]
        if pr == 0:
            return QPoint((z2, z1))
        if pr == 1:
            return QPoint((p.coords[0], z2, z1))
        if pr == 2:
            k, kb = p.coords
            if k.is_zero():
                return QPoint((z2, z1))
            d = self._solve_comm14_u3(k, kb)
            if d is None:
                raise InternalConsistencyError("projection solve failed on [0,0,0]")
            return QPoint((d, z2, z1))
        pa, pl, pa2 = p.coords
        if pa2.is_zero():
            return QPoint((z2, z1))
        if pl.is_zero():
            return QPoint((pa, z2, z1))
        # shift the U1 slot away, solve, shift back
        if not (pl.u.is_zero() and pl.v.is_zero()
                and pa2.x.is_zero() and pa2.y.is_zero()):
            raise ProjectionUnsupported(
                "projection of a maximal point onto a maximal line in general "
                "position needs the opposite root groups, which are out of scope")
        return QPoint((R1Coord(L_ZERO, L_ZERO, pl.a / pa2.b) + pa, z2, z1))

    # -- linear solvers over K ------------------------------------------------------------

    def _solve_comm14_u2(self, p: R1Coord, w: R2Coord):
        """Find k with comm14(p, k) U2 part equal to w; None if impossible.

        At k = (u, v, a) that part is (M(u, v), a D + C(u, v)), with M
        K-linear and C additive with C(c z) = c^2 C(z) (squaring is
        additive in characteristic 2): relation (4) at the basis gives
        M's columns and C there, and at (0, 0, 1) it gives D."""
        g = self.group
        ks = [g.relation4(p, R2Coord(u, v, K_ZERO))[0] for u, v in _L_BASIS]
        sol = _solve_columns([(k.u, k.v) for k in ks], (w.u, w.v))
        d = g.relation4(p, R2Coord(L_ZERO, L_ZERO, K_ONE))[0].a
        if sol is None or d.is_zero():
            return None
        a = sum((c.square() * k.a for c, k in zip(sol, ks)), w.a) / d
        if not kprime_member(a):
            return None
        return R2Coord(LElem(sol[0], sol[1]), LElem(sol[2], sol[3]), a)

    def _solve_comm14_u3(self, q: R2Coord, w: R1Coord):
        """Find d with comm14(d, q) U3 part equal to w; None if impossible.

        At d = (x, y, b) that part is (M(x, y), b D + C(x, y)) with M and
        C K-linear, read off relation (4) as in _solve_comm14_u2."""
        g = self.group
        zs = [g.relation4(R1Coord(x, y, K_ZERO), q)[1] for x, y in _L_BASIS]
        sol = _solve_columns([(z.x, z.y) for z in zs], (w.x, w.y))
        d = g.relation4(R1Coord(L_ZERO, L_ZERO, K_ONE), q)[1].b
        if sol is None or d.is_zero():
            return None
        x, y = LElem(sol[0], sol[1]), LElem(sol[2], sol[3])
        if not (self.inst.lprime_member(x) and self.inst.lprime_member(y)):
            return None
        return R1Coord(x, y, sum((c * z.b for c, z in zip(sol, zs)), w.b) / d)

    # -- polarity ------------------------------------------------------------------------

    def rho_r1(self, c: R1Coord) -> R2Coord:
        """U1/U3 slot map of the polarity: (x,y,b) -> (B x^th, B y^th, b^2th)."""
        inst = self.inst
        return R2Coord(kscale(inst.beta, inst.theta_l(c.x)),
                       kscale(inst.beta, inst.theta_l(c.y)),
                       phi_k(c.b))

    def rho_r2(self, c: R2Coord) -> R1Coord:
        """U2/U4 slot map: (u,v,a) -> (A^-1 u^2th, A^-1 v^2th, a^th)."""
        inst = self.inst
        return R1Coord(kscale(inst.alpha_inv, inst.phi_l(c.u)),
                       kscale(inst.alpha_inv, inst.phi_l(c.v)),
                       theta_k(c.a))

    def _rho(self, coords: tuple) -> tuple:
        """The polarity slot by slot: it keeps the rank."""
        return tuple(self.rho_r1(c) if isinstance(c, R1Coord) else self.rho_r2(c)
                     for c in coords)

    def rho_point(self, p: QPoint) -> QLine:
        return QLine(self._rho(p.coords))

    def rho_line(self, m: QLine) -> QPoint:
        return QPoint(self._rho(m.coords))

    def rho_star(self, g: UPlusElem) -> UPlusElem:
        """Conjugation of U+ by the polarity, collected to normal form."""
        gp = self.group
        out = gp.pure4(self.rho_r1(g.g1))
        out = gp.mul(out, gp.pure3(self.rho_r2(g.g2)))
        out = gp.mul(out, gp.pure2(self.rho_r1(g.g3)))
        out = gp.mul(out, gp.pure1(self.rho_r2(g.g4)))
        return out

    def is_absolute(self, f: Flag) -> bool:
        return (self.rho_point(f.point) == f.line
                and self.rho_line(f.line) == f.point)


# ----------------------------------------------------------------------
# exact linear algebra over K
# ----------------------------------------------------------------------

_L_BASIS = ((L_ONE, L_ZERO), (L_E, L_ZERO), (L_ZERO, L_ONE), (L_ZERO, L_E))


def _solve_columns(cols, rhs):
    """The coefficients c0..c3 with sum c_i cols_i = rhs for four columns
    in L x L, read as K^4 in the basis (1, 0), (e, 0), (0, 1), (0, e);
    None when the columns are dependent."""
    flat = [[z.c0, z.c1, w.c0, w.c1] for z, w in (*cols, rhs)]
    return solve_linear_k([list(row) for row in zip(*flat[:4])], flat[4])


def solve_linear_k(matrix: list[list[KElem]], rhs: list[KElem]):
    """Solve a square system over K by Gauss-Jordan elimination on the
    augmented matrix; None when singular.  KElem fractions are canonical,
    so the solution is exact and unique."""
    n = len(matrix)
    rows = [row + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = rows[col][col].inv()
        rows[col] = pivot = [e * inv for e in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and not f.is_zero():
                # in characteristic 2, subtracting f * pivot is adding it
                rows[r] = [e + f * pe for e, pe in zip(rows[r], pivot)]
    return [row[n] for row in rows]
