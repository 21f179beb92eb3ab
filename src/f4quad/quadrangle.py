"""The coordinatised generalized quadrangle and its polarity.

Points carry 0 to 3 coordinates ((inf), (a), (k,b), (a,l,a')), lines
dually ([inf], [k], [a,l], [k,b,k']).  The base apartment is the
octagon (inf) I [inf] I (0) I [0,0] I (0,0,0) I [0,0,0] I (0,0) I [0]
I (inf).  The unipotent group U+ fixes the flag {(inf),[inf]} and acts
regularly on the flags opposite it; every element of the quadrangle
lies in the U+ orbit of a base-apartment element, with stabilisers

    (a): U2 U3 U4      [k]: U1 U2 U3     (k,b): U1 U2     [a,l]: U3 U4
    (a,l,a'): U4       [k,b,k']: U1

so each element is a coset against a fixed transversal and the whole
geometry (incidence, projections, collinearity) is computed by group
collection: nothing here is transcribed from coordinate formulas, it
is all derived from the commutator relations at run time.

The two quaternary incidence relations, for instance, reduce to

    (a,l,a') I [k,b,k']  iff  w . m^-1 lies in the set U4 U1

with w, m the point and line transversals, which is tested by
re-collecting u4(c) u1(d) from the candidate's extreme components.

Collinearity and projection invert relation (4) in one argument.  The
solvers hold no copy of it: they evaluate `UPlus.relation4` at the
basis (1,0), (e,0), (0,1), (0,e) of L x L, solve the 4x4 system by
Gauss-Jordan elimination in K (`solve_linear_k`; this module works on
K and L values only, never on their polynomials), and read the last
slot off its additive (U2: c scales it by c^2) or linear (U3)
dependence on the first two.

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
    kind: str  # INF | P1 | P2 | P3
    coords: tuple

    def __str__(self) -> str:
        if self.kind == "INF":
            return "(inf)"
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


@dataclass(unsafe_hash=True, slots=True)
class QLine:
    kind: str  # LINF | L1 | L2 | L3
    coords: tuple

    def __str__(self) -> str:
        if self.kind == "LINF":
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
        self.pt_inf = QPoint("INF", ())
        self.ln_inf = QLine("LINF", ())
        self.zero_point = QPoint("P3", (g.r1_zero, g.r2_zero, g.r1_zero))
        self.zero_line = QLine("L3", (g.r2_zero, g.r1_zero, g.r2_zero))
        self.inf_flag = Flag(self.pt_inf, self.ln_inf)
        self.zero_flag = Flag(self.zero_point, self.zero_line)

    # -- constructors -------------------------------------------------------

    def pt1(self, a: R1Coord) -> QPoint:
        return QPoint("P1", (a,))

    def pt2(self, k: R2Coord, b: R1Coord) -> QPoint:
        return QPoint("P2", (k, b))

    def pt3(self, a: R1Coord, l: R2Coord, a2: R1Coord) -> QPoint:
        return QPoint("P3", (a, l, a2))

    def ln1(self, k: R2Coord) -> QLine:
        return QLine("L1", (k,))

    def ln2(self, a: R1Coord, l: R2Coord) -> QLine:
        return QLine("L2", (a, l))

    def ln3(self, k: R2Coord, b: R1Coord, k2: R2Coord) -> QLine:
        return QLine("L3", (k, b, k2))

    # -- transversals ---------------------------------------------------------

    def point_transversal(self, p: QPoint) -> UPlusElem:
        """u3(a') u2(l) u1(a) collected; the U4 coset representative of p."""
        g = self.group
        a, l, a2 = p.coords
        w = g.mul(g.pure3(a2), g.pure2(l))
        return g.mul(w, g.pure1(a))

    def line_transversal(self, m: QLine) -> UPlusElem:
        """u2(k') u3(b) u4(k), in normal order: m's U1 coset representative."""
        k, b, k2 = m.coords
        return UPlusElem(self.group.r1_zero, k2, b, k)

    # -- group action ------------------------------------------------------------

    def act_point(self, p: QPoint, g: UPlusElem) -> QPoint:
        gp = self.group
        if p.kind == "INF":
            return p
        if p.kind == "P1":
            nf = gp.mul(gp.pure1(p.coords[0]), g)
            return self.pt1(nf.g1)
        if p.kind == "P2":
            k, b = p.coords
            elt = UPlusElem(gp.r1_zero, gp.r2_zero, b, k)
            nf = gp.mul(elt, g)
            return self.pt2(nf.g4, nf.g3)
        nf = gp.mul(self.point_transversal(p), g)
        r = gp.mul(gp.pure4(nf.g4), nf)
        if not r.g4.is_zero():
            raise InternalConsistencyError("point extraction left a U4 part")
        l = r.g2 + gp.comm13(r.g1, r.g3)
        return self.pt3(r.g1, l, r.g3)

    def act_line(self, m: QLine, g: UPlusElem) -> QLine:
        gp = self.group
        if m.kind == "LINF":
            return m
        if m.kind == "L1":
            nf = gp.mul(gp.pure4(m.coords[0]), g)
            return self.ln1(nf.g4)
        if m.kind == "L2":
            a, l = m.coords
            elt = UPlusElem(a, l, gp.r1_zero, gp.r2_zero)
            nf = gp.mul(elt, g)
            q = gp.mul(nf, gp.pure1(nf.g1))
            return self.ln2(nf.g1, q.g2)
        nf = gp.mul(self.line_transversal(m), g)
        return self.ln3(nf.g4, nf.g3, nf.g2)

    def point_on_line(self, m: QLine, d: R1Coord) -> QPoint:
        """The maximal point of the maximal line m with row parameter d."""
        if m.kind != "L3":
            raise ValueError("point rows are for maximal lines")
        base = self.pt3(d, self.group.r2_zero, self.group.r1_zero)
        return self.act_point(base, self.line_transversal(m))

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
        pk, mk = p.kind, m.kind
        if pk == "INF":
            return mk in ("LINF", "L1")
        if pk == "P1":
            if mk == "LINF":
                return True
            return mk == "L2" and m.coords[0] == p.coords[0]
        if pk == "P2":
            if mk == "L1":
                return m.coords[0] == p.coords[0]
            return (mk == "L3" and m.coords[0] == p.coords[0]
                    and m.coords[1] == p.coords[1])
        # maximal point
        if mk == "L2":
            return m.coords[0] == p.coords[0] and m.coords[1] == p.coords[1]
        if mk != "L3":
            return False
        return self._opposite_flag_test(p, m)

    def _opposite_flag_test(self, p: QPoint, m: QLine) -> bool:
        """(a,l,a') I [k,b,k'] iff the transversal quotient lies in U4 U1."""
        g = self.group
        d = g.mul(self.point_transversal(p), g.inv(self.line_transversal(m)))
        e = g.mul(g.pure4(d.g4), g.pure1(d.g1))
        return e == d

    # -- collinearity -----------------------------------------------------------------

    def collinear(self, p: QPoint, q: QPoint):
        """The joining line, or None.  p and q must differ."""
        if p == q:
            raise ValueError("collinearity needs two distinct points")
        a, b = p, q
        order = {"INF": 0, "P1": 1, "P2": 2, "P3": 3}
        if order[a.kind] > order[b.kind]:
            a, b = b, a
        g = self.group
        if a.kind == "INF":
            if b.kind == "P1":
                return self.ln_inf
            if b.kind == "P2":
                return self.ln1(b.coords[0])
            return None
        if a.kind == "P1":
            if b.kind == "P1":
                return self.ln_inf
            if b.kind == "P2":
                return None
            return self.ln2(*b.coords[:2]) if b.coords[0] == a.coords[0] else None
        if a.kind == "P2":
            if b.kind == "P2":
                return self.ln1(a.coords[0]) if a.coords[0] == b.coords[0] else None
            k, kb = a.coords
            pa, pl, pa2 = b.coords
            p2, p3 = g.comm14(pa, k)
            if p3 == pa2 + kb + g.comm24(pl, k):
                return self.ln3(k, kb, pl + g.comm13(pa, pa2) + p2)
            return None
        # both maximal: reduce the first to the zero point
        w = self.point_transversal(a)
        qq = self.act_point(b, g.inv(w))
        qa, ql, qa2 = qq.coords
        if qa.is_zero():
            if ql.is_zero():
                return self.act_line(self.ln2(g.r1_zero, g.r2_zero), w)
            return None
        target = ql + g.comm13(qa, qa2)
        c = self._solve_comm14_u2(qa, target)
        if c is None:
            return None
        if g.comm14(qa, c)[1] != qa2:
            return None
        return self.act_line(self.ln3(c, g.r1_zero, g.r2_zero), w)

    # -- projection -------------------------------------------------------------------

    def project(self, p: QPoint, m: QLine) -> QPoint:
        """The unique point of m collinear with p (p not on m)."""
        if self.incident(p, m):
            raise ValueError(f"projection of an incident pair {p} I {m}")
        g = self.group
        if m.kind == "LINF":
            return self._project_base(p, m.kind)
        # move m to the base line of its kind by its transversal's inverse
        if m.kind == "L1":
            tv = g.pure4(m.coords[0])
        elif m.kind == "L2":
            a, l = m.coords
            tv = UPlusElem(a, l, g.r1_zero, g.r2_zero)
        else:
            tv = self.line_transversal(m)
        q1 = self._project_base(self.act_point(p, g.inv(tv)), m.kind)
        return self.act_point(q1, tv)

    def _project_base(self, p: QPoint, kind: str) -> QPoint:
        g = self.group
        z1, z2 = g.r1_zero, g.r2_zero
        if kind == "LINF":
            if p.kind == "P2":
                return self.pt_inf
            return self.pt1(p.coords[0])  # maximal
        if kind == "L1":  # the line [0]
            if p.kind in ("P1", "P2"):
                return self.pt_inf
            return self.pt2(z2, p.coords[2])
        if kind == "L2":  # the line [0,0]
            if p.kind in ("INF", "P1"):
                return self.pt1(z1)
            if p.kind == "P2":
                return self.pt3(z1, z2, p.coords[1])
            pa, pl, pa2 = p.coords
            if pa.is_zero():
                return self.pt1(z1)
            k = self._solve_comm14_u2(pa, pl + g.comm13(pa, pa2))
            if k is None:
                raise InternalConsistencyError("projection solve failed on [0,0]")
            return self.pt3(z1, z2, pa2 + g.comm14(pa, k)[1])
        # kind == "L3": the line [0,0,0]
        if p.kind == "INF":
            return self.pt2(z2, z1)
        if p.kind == "P1":
            return self.pt3(p.coords[0], z2, z1)
        if p.kind == "P2":
            k, kb = p.coords
            if k.is_zero():
                return self.pt2(z2, z1)
            d = self._solve_comm14_u3(k, kb)
            if d is None:
                raise InternalConsistencyError("projection solve failed on [0,0,0]")
            return self.pt3(d, z2, z1)
        pa, pl, pa2 = p.coords
        if pa2.is_zero():
            return self.pt2(z2, z1)
        if pl.is_zero():
            return self.pt3(pa, z2, z1)
        # shift the U1 slot away, solve, shift back
        shifted_st = (pl.u.is_zero() and pl.v.is_zero()
                      and pa2.x.is_zero() and pa2.y.is_zero())
        if not shifted_st:
            raise ProjectionUnsupported(
                "projection of a maximal point onto a maximal line in general "
                "position needs the opposite root groups, which are out of scope")
        bd = pl.a / pa2.b
        d = R1Coord(L_ZERO, L_ZERO, bd)
        ans = self.pt3(d + pa, z2, z1)
        return ans

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

    def rho_point(self, p: QPoint) -> QLine:
        if p.kind == "INF":
            return self.ln_inf
        if p.kind == "P1":
            return self.ln1(self.rho_r1(p.coords[0]))
        if p.kind == "P2":
            k, b = p.coords
            return self.ln2(self.rho_r2(k), self.rho_r1(b))
        a, l, a2 = p.coords
        return self.ln3(self.rho_r1(a), self.rho_r2(l), self.rho_r1(a2))

    def rho_line(self, m: QLine) -> QPoint:
        if m.kind == "LINF":
            return self.pt_inf
        if m.kind == "L1":
            return self.pt1(self.rho_r2(m.coords[0]))
        if m.kind == "L2":
            a, l = m.coords
            return self.pt2(self.rho_r1(a), self.rho_r2(l))
        k, b, k2 = m.coords
        return self.pt3(self.rho_r2(k), self.rho_r1(b), self.rho_r2(k2))

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

    # -- Suzuki-Tits restriction ------------------------------------------------------------

    def suzuki_tits_member(self, x) -> bool:
        """All L slots of all coordinates vanish."""
        if isinstance(x, Flag):
            return (self.suzuki_tits_member(x.point)
                    and self.suzuki_tits_member(x.line))
        if x.kind in ("INF", "LINF"):
            return True
        for c in x.coords:
            if isinstance(c, R1Coord):
                if not (c.x.is_zero() and c.y.is_zero()):
                    return False
            else:
                if not (c.u.is_zero() and c.v.is_zero()):
                    return False
        return True


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
