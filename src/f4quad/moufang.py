"""The Moufang set on absolute flags, its blocks, and the derived net.

Points are the absolute flags of the polarity: the symbol infinity for
the base flag, and labels [(x,y,a),(u,v,b)] for the images of the zero
flag under the root group at infinity.  A generic element of that root
group is written down in closed form (the generator form, relation (9)
of the README's table): free U1 and U2 parts, derived U3 and U4 parts.

Two independent constructions of the derived parts are kept side by
side: the closed form transcribed verbatim, and a solver that computes
the unique fixed point of conjugation by the polarity over the given
free parts.  Comparing them localises any misprint in the closed form
to a named slot; products are always formed through the solver, which
closes by construction (the fixed subgroup is a subgroup), and a product
whose parts fail to re-embed raises ClosureError.

The group law and the flag tables ask for the same few labels again and
again (an operand, then its product, then that product as the next
operand), so each MoufangSet keeps its last LABEL_CACHE_SIZE generator
elements (`embed`, around the solver `embed_derived`) and absolute flags
(`flag_of_label`) in a `functools.lru_cache` keyed by the label.  Labels
compare by exact canonical coordinates, so a hit returns what the solver
would; the re-embed of a product's label still compares the product with
the derived completion, cached or not.  Labels and the other coordinate
records are slotted dataclasses, immutable by convention like Poly2 and
KElem: a cached element or flag is shared by every caller.

Blocks are never materialised: a sphere or circle is a descriptor with
an exact membership predicate and, if parametrised, a map `point_at`
and a parameter sampler behind the one method `Block.sample`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fields import (K_ONE, L_ZERO, CheckList, KElem, LElem, _first,
                     kprime_member, kscale, phi_k, theta_k)
from .quadrangle import Flag, QLine, Quadrangle
from .rootgroups import InternalConsistencyError, R1Coord, R2Coord, UPlusElem
from .sampling import Rng, sample_k, sample_kprime, sample_l


LABEL_CACHE_SIZE = 8


class ClosureError(InternalConsistencyError):
    """A product left the closed generator form."""


class UnsupportedBlock(NotImplementedError):
    """Circle with a gnarl/through combination outside the known recipes."""


@dataclass(unsafe_hash=True, slots=True)
class MoufangPoint:
    """Either infinity or the label [(x,y,a),(u,v,b)]."""
    r1: R1Coord | None
    r2: R2Coord | None

    @property
    def is_inf(self) -> bool:
        return self.r1 is None

    def __str__(self) -> str:
        if self.is_inf:
            return "inf"
        return f"[{self.r1},{self.r2}]"


class MoufangSet:
    """Label arithmetic, the generator form, and the block geometry."""

    def __init__(self, quad: Quadrangle):
        self.quad = quad
        self.group = quad.group
        self.inst = quad.inst
        g = self.group
        self.infinity = MoufangPoint(None, None)
        self.zero = MoufangPoint(g.r1_zero, g.r2_zero)
        # per instance, as UPlus's comm14 memo; each entry looks the traced
        # embed_derived up on the class when it computes
        self._embeds = lru_cache(maxsize=LABEL_CACHE_SIZE)(
            lambda r1, r2: self.embed_derived(r1, r2))
        self._flags = lru_cache(maxsize=LABEL_CACHE_SIZE)(
            lambda p: self.quad.act(self.quad.zero_flag, self.embed(p)))

    # -- the generator form ------------------------------------------------------

    def embed_verbatim(self, r1: R1Coord, r2: R2Coord) -> UPlusElem:
        """The closed generator form exactly as printed in the relation table."""
        inst = self.inst
        g = self.group
        x, y, a = r1.x, r1.y, r1.b
        u, v, b = r2.u, r2.v, r2.a
        mul = inst.lmul
        phl, thl = inst.phi_l, inst.theta_l
        alpha, beta = inst.alpha, inst.beta
        xbar, ybar = x.conj(), y.conj()
        xth, yth = thl(x), thl(y)
        xbarth, ybarth = thl(xbar), thl(ybar)

        g3x = (kscale(inst.alpha_inv, phl(u)) + kscale(phi_k(a), x)
               + kscale(inst.beta_sq, mul(phl(xbar), y))
               + kscale(alpha * inst.beta_sq, mul(phl(y), ybar)))
        g3y = (kscale(inst.alpha_inv, phl(v)) + kscale(phi_k(a), y)
               + mul(phl(x), x) + kscale(alpha, mul(phl(y), xbar)))
        acc = LElem(theta_k(b) + a * phi_k(a))
        ab = alpha * beta
        acc = acc + kscale(ab, mul(xth, xbarth) + kscale(alpha, mul(yth, ybarth)))
        acc = acc + kscale(ab * beta,
                           mul(y, mul(xbarth, ybarth)) + mul(ybar, mul(xth, yth)))
        acc = acc + kscale(ab, mul(x, mul(xth, ybarth)) + mul(xbar, mul(xbarth, yth)))
        acc = acc + mul(u, xbarth) + mul(u.conj(), xth)
        acc = acc + kscale(alpha, mul(v, ybarth) + mul(v.conj(), yth))
        if not acc.trace().is_zero():
            raise InternalConsistencyError(
                "generator form U3 K-slot has a nonzero trace")
        g3 = R1Coord(g3x, g3y, acc.c0)
        g4 = self.quad.rho_r1(r1)
        return UPlusElem(r1, r2, g.check_r1(g3, "(generator U3 part)"), g4)

    def embed_derived(self, r1: R1Coord, r2: R2Coord) -> UPlusElem:
        """Unique polarity-centralising completion of the free parts.

        Solves rho_star(g) = g for g3, g4 given g1 = r1, g2 = r2; the
        fixed subgroup is exactly the root group at infinity.
        """
        inst = self.inst
        g = self.group
        quad = self.quad
        g4 = quad.rho_r1(r1)
        p2, p3 = g.comm14(r1, g4)
        g3x = inst.phi_l(kscale(inst.beta_inv, r2.u + p2.u))
        g3y = inst.phi_l(kscale(inst.beta_inv, r2.v + p2.v))
        g3b = theta_k(r2.a) + g.comm24(r2, g4).b + p3.b
        g3 = R1Coord(g3x, g3y, g3b)
        elt = UPlusElem(r1, r2, g.check_r1(g3, "(derived U3 part)"), g4)
        # the remaining fixed-point slot must close automatically
        resid = (r2.a + phi_k(g3b) + g.comm13(r1, quad.rho_r2(r2)).a + p2.a)
        if not resid.is_zero():
            raise InternalConsistencyError(
                f"derived generator form is not polarity-centralising: {resid}")
        return elt

    def embed(self, p: MoufangPoint) -> UPlusElem:
        """The generator element of a finite label (the derived form),
        through the label cache (module docstring)."""
        if p.is_inf:
            raise ValueError("infinity has no generator element")
        return self._embeds(p.r1, p.r2)

    def compare_embeddings(self, r1: R1Coord, r2: R2Coord) -> list[tuple]:
        """(slot, difference) for each slot where the printed and the
        derived forms differ; U4's difference is None."""
        a = self.embed_verbatim(r1, r2)
        b = self.embed_derived(r1, r2)
        diffs = [(slot, p + q) for slot, p, q in (("U3.x", a.g3.x, b.g3.x),
                                                 ("U3.y", a.g3.y, b.g3.y),
                                                 ("U3.K", a.g3.b, b.g3.b))
                 if p != q]
        if a.g4 != b.g4:
            diffs.append(("U4", None))
        return diffs

    # -- label arithmetic -----------------------------------------------------------

    def label_of_elem(self, g: UPlusElem) -> MoufangPoint:
        """Free parts of a group element, verified to re-embed exactly."""
        label = MoufangPoint(g.g1, g.g2)
        again = self.embed(label)
        if again != g:
            raise ClosureError(
                f"closure violation: U3/U4 parts of {label} do not match "
                f"the generator form (U3 delta x={g.g3.x + again.g3.x}, "
                f"y={g.g3.y + again.g3.y}, K={g.g3.b + again.g3.b})")
        return label

    def mul(self, p: MoufangPoint, q: MoufangPoint) -> MoufangPoint:
        """Group product in label coordinates."""
        prod = self.group.mul(self.embed(p), self.embed(q))
        return self.label_of_elem(prod)

    def inv(self, p: MoufangPoint) -> MoufangPoint:
        return self.label_of_elem(self.group.inv(self.embed(p)))

    def act(self, p: MoufangPoint, g: MoufangPoint) -> MoufangPoint:
        """Right action on the point set: infinity is fixed, labels translate."""
        if p.is_inf:
            return p
        return self.mul(p, g)

    def solve_translation(self, p: MoufangPoint, q: MoufangPoint) -> MoufangPoint:
        """The unique g with act(p, g) = q (regularity off infinity)."""
        return self.mul(self.inv(p), q)

    def commutator(self, p: MoufangPoint, q: MoufangPoint) -> MoufangPoint:
        return self.label_of_elem(
            self.group.commutator(self.embed(p), self.embed(q)))

    # -- flags ------------------------------------------------------------------------

    def flag_of_label(self, p: MoufangPoint) -> Flag:
        """The absolute flag of a label: the zero flag moved by its
        generator element, through the flag cache (module docstring)."""
        if p.is_inf:
            return self.quad.inf_flag
        return self._flags(p)

    def label_of_flag(self, f: Flag) -> MoufangPoint:
        """Inverse of the labeling: a-slot of the point, k'-slot of the line."""
        if f == self.quad.inf_flag:
            return self.infinity
        if len(f.point.coords) != 3 or len(f.line.coords) != 3:
            raise ValueError(f"not an absolute flag shape: {f}")
        return MoufangPoint(f.point.coords[0], f.line.coords[2])

    # -- blocks -----------------------------------------------------------------------

    def sphere_at_infinity(self, through: MoufangPoint) -> "Block":
        """Gnarl infinity: {inf} u {[through.r1, anything]}."""
        if through.is_inf:
            raise ValueError("through point must differ from the gnarl")
        r1 = through.r1

        def contains(p: MoufangPoint) -> bool:
            return p.is_inf or p.r1 == r1

        return Block("sphere", self.infinity, through, contains,
                     lambda r2: MoufangPoint(r1, r2), self.sample_r2)

    def circle_at_infinity(self, through: MoufangPoint) -> "Block":
        """Gnarl infinity: {inf} u {[r1, (u, v, free)]}."""
        if through.is_inf:
            raise ValueError("through point must differ from the gnarl")
        r1, r2 = through.r1, through.r2

        def contains(p: MoufangPoint) -> bool:
            if p.is_inf:
                return True
            return p.r1 == r1 and p.r2.u == r2.u and p.r2.v == r2.v

        return Block("circle", self.infinity, through, contains,
                     lambda k: MoufangPoint(r1, R2Coord(r2.u, r2.v, k)),
                     sample_kprime)

    def sphere_general(self, gnarl: MoufangPoint, through: MoufangPoint) -> "Block":
        """Sphere by its geometric description: absolute flags whose point
        is collinear with the projection of the through point onto the
        gnarl flag's line."""
        if gnarl == through:
            raise ValueError("gnarl and through must differ")
        gnarl_flag = self.flag_of_label(gnarl)
        through_flag = self.flag_of_label(through)
        centre = self.quad.project(through_flag.point, gnarl_flag.line)
        quad = self.quad

        def contains(p: MoufangPoint) -> bool:
            pt = self.flag_of_label(p).point
            if pt == centre:
                return True
            return quad.collinear(pt, centre) is not None

        return Block("sphere", gnarl, through, contains)

    def circle_general(self, gnarl: MoufangPoint, through: MoufangPoint) -> "Block":
        """Circle with finite gnarl through infinity (coordinate recipe)."""
        if gnarl.is_inf:
            return self.circle_at_infinity(through)
        if not through.is_inf:
            raise UnsupportedBlock(
                "circles with finite gnarl and finite through point have no "
                "general recipe without the opposite root groups")
        inst = self.inst
        x, y, a = gnarl.r1.x, gnarl.r1.y, gnarl.r1.b
        u, v, b = gnarl.r2.u, gnarl.r2.v, gnarl.r2.a
        gauge = a.square() + inst.alpha * (inst.lnorm(x)
                                           + inst.beta_sq * inst.lnorm(y))

        def point_at(k: KElem) -> MoufangPoint:
            if not kprime_member(k):
                raise ValueError("circle parameter must lie in K'")
            return MoufangPoint(R1Coord(x, y, a + k),
                                R2Coord(u, v, b + gauge * phi_k(k)))

        def contains(p: MoufangPoint) -> bool:
            if p.is_inf:
                return True
            if p.r1.x != x or p.r1.y != y or p.r2.u != u or p.r2.v != v:
                return False
            k = p.r1.b + a
            return kprime_member(k) and p == point_at(k)

        return Block("circle", gnarl, through, contains, point_at,
                     sample_kprime)

    # -- the two fully explicit circles --------------------------------------------------

    def special_circle_first(self) -> "Block":
        """The circle with gnarl [0,0] through [(0,0,1),(0,0,0)]; its points
        are parametrised over K and the through point is a parameter limit."""
        gnarl = self.zero
        through = MoufangPoint(R1Coord(L_ZERO, L_ZERO, K_ONE),
                               self.group.r2_zero)

        def point_at(xx: KElem):
            den = K_ONE + xx + phi_k(xx)
            if den.is_zero():
                return None
            aa = xx / den
            bb = (K_ONE + phi_k(xx) + xx.square()).inv()
            return MoufangPoint(R1Coord(L_ZERO, L_ZERO, aa),
                                R2Coord(L_ZERO, L_ZERO, bb))

        def contains(p: MoufangPoint) -> bool:
            if p.is_inf:
                return False
            if p == gnarl or p == through:  # bb = 0: no parameter gives them
                return True
            if not (p.r1.x.is_zero() and p.r1.y.is_zero()
                    and p.r2.u.is_zero() and p.r2.v.is_zero()):
                return False
            aa, bb = p.r1.b, p.r2.a
            if bb.is_zero() or not kprime_member(bb):
                return False
            dd = theta_k(bb).inv()  # bb = phi(1/den)
            xx = aa * dd
            return dd == K_ONE + xx + phi_k(xx)

        return Block("circle", gnarl, through, contains, point_at, sample_k)

    def special_circle_second(self) -> "Block":
        """The circle through [(0,0,1),(0,0,0)] with gnarl [(0,0,0),(0,0,1)]."""
        gnarl = MoufangPoint(self.group.r1_zero,
                             R2Coord(L_ZERO, L_ZERO, K_ONE))
        through = MoufangPoint(R1Coord(L_ZERO, L_ZERO, K_ONE),
                               self.group.r2_zero)

        def point_at(xx: KElem):
            den = K_ONE + xx + xx.square() * phi_k(xx)
            if den.is_zero():
                return None
            aa = den.inv()
            bb = phi_k(xx) / phi_k(den)
            return MoufangPoint(R1Coord(L_ZERO, L_ZERO, aa),
                                R2Coord(L_ZERO, L_ZERO, bb))

        def contains(p: MoufangPoint) -> bool:
            if p.is_inf:
                return False
            if p == self.zero:  # the listed base point of the display
                return True
            if not (p.r1.x.is_zero() and p.r1.y.is_zero()
                    and p.r2.u.is_zero() and p.r2.v.is_zero()):
                return False
            aa, bb = p.r1.b, p.r2.a
            if aa.is_zero() or not kprime_member(bb):
                return False
            xx = theta_k(bb) / aa  # bb = phi(x/den), aa = 1/den
            return (aa * (K_ONE + xx + xx.square() * phi_k(xx))).is_one()

        return Block("circle", gnarl, through, contains, point_at, sample_k)

    # -- the polarity-twisted translation experiment -------------------------------------

    def tau_prime(self, p: MoufangPoint) -> MoufangPoint:
        """[(x,y,a),(u,v,b)] -> [(x,y,a),(u + B x^th, v + x^th, b + a^2th)]."""
        if p.is_inf:
            raise ValueError("tau' is defined away from infinity")
        inst = self.inst
        xth = inst.theta_l(p.r1.x)
        r2 = R2Coord(p.r2.u + kscale(inst.beta, xth),
                     p.r2.v + xth,
                     p.r2.a + phi_k(p.r1.b))
        return MoufangPoint(p.r1, r2)

    def tau_prime_circle_experiment(self, rng: Rng, n: int,
                                    max_degree: int) -> CheckList:
        """Map the first explicit circle through tau' and test each image
        point against the second explicit circle: one sub-check per
        sample point, noted as 'point -> image' when it misses."""
        c2 = self.special_circle_second()
        rep = CheckList()
        for pt in self.special_circle_first().sample(rng, n, max_degree):
            img = self.tau_prime(pt)
            hit = c2.contains(img)
            rep.add("image-on-second-circle", hit, "" if hit else f"{pt} -> {img}")
        return rep

    # -- samplers ---------------------------------------------------------------------------

    def sample_r1(self, rng: Rng, max_degree: int) -> R1Coord:
        inst = self.inst
        return R1Coord(inst.phi_l(sample_l(rng, max_degree)),
                       inst.phi_l(sample_l(rng, max_degree)),
                       sample_k(rng, max_degree))

    def sample_r2(self, rng: Rng, max_degree: int) -> R2Coord:
        return R2Coord(sample_l(rng, max_degree),
                       sample_l(rng, max_degree),
                       sample_kprime(rng, max_degree))

    def sample_label(self, rng: Rng, max_degree: int) -> MoufangPoint:
        return MoufangPoint(self.sample_r1(rng, max_degree),
                            self.sample_r2(rng, max_degree))


class Block:
    """A sphere or circle: descriptor plus membership rule, and for a
    parametrised block the map `point_at` (None where a parameter gives
    no point) with the `sampler(rng, max_degree)` of its parameters."""

    def __init__(self, kind: str, gnarl: MoufangPoint, base: MoufangPoint,
                 contains, point_at=None, sampler=None):
        self.kind = kind
        self.gnarl = gnarl
        self.base = base
        self.contains = contains
        self.point_at = point_at
        self.sampler = sampler

    def sample(self, rng: Rng, n: int, max_degree: int) -> list[MoufangPoint]:
        """n points at sampled parameters, skipping those without a point."""
        if self.sampler is None:
            raise UnsupportedBlock(f"no sampler for the {self}; "
                                   "general spheres enumerate through the "
                                   "coordinate tables")
        out = []
        while len(out) < n:
            pt = self.point_at(self.sampler(rng, max_degree))
            if pt is not None:
                out.append(pt)
        return out

    def __str__(self) -> str:
        return f"{self.kind} gnarl={self.gnarl} base={self.base}"


# ----------------------------------------------------------------------
# the derived geometry at infinity
# ----------------------------------------------------------------------

def derived_net_report(ms: MoufangSet, rng: Rng, samples: int) -> CheckList:
    """Net axioms for the lines at infinity: vertical lines are disjoint,
    a vertical and a non-vertical line meet exactly once, and blocks with
    a common gnarl-first-part form parallel classes."""
    rep = CheckList()
    g = ms.group

    def probe(name, one_sample):
        det = _first(one_sample() for _ in range(samples))
        rep.add(name, det is None, det or "")

    # (i) two distinct vertical lines never intersect
    def common_point():
        r1a, r1b = ms.sample_r1(rng, 1), ms.sample_r1(rng, 1)
        if r1a == r1b:
            return None
        va = ms.sphere_at_infinity(MoufangPoint(r1a, ms.sample_r2(rng, 1)))
        return _first(f"common point {pt}" for pt in va.sample(rng, 3, 1)
                      if not pt.is_inf and pt.r1 == r1b)
    probe("vertical-lines-disjoint", common_point)

    # (ii) vertical meets the base non-vertical block exactly at [(x,y,a),0]
    nonvert = ms.sphere_general(ms.zero, ms.infinity)

    def meeting_miss():
        r1 = ms.sample_r1(rng, 1)
        expected = MoufangPoint(r1, g.r2_zero)
        if not nonvert.contains(expected):
            return f"expected intersection missing: {expected}"
        r2 = ms.sample_r2(rng, 1)
        if not r2.is_zero() and nonvert.contains(MoufangPoint(r1, r2)):
            return f"second intersection {MoufangPoint(r1, r2)}"
        return None
    probe("vertical-meets-nonvertical-once", meeting_miss)

    # (iii) parallel classes: same first part, different second part, disjoint
    def shared_member():
        r2a, r2b = ms.sample_r2(rng, 1), ms.sample_r2(rng, 1)
        if r2a == r2b:
            return None
        blka = ms.sphere_general(MoufangPoint(g.r1_zero, r2a), ms.infinity)
        blkb = ms.sphere_general(MoufangPoint(g.r1_zero, r2b), ms.infinity)
        # members of the first-family block have the shape [(k,l,m), r2a]
        for _ in range(3):
            member = MoufangPoint(ms.sample_r1(rng, 1), r2a)
            if not blka.contains(member):
                return f"displayed member rejected: {member}"
            if blkb.contains(member):
                return f"parallel blocks share {member}"
        return None
    probe("parallel-class-disjoint", shared_member)
    return rep


# ----------------------------------------------------------------------
# reconstruction of the quadrangle from points and spheres
# ----------------------------------------------------------------------

class ReconstructedQuadrangle:
    """The two-sorted structure built from points and spheres of the
    block geometry: each input yields one point and one line, and the
    three incidence rules are evaluated against the stored gnarl data.
    Swapping the two sorts is the structure's polarity."""

    def __init__(self, ms: MoufangSet, points: list[MoufangPoint],
                 spheres: list["Block"], images: list):
        """`images[k]` is the (point, line) pair of `spheres[k]`: the
        projection centre of the sphere's flag, and a line read off that
        flag's coordinates without the polarity."""
        self.ms = ms
        self.points = list(points)
        self.spheres = list(spheres)
        self._flags = {p: ms.flag_of_label(p) for p in self.points}
        self._images = dict(zip(map(id, self.spheres), images))

    def incident(self, point_side, line_side) -> bool:
        """The three rules: labels match; the gnarl names the label; or
        the gnarls are mutually contained and distinct."""
        p_is_label = isinstance(point_side, MoufangPoint)
        l_is_label = isinstance(line_side, MoufangPoint)
        if p_is_label and l_is_label:
            return point_side == line_side
        if p_is_label:
            return line_side.gnarl == point_side
        if l_is_label:
            return point_side.gnarl == line_side
        a, b = point_side, line_side
        return (a.gnarl != b.gnarl and b.contains(a.gnarl)
                and a.contains(b.gnarl))

    def embed_point(self, point_side):
        """Image in the coordinate quadrangle: flag points for labels,
        projection centres for spheres (`embed_line`: flag lines, and
        the lines stored with those centres)."""
        if isinstance(point_side, MoufangPoint):
            return self._flags[point_side].point
        return self._images[id(point_side)][0]

    def embed_line(self, line_side):
        if isinstance(line_side, MoufangPoint):
            return self._flags[line_side].line
        return self._images[id(line_side)][1]


def reconstruct_quadrangle(ms: MoufangSet, rng: Rng,
                           n: int) -> ReconstructedQuadrangle:
    """Sample infinity, n - 1 labels and n spheres; build the structure.

    The sphere sample mixes gnarls at infinity (some reusing a finite
    gnarl's first part, which manufactures genuine incidences of the
    mutual-containment rule) with finite gnarls through infinity, and
    is deduplicated by projection centre.
    """
    points = [ms.infinity] + [ms.sample_label(rng, 1) for _ in range(n - 1)]
    points = list(dict.fromkeys(points))

    blocks: list[Block] = []
    images = []
    finite_gnarls: list[MoufangPoint] = []
    seen_centres = set()
    quad = ms.quad
    while len(blocks) < n:
        gnarl = ms.sample_label(rng, 1) if rng.chance(3, 4) else ms.infinity
        if gnarl.is_inf:
            if finite_gnarls and rng.chance(1, 2):
                r1 = finite_gnarls[rng.below(len(finite_gnarls))].r1
                through = MoufangPoint(r1, ms.sample_r2(rng, 1))
            else:
                through = ms.sample_label(rng, 1)
            blk = ms.sphere_at_infinity(through)
            flag = ms.flag_of_label(through)
            centre = quad.project(flag.point, quad.ln_inf)
            line = QLine(flag.line.coords[:1])
        else:
            blk = ms.sphere_general(gnarl, ms.infinity)
            flag = ms.flag_of_label(gnarl)
            centre = quad.project(quad.pt_inf, flag.line)
            line = QLine(flag.point.coords[:2])
        if centre in seen_centres:
            continue
        seen_centres.add(centre)
        blocks.append(blk)
        images.append((centre, line))
        if not gnarl.is_inf:
            finite_gnarls.append(gnarl)
    return ReconstructedQuadrangle(ms, points, blocks, images)


def reconstruct_report(ms: MoufangSet, rng: Rng, n: int) -> CheckList:
    """Build the reconstruction on n points and n spheres, embed it back.

    The embedding sends a label's point sort to its flag point and its
    line sort to the flag line; a sphere's point sort goes to the
    projection centre and its line sort to a line read off the sphere's
    flag (the flag line's first coordinate for a gnarl at infinity, the
    flag point's first two for a finite gnarl).  All three incidence
    rules must agree with the coordinate quadrangle's incidence through
    this map, and swapping the two sorts must agree with the polarity.
    Every mismatch is a failed sub-check whose note names it.
    """
    quad = ms.quad
    rq = reconstruct_quadrangle(ms, rng, n)
    points, blocks = rq.points, rq.spheres
    rep = CheckList()

    for xp in points[:40]:
        for yp in points[:40]:
            if rq.incident(xp, yp) != quad.incident(rq.embed_point(xp),
                                                    rq.embed_line(yp)):
                rep.add("rule1", False, f"rule1 mismatch at {xp} / {yp}")

    for xp in points[:30]:
        for blk in blocks[:30]:
            if rq.incident(xp, blk) != quad.incident(rq.embed_point(xp),
                                                     rq.embed_line(blk)):
                rep.add("rule2", False,
                        f"rule2 (x_p I A_l) mismatch at {xp}, {blk}")
            if rq.incident(blk, xp) != quad.incident(rq.embed_point(blk),
                                                     rq.embed_line(xp)):
                rep.add("rule2", False,
                        f"rule2 (A_p I x_l) mismatch at {xp}, {blk}")

    rule3 = 0
    limit = min(len(blocks), 25)
    for i in range(limit):
        for j in range(limit):
            want = rq.incident(blocks[i], blocks[j])
            got = quad.incident(rq.embed_point(blocks[i]),
                                rq.embed_line(blocks[j]))
            rule3 += want
            if want != got:
                rep.add("rule3", False, f"rule3 mismatch at spheres {i},{j}")
    rep.add("rule3-exercised", rule3 > 0,
            f"{rule3} mutual-containment incidences" if rule3 else
            "sample too small to exercise the mutual-containment incidence rule")

    # only a pass has a note; a failure adds nothing to the verifier's note
    centres = [rq.embed_point(b) for b in blocks]
    injective = (len(set(centres)) == len(centres)
                 and len(set(points)) == len(points))
    rep.add("injective", injective,
            f"{len(points)} points, {len(blocks)} spheres" if injective else "")

    # interchanging the two sorts is the polarity: line images are the
    # polar duals of point images
    bad = next((xp for xp in points[:40]
                if quad.rho_point(rq.embed_point(xp)) != rq.embed_line(xp)), None)
    rep.add("polarity-consistent-points", bad is None,
            "" if bad is None else f"sort swap differs from the polarity at {bad}")
    bad = next((blk for blk in blocks[:10]
                if quad.rho_point(rq.embed_point(blk)) != rq.embed_line(blk)), None)
    rep.add("polarity-consistent-spheres", bad is None,
            "" if bad is None else "sort swap differs from the polarity at a sphere")
    return rep
