"""Check registry, runner and report emitters for the verification CLI.

Every check carries an anchor string naming the defining relation or
coordinate table it exercises (the README's relation table numbers the
defining data (1)-(9); purely structural checks are anchored
"plumbing").  `run` returns a `fields.CheckList` of `fields.Check`, the
record sub-checks use too.  Each `REGISTRY` row is
(name, anchor, tag, fn): `run` calls fn(ctx, rng) with its own stream
rng = Rng(seed * 1000003 + tag), so no two checks share samples and a
check's draws do not depend on which other checks run (tag None: the
check draws from `FieldInstance.validate`'s own Rng(seed)).  Most checks
are trials, trial(ctx, rng) -> note | None, each call one sample drawn
and tested; `_sampled(count)` runs one count(samples) times and fails
with the first note (`fields._first`).  Reports are deterministic for a
fixed configuration: the text body is everything except lines starting
with '#', and the jsonl body is every field except "millis".
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass

from .fields import (K_ONE, K_S, K_ZERO, L_ZERO, Check, CheckList,
                     FieldInstance, LElem, _first, default_instance,
                     kprime_decompose, kprime_member, phi_k, theta_k)
from .moufang import (MoufangPoint, MoufangSet, derived_net_report,
                      reconstruct_report)
from .quadrangle import QLine, QPoint, Quadrangle
from .rootgroups import (InternalConsistencyError, R1Coord, R2Coord, UPlus,
                         UPlusElem)
from .sampling import (Rng, sample_k, sample_k_general, sample_kprime,
                       sample_l, sample_lprime)

SUITES = ["fields", "root-groups", "quadrangle", "moufang", "appendices",
          "reconstruction"]


@dataclass
class SuiteConfig:
    seed: int = 0
    samples: int = 100
    max_degree: int = 3
    suites: tuple = tuple(SUITES)
    survey: bool = False
    instance: FieldInstance | None = None


class RunContext:
    """The objects a run shares, built once when the run starts."""

    def __init__(self, cfg: SuiteConfig):
        self.cfg = cfg
        self.inst = cfg.instance or default_instance()
        self.group = UPlus(self.inst)
        self.quad = Quadrangle(self.group)
        self.ms = MoufangSet(self.quad)


# ----------------------------------------------------------------------
# individual checks: fn(ctx, rng) -> (ok, counterexample-or-None); most
# are trials, trial(ctx, rng) -> note | None, made checks by `_sampled`
# ----------------------------------------------------------------------

def _outcome(rep: CheckList, line=lambda c: f"{c.name}: {c.note}",
             limit: int | None = None):
    """(ok, note) of a sub-check record: the note joins line(c) of the
    first `limit` failed sub-checks with '; ', skipping empty lines."""
    if rep.ok:
        return True, None
    lines = [line(c) for c in rep.checks if not c.passed]
    return False, "; ".join([x for x in lines if x][:limit])


def _sampled(count):
    """Make trial(ctx, rng) -> note | None, one sample drawn and tested,
    a check that runs it count(samples) times and fails with the first
    note, drawing nothing after it."""
    def check(trial):
        def fn(ctx: RunContext, rng: Rng):
            note = _first(trial(ctx, rng)
                          for _ in range(count(ctx.cfg.samples)))
            return note is None, note
        return fn
    return check


@_sampled(lambda n: n)
def _chk_canonical(ctx: RunContext, rng: Rng):
    a = sample_k_general(rng, ctx.cfg.max_degree)
    b = sample_k_general(rng, ctx.cfg.max_degree)
    lhs, rhs = a + b, b + a
    if lhs != rhs or hash(lhs) != hash(rhs):
        return f"a={a}, b={b}"
    if not a.is_zero() and not (a * a.inv()).is_one():
        return f"a={a}"


@_sampled(lambda n: n)
def _chk_field_axioms(ctx: RunContext, rng: Rng):
    inst = ctx.inst
    a = sample_k(rng, ctx.cfg.max_degree)
    b = sample_k(rng, ctx.cfg.max_degree)
    c = sample_k(rng, ctx.cfg.max_degree)
    if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c):
        return f"K triple {a}; {b}; {c}"
    if a * (b + c) != a * b + a * c:
        return f"K distributivity {a}; {b}; {c}"
    z = sample_l(rng, ctx.cfg.max_degree)
    w = sample_l(rng, ctx.cfg.max_degree)
    x = sample_l(rng, ctx.cfg.max_degree)
    if inst.lmul(inst.lmul(z, w), x) != inst.lmul(z, inst.lmul(w, x)):
        return f"L triple {z}; {w}; {x}"
    if inst.lmul(z, w + x) != inst.lmul(z, w) + inst.lmul(z, x):
        return f"L distributivity {z}; {w}; {x}"


@_sampled(lambda n: n)
def _chk_twist_hom(ctx: RunContext, rng: Rng):
    inst = ctx.inst
    a = sample_k(rng, ctx.cfg.max_degree)
    b = sample_k(rng, ctx.cfg.max_degree)
    if phi_k(a + b) != phi_k(a) + phi_k(b) or phi_k(a * b) != phi_k(a) * phi_k(b):
        return f"K pair {a}; {b}"
    z = sample_l(rng, ctx.cfg.max_degree)
    w = sample_l(rng, ctx.cfg.max_degree)
    if inst.phi_l(z + w) != inst.phi_l(z) + inst.phi_l(w):
        return f"L pair {z}; {w}"
    if inst.phi_l(inst.lmul(z, w)) != inst.lmul(inst.phi_l(z), inst.phi_l(w)):
        return f"L pair {z}; {w}"


@_sampled(lambda n: n)
def _chk_twist_square(ctx: RunContext, rng: Rng):
    inst = ctx.inst
    f = sample_k(rng, ctx.cfg.max_degree)
    if phi_k(phi_k(f)) != f.square():
        return f"K sample {f}"
    z = sample_l(rng, ctx.cfg.max_degree)
    if inst.phi_l(inst.phi_l(z)) != inst.lsquare(z):
        return f"L sample {z}"


@_sampled(lambda n: n)
def _chk_theta_roundtrip(ctx: RunContext, rng: Rng):
    inst = ctx.inst
    a = sample_k(rng, ctx.cfg.max_degree)
    if theta_k(phi_k(a)) != a:
        return f"theta(phi({a}))"
    ap = sample_kprime(rng, ctx.cfg.max_degree)
    if phi_k(theta_k(ap)) != ap:
        return f"phi(theta({ap}))"
    z = sample_l(rng, ctx.cfg.max_degree)
    if inst.theta_l(inst.phi_l(z)) != z:
        return f"thetaL(phiL({z}))"
    zp = sample_lprime(inst, rng, ctx.cfg.max_degree)
    if inst.phi_l(inst.theta_l(zp)) != zp:
        return f"phiL(thetaL({zp}))"


@_sampled(lambda n: n)
def _chk_decompose(ctx: RunContext, rng: Rng):
    f = sample_k_general(rng, ctx.cfg.max_degree)
    g, h = kprime_decompose(f)
    if g + K_S * h != f:
        return f"f={f}"
    if (h.is_zero()) != kprime_member(f):
        return f"f={f}"
    if kprime_member(f) and phi_k(theta_k(f)) != f:
        return f"f={f}"


@_sampled(lambda n: n)
def _chk_conj_norm(ctx: RunContext, rng: Rng):
    inst = ctx.inst
    z = sample_l(rng, ctx.cfg.max_degree)
    w = sample_l(rng, ctx.cfg.max_degree)
    if z.conj().conj() != z:
        return f"z={z}"
    if inst.lnorm(inst.lmul(z, w)) != inst.lnorm(z) * inst.lnorm(w):
        return f"z={z}, w={w}"
    zw = inst.lmul(z, z.conj())
    if not zw.c1.is_zero():
        return f"norm left K at z={z}"


@_sampled(lambda n: n)
def _chk_tower(ctx: RunContext, rng: Rng):
    inst = ctx.inst
    a = sample_k(rng, ctx.cfg.max_degree)
    if not kprime_member(a.square()):
        return f"square of {a} outside K'"
    z = sample_l(rng, ctx.cfg.max_degree)
    if not inst.lprime_member(inst.lsquare(z)):
        return f"square of {z} outside L'"
    ap = sample_kprime(rng, ctx.cfg.max_degree)
    if not inst.lprime_member(LElem(ap)):
        return f"K' element {ap} outside L'"


def _chk_instance(ctx: RunContext, rng: Rng | None):
    return _outcome(ctx.inst.validate(seed=ctx.cfg.seed,
                                      samples=max(10, ctx.cfg.samples // 5),
                                      max_degree=min(3, ctx.cfg.max_degree)))


@_sampled(lambda n: 5 * n)
def _chk_anisotropy(ctx: RunContext, rng: Rng):
    inst, deg = ctx.inst, min(2, ctx.cfg.max_degree)
    cx = inst.zero_of_form1(rng, deg)
    if cx is not None:
        return "form1 zero at (%s, %s, %s)" % cx
    cx = inst.zero_of_form2(rng, deg)
    if cx is not None:
        return "form2 zero at (%s, %s, %s)" % cx


@_sampled(lambda n: n // 2)
def _chk_group_identity(ctx: RunContext, rng: Rng):
    g = ctx.group
    ms = ctx.ms
    x = _sample_uplus(ms, rng)
    if g.mul(x, g.identity) != x or g.mul(g.identity, x) != x:
        return f"x={x}"
    xi = g.inv(x)
    if not g.mul(x, xi).is_identity():
        return f"x={x}"
    if not g.mul(xi, x).is_identity():
        return f"x={x}"
    if g.inv(xi) != x:
        return f"x={x}"


def _sample_uplus(ms: MoufangSet, rng: Rng):
    deg = 2
    return UPlusElem(ms.sample_r1(rng, deg), ms.sample_r2(rng, deg),
                     ms.sample_r1(rng, deg), ms.sample_r2(rng, deg))


@_sampled(lambda n: max(n, 3))
def _chk_associativity(ctx: RunContext, rng: Rng):
    g = ctx.group
    ms = ctx.ms
    a = _sample_uplus(ms, rng)
    b = _sample_uplus(ms, rng)
    c = _sample_uplus(ms, rng)
    if g.mul(g.mul(a, b), c) != g.mul(a, g.mul(b, c)):
        return f"a={a}; b={b}; c={c}"


@_sampled(lambda n: n // 2)
def _chk_biadditive(ctx: RunContext, rng: Rng):
    g = ctx.group
    ms = ctx.ms
    p = ms.sample_r1(rng, 2)
    p2 = ms.sample_r1(rng, 2)
    q = ms.sample_r1(rng, 2)
    if g.comm13(p + p2, q) != g.comm13(p, q) + g.comm13(p2, q):
        return f"comm13 at {p}; {p2}; {q}"
    if g.comm13(q, p + p2) != g.comm13(q, p) + g.comm13(q, p2):
        return f"comm13 second arg at {q}; {p}; {p2}"
    r = ms.sample_r2(rng, 2)
    r2 = ms.sample_r2(rng, 2)
    w = ms.sample_r2(rng, 2)
    if g.comm24(r + r2, w) != g.comm24(r, w) + g.comm24(r2, w):
        return f"comm24 at {r}; {r2}; {w}"


@_sampled(lambda n: n // 4)
def _chk_comm_expansion(ctx: RunContext, rng: Rng):
    g = ctx.group
    ms = ctx.ms
    a = g.pure1(ms.sample_r1(rng, 2))
    h1 = g.pure4(ms.sample_r2(rng, 2))
    h2 = g.pure4(ms.sample_r2(rng, 2))
    lhs = g.commutator(a, g.mul(h1, h2))
    rhs = g.mul(g.commutator(a, h2),
                g.conjugate(g.commutator(a, h1), h2))
    if lhs != rhs:
        return f"a={a}; h1={h1}; h2={h2}"


@_sampled(lambda n: n // 4)
def _chk_nilpotency(ctx: RunContext, rng: Rng):
    g = ctx.group
    ms = ctx.ms
    a = _sample_uplus(ms, rng)
    b = _sample_uplus(ms, rng)
    c = _sample_uplus(ms, rng)
    d = _sample_uplus(ms, rng)
    deg2 = g.commutator(a, b)
    deg3 = g.commutator(deg2, c)
    if not g.commutator(deg3, d).is_identity():
        return f"a={a}; b={b}; c={c}; d={d}"
    if g.filtration_degree(deg2) < 2:
        return f"commutator depth at {a}; {b}"
    if g.filtration_degree(deg3) < 3:
        return f"double commutator depth"


@_sampled(lambda n: n // 2)
def _chk_st_subgroup(ctx: RunContext, rng: Rng):
    g = ctx.group
    es = []
    for _ in range(2):
        r1 = R1Coord(L_ZERO, L_ZERO, sample_k(rng, 2))
        r2 = R2Coord(L_ZERO, L_ZERO, sample_kprime(rng, 2))
        r1b = R1Coord(L_ZERO, L_ZERO, sample_k(rng, 2))
        r2b = R2Coord(L_ZERO, L_ZERO, sample_kprime(rng, 2))
        es.append(UPlusElem(r1, r2, r1b, r2b))
    prod = g.mul(es[0], es[1])
    if not g.suzuki_tits_member(prod):
        return f"{es[0]}; {es[1]}"
    if not g.suzuki_tits_member(g.commutator(es[0], es[1])):
        return "commutator left the restriction"


def _chk_base_incidence(ctx: RunContext, rng: Rng):
    q = ctx.quad
    ms = ctx.ms
    k = ms.sample_r2(rng, 2)
    a = ms.sample_r1(rng, 2)
    cases = [
        (q.incident(q.pt_inf, q.ln_inf), True),
        (q.incident(q.pt_inf, QLine((k,))), True),
        (q.incident(QPoint((a,)), q.ln_inf), True),
        (q.incident(QPoint((a,)), QLine((k,))), False),
        (q.incident(QPoint((k, a)), QLine((k,))), True),
        (q.incident(q.zero_point, q.zero_line), True),
        (q.incident(q.zero_point, QLine((ctx.group.r1_zero, ctx.group.r2_zero))), True),
    ]
    for i, (got, want) in enumerate(cases):
        if got != want:
            return False, f"base case {i}"
    return True, None


@_sampled(lambda n: max(3, n // 10))
def _chk_gq_axioms(ctx: RunContext, rng: Rng):
    q = ctx.quad
    ms = ctx.ms
    f = ms.flag_of_label(ms.sample_label(rng, 1))
    m = f.line
    # two distinct points of a line join back to that line only
    pa = q.point_on_line(m, ms.sample_r1(rng, 1))
    pb = q.point_on_line(m, ms.sample_r1(rng, 1))
    if pa != pb and q.collinear(pa, pb) != m:
        return f"points of {m} join elsewhere"
    # projections from the supported configurations land and join
    for p in (q.pt_inf, QPoint((ms.sample_r1(rng, 1),)),
              QPoint((ms.sample_r2(rng, 1), ms.sample_r1(rng, 1)))):
        if q.incident(p, m):
            continue
        foot = q.project(p, m)
        if not q.incident(foot, m):
            return f"projection of {p} off the line {m}"
        if q.collinear(p, foot) is None:
            return f"projection of {p} not collinear"
    # scan witness: a maximal point in general position sees exactly
    # one point among a sampled stretch of the line's point row
    outside = ms.flag_of_label(ms.sample_label(rng, 1)).point
    if not q.incident(outside, m):
        row = [QPoint(m.coords[:2])]
        row += [q.point_on_line(m, ms.sample_r1(rng, 1)) for _ in range(4)]
        hits = sum(1 for cand in row if cand != outside
                   and q.collinear(outside, cand) is not None)
        if hits > 1:
            return f"two feet on {m} from {outside}"


@_sampled(lambda n: n // 4)
def _chk_action_laws(ctx: RunContext, rng: Rng):
    q = ctx.quad
    g = ctx.group
    ms = ctx.ms
    x = _sample_uplus(ms, rng)
    y = _sample_uplus(ms, rng)
    f = ms.flag_of_label(ms.sample_label(rng, 1))
    p, m = f.point, f.line
    if q.act_point(p, g.identity) != p:
        return f"identity action on {p}"
    if q.act_point(q.act_point(p, x), y) != q.act_point(p, g.mul(x, y)):
        return f"composition on {p}"
    if q.act_line(q.act_line(m, x), y) != q.act_line(m, g.mul(x, y)):
        return f"composition on {m}"
    if q.incident(p, m) != q.incident(q.act_point(p, x), q.act_line(m, x)):
        return f"incidence not preserved at {p}, {m}"


@_sampled(lambda n: n // 5)
def _chk_projection_examples(ctx: RunContext, rng: Rng):
    q = ctx.quad
    ms = ctx.ms
    f = ms.flag_of_label(ms.sample_label(rng, 1))
    m = f.line
    kb = QPoint(m.coords[:2])
    if q.project(q.pt_inf, m) != kb:
        return f"projection of (inf) onto {m}"
    got = q.project(f.point, q.ln_inf)
    if got != QPoint(f.point.coords[:1]):
        return f"projection of {f.point} onto [inf]"


@_sampled(lambda n: n // 4)
def _chk_polarity_involution(ctx: RunContext, rng: Rng):
    q = ctx.quad
    ms = ctx.ms
    f = ms.flag_of_label(ms.sample_label(rng, 1))
    a = f.point.coords[0]
    k = f.line.coords[0]
    pts = [q.pt_inf, QPoint((a,)), QPoint((k, f.line.coords[1])), f.point]
    lns = [q.ln_inf, QLine((k,)), QLine((a, f.point.coords[1])), f.line]
    for p in pts:
        if q.rho_line(q.rho_point(p)) != p:
            return f"rho^2 on point {p}"
    for m in lns:
        if q.rho_point(q.rho_line(m)) != m:
            return f"rho^2 on line {m}"
    for p in pts:
        for m in lns:
            if q.incident(p, m) != q.incident(q.rho_line(m), q.rho_point(p)):
                return f"incidence reversal at {p}, {m}"


@_sampled(lambda n: n // 4)
def _chk_rho_star_hom(ctx: RunContext, rng: Rng):
    q = ctx.quad
    g = ctx.group
    ms = ctx.ms
    x = _sample_uplus(ms, rng)
    y = _sample_uplus(ms, rng)
    if q.rho_star(g.mul(x, y)) != g.mul(q.rho_star(x), q.rho_star(y)):
        return f"x={x}; y={y}"


def _chk_absolute_flags(ctx: RunContext, rng: Rng):
    q = ctx.quad
    if not q.is_absolute(q.inf_flag) or not q.is_absolute(q.zero_flag):
        return False, "base or zero flag not absolute"
    ms = ctx.ms
    for _ in range(ctx.cfg.samples // 2):
        f = ms.flag_of_label(ms.sample_label(rng, 1))
        if not q.is_absolute(f):
            return False, f"flag {f}"
    return True, None


@_sampled(lambda n: n // 2)
def _chk_labeling(ctx: RunContext, rng: Rng):
    ms = ctx.ms
    lab = ms.sample_label(rng, 1)
    f = ms.flag_of_label(lab)
    if ms.label_of_flag(f) != lab:
        return f"label {lab}"


@_sampled(lambda n: max(n, 3))
def _chk_eq9_closure(ctx: RunContext, rng: Rng):
    ms = ctx.ms
    p = ms.sample_label(rng, 1)
    q = ms.sample_label(rng, 1)
    # a ClosureError localises the failure; any other crash reads error
    try:
        ms.mul(p, q)
    except InternalConsistencyError as exc:
        return str(exc)


def _chk_eq9_verbatim(ctx: RunContext, rng: Rng):
    """Adjudicate the printed generator form against the derived one.

    The check succeeds when it reaches a definite verdict: either the
    two coincide, or the deviation is localised to a single named slot
    while the derived completion still closes (the misprint verdict).
    """
    ms = ctx.ms
    diffs_seen: set[str] = set()
    example = ""
    for _ in range(ctx.cfg.samples // 2):
        lab = ms.sample_label(rng, 1)
        for slot, d in ms.compare_embeddings(lab.r1, lab.r2):
            diffs_seen.add(slot)
            if not example:
                by = "" if d is None else f" by {d}"
                example = f"{lab}: {slot} differs{by}"
    if not diffs_seen:
        return True, "printed form and derived completion coincide"
    verdict = (f"printed form deviates from the polarity-centralising "
               f"completion in slot(s) {sorted(diffs_seen)}; {example}")
    if len(diffs_seen) == 1:
        return True, "misprint verdict: " + verdict
    return False, "unlocalised deviation: " + verdict


@_sampled(lambda n: n // 4)
def _chk_regularity(ctx: RunContext, rng: Rng):
    ms = ctx.ms
    p = ms.sample_label(rng, 1)
    q = ms.sample_label(rng, 1)
    g = ms.solve_translation(p, q)
    if ms.act(p, g) != q:
        return f"p={p}, q={q}"
    if ms.act(ms.infinity, g) != ms.infinity:
        return "infinity moved"


@_sampled(lambda n: n // 4)
def _chk_derived_shapes(ctx: RunContext, rng: Rng):
    ms = ctx.ms
    p = ms.sample_label(rng, 1)
    q = ms.sample_label(rng, 1)
    c = ms.commutator(p, q)
    if not c.r1.is_zero():
        return f"[U,U] label with nonzero first part: {c}"
    r = ms.sample_label(rng, 1)
    cc = ms.commutator(r, c)
    if not (cc.r1.is_zero() and cc.r2.u.is_zero() and cc.r2.v.is_zero()):
        return f"[U,[U,U]] label off-centre: {cc}"
    s = ms.sample_label(rng, 1)
    ccc = ms.commutator(s, cc)
    if not (ccc.r1.is_zero() and ccc.r2.is_zero()):
        return "class 3 violated at group level"


@_sampled(lambda n: max(2, n // 10))
def _chk_block_transport(ctx: RunContext, rng: Rng):
    ms = ctx.ms
    through = ms.sample_label(rng, 1)
    g = ms.sample_label(rng, 1)
    moved = ms.act(through, g)
    sph = ms.sphere_at_infinity(through)
    img = ms.sphere_at_infinity(moved)
    for pt in sph.sample(rng, 4, 1):
        if not img.contains(ms.act(pt, g)):
            return f"sphere transport at {pt}"
    circ = ms.circle_at_infinity(through)
    imgc = ms.circle_at_infinity(moved)
    for pt in circ.sample(rng, 4, 1):
        if not imgc.contains(ms.act(pt, g)):
            return f"circle transport at {pt}"


@_sampled(lambda n: n // 4)
def _chk_st_moufang(ctx: RunContext, rng: Rng):
    ms = ctx.ms
    p = MoufangPoint(R1Coord(L_ZERO, L_ZERO, sample_k(rng, 2)),
                     R2Coord(L_ZERO, L_ZERO, sample_kprime(rng, 2)))
    g = MoufangPoint(R1Coord(L_ZERO, L_ZERO, sample_k(rng, 2)),
                     R2Coord(L_ZERO, L_ZERO, sample_kprime(rng, 2)))
    img = ms.act(p, g)
    if not (img.r1.x.is_zero() and img.r1.y.is_zero()
            and img.r2.u.is_zero() and img.r2.v.is_zero()):
        return f"restriction left at {p}, {g}"


@_sampled(lambda n: max(2, n // 10))
def _chk_sphere_pair_bound(ctx: RunContext, rng: Rng):
    ms = ctx.ms
    r2a = ms.sample_r2(rng, 1)
    r2b = ms.sample_r2(rng, 1)
    if r2a == r2b:
        return None
    blka = ms.sphere_general(MoufangPoint(ms.group.r1_zero, r2a), ms.infinity)
    blkb = ms.sphere_general(MoufangPoint(ms.group.r1_zero, r2b), ms.infinity)
    shared = 0
    for _ in range(6):
        member = MoufangPoint(ms.sample_r1(rng, 1), r2a)
        if blka.contains(member) and blkb.contains(member):
            shared += 1
    if shared > 1:
        return f"blocks share {shared} sampled points besides inf"


@_sampled(lambda n: max(2, n // 20))
def _chk_appendix_a(ctx: RunContext, rng: Rng):
    ms = ctx.ms
    g = ms.group
    e1 = R1Coord(L_ZERO, L_ZERO, K_ONE)
    uvb = ms.sample_r2(rng, 1)
    blk0 = ms.sphere_general(MoufangPoint(g.r1_zero, uvb), ms.infinity)
    blk1 = ms.sphere_general(MoufangPoint(e1, uvb), ms.infinity)
    if not blk0.contains(ms.infinity) or not blk1.contains(ms.infinity):
        return "infinity missing from a sphere"
    for _ in range(5):
        klm = ms.sample_r1(rng, 1)
        if not blk0.contains(MoufangPoint(klm, uvb)):
            return f"first table member rejected: {klm}"
        shift = ctx.quad.rho_r1(klm)
        member = MoufangPoint(R1Coord(klm.x, klm.y, klm.b + K_ONE),
                              uvb + shift)
        if not blk1.contains(member):
            return f"second table member rejected: {member}"
        off = MoufangPoint(R1Coord(klm.x, klm.y, klm.b + K_ONE),
                           uvb + shift + R2Coord(L_ZERO, L_ZERO, K_ONE))
        if blk1.contains(off):
            return f"perturbed point accepted: {off}"


@_sampled(lambda n: max(2, n // 20))
def _chk_appendix_a_translate(ctx: RunContext, rng: Rng):
    ms = ctx.ms
    g = ms.group
    e1 = R1Coord(L_ZERO, L_ZERO, K_ONE)
    mover = MoufangPoint(e1, g.r2_zero)
    uvb0 = ms.sample_r2(rng, 1)
    src = ms.sphere_general(MoufangPoint(g.r1_zero, uvb0), ms.infinity)
    gnarl_img = ms.act(MoufangPoint(g.r1_zero, uvb0), mover)
    dst = ms.sphere_general(gnarl_img, ms.infinity)
    for _ in range(5):
        member = MoufangPoint(ms.sample_r1(rng, 1), uvb0)
        if not src.contains(member):
            return "source table member rejected"
        if not dst.contains(ms.act(member, mover)):
            return f"translate missing {member}"


@_sampled(lambda n: max(2, n // 20))
def _chk_appendix_b_circles(ctx: RunContext, rng: Rng):
    ms = ctx.ms
    gn = ms.sample_label(rng, 1)
    blk = ms.circle_general(gn, ms.infinity)
    if not blk.contains(ms.infinity) or not blk.contains(gn):
        return f"gnarl/infinity missing from circle at {gn}"
    for pt in blk.sample(rng, 5, 1):
        if not blk.contains(pt):
            return f"generated circle point rejected: {pt}"
    probe = MoufangPoint(pt.r1, R2Coord(pt.r2.u, pt.r2.v, pt.r2.a + K_ONE))
    if blk.contains(probe):
        return f"perturbed circle point accepted: {probe}"


def _chk_special_circles(ctx: RunContext, rng: Rng):
    ms = ctx.ms
    c1 = ms.special_circle_first()
    p_at_1 = c1.point_at(K_ONE)
    want1 = MoufangPoint(R1Coord(L_ZERO, L_ZERO, K_ONE),
                         R2Coord(L_ZERO, L_ZERO, K_ONE))
    if p_at_1 != want1:
        return False, f"first circle at parameter 1: {p_at_1}"
    p_at_0 = c1.point_at(K_ZERO)
    if p_at_0.r1.b != K_ZERO or p_at_0.r2.a != K_ONE:
        return False, f"first circle at parameter 0: {p_at_0}"
    if not c1.contains(p_at_1) or not c1.contains(p_at_0):
        return False, "membership test rejects generated points"
    c2 = ms.special_circle_second()
    for pt in c2.sample(rng, 8, ctx.cfg.max_degree):
        if not c2.contains(pt):
            return False, f"second circle rejects {pt}"
    return True, None


def _chk_tau_prime(ctx: RunContext, rng: Rng):
    ms = ctx.ms
    if ms.tau_prime(ms.zero) != ms.zero:
        return False, "tau' moved the zero label"
    for _ in range(ctx.cfg.samples // 4):
        p = ms.sample_label(rng, 1)
        if ms.tau_prime(ms.tau_prime(p)) != p:
            return False, f"tau' not involutive at {p}"
    rep = ms.tau_prime_circle_experiment(rng, max(10, ctx.cfg.samples // 5),
                                         ctx.cfg.max_degree)
    # the experiment is reported, not asserted; only degenerate totals fail
    if not rep.checks:
        return False, "experiment produced no sample points"
    missed = [c.note for c in rep.checks if not c.passed]
    return True, (f"tau' image vs second explicit circle: "
                  f"{len(rep.checks) - len(missed)} matched, {len(missed)} "
                  f"unmatched of {len(rep.checks)}"
                  + (f"; e.g. {missed[0]}" if missed else ""))


def _chk_net(ctx: RunContext, rng: Rng):
    return _outcome(derived_net_report(ctx.ms, rng, max(5, ctx.cfg.samples // 10)))


def _chk_reconstruction(ctx: RunContext, rng: Rng):
    return _outcome(reconstruct_report(ctx.ms, rng, max(12, ctx.cfg.samples // 5)),
                    line=lambda c: c.note, limit=3)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

REGISTRY: dict[str, list[tuple[str, str, int | None, object]]] = {
    "fields": [
        ("canonical-forms", "plumbing", 1, _chk_canonical),
        ("field-axioms", "plumbing", 2, _chk_field_axioms),
        ("twist-homomorphism", "twist endomorphism", 3, _chk_twist_hom),
        ("twist-squared-is-frobenius", "twist endomorphism", 4, _chk_twist_square),
        ("theta-roundtrips", "twist endomorphism", 5, _chk_theta_roundtrip),
        ("kprime-decompose", "subfield tower", 6, _chk_decompose),
        ("conjugation-and-norm", "quadratic extension", 7, _chk_conj_norm),
        ("tower-inclusions", "subfield tower", 8, _chk_tower),
        ("instance-validation", "anisotropy conditions", None, _chk_instance),
        ("anisotropy-probe", "anisotropy conditions", 9, _chk_anisotropy),
    ],
    "root-groups": [
        ("identity-and-inverses", "Eqs. (1)-(4)", 10, _chk_group_identity),
        ("associativity", "Eqs. (1)-(4)", 11, _chk_associativity),
        ("commutator-biadditivity", "Eqs. (2)-(3)", 12, _chk_biadditive),
        ("commutator-expansion", "Eq. (4)", 13, _chk_comm_expansion),
        ("nilpotency-class-3", "lower central series", 14, _chk_nilpotency),
        ("suzuki-tits-subgroup", "Suzuki-Tits restriction", 15, _chk_st_subgroup),
    ],
    "quadrangle": [
        ("base-incidences", "coordinatisation", 16, _chk_base_incidence),
        ("quadrangle-axioms", "coordinatisation", 17, _chk_gq_axioms),
        ("action-laws", "Eqs. (1)-(4)", 18, _chk_action_laws),
        ("projection-closed-forms", "coordinatisation", 19, _chk_projection_examples),
        ("polarity-involution", "Eqs. (5)-(8)", 20, _chk_polarity_involution),
        ("polarity-group-twist", "Eqs. (5)-(8)", 21, _chk_rho_star_hom),
        ("absolute-flags", "Eqs. (5)-(8)", 22, _chk_absolute_flags),
    ],
    "moufang": [
        ("flag-labeling", "Eq. (9)", 23, _chk_labeling),
        ("generator-closure-derived", "Eq. (9)", 24, _chk_eq9_closure),
        ("generator-verbatim-adjudication", "Eq. (9)", 25, _chk_eq9_verbatim),
        ("regular-translation", "Moufang set axioms", 26, _chk_regularity),
        ("derived-subgroup-shapes", "derived subgroups", 27, _chk_derived_shapes),
        ("block-transport", "sphere and circle orbits", 28, _chk_block_transport),
        ("suzuki-tits-sub-moufang-set", "Suzuki-Tits restriction", 29, _chk_st_moufang),
        ("two-spheres-bound", "net structure", 30, _chk_sphere_pair_bound),
    ],
    "appendices": [
        ("sphere-tables", "sphere coordinate tables", 31, _chk_appendix_a),
        ("sphere-translates", "sphere coordinate tables", 32, _chk_appendix_a_translate),
        ("circle-with-finite-gnarl", "circle coordinate tables", 33, _chk_appendix_b_circles),
        ("explicit-circles", "circle coordinate tables", 34, _chk_special_circles),
        ("polarity-twisted-translation", "circle coordinate tables", 35, _chk_tau_prime),
    ],
    "reconstruction": [
        ("net-axioms", "net lemma", 36, _chk_net),
        ("quadrangle-reconstruction", "reconstruction rules", 37, _chk_reconstruction),
    ],
}


def run(cfg: SuiteConfig) -> CheckList:
    """Execute the selected suites in dependency order."""
    report = CheckList()
    ctx = RunContext(cfg)
    prerequisites_ok = True
    for suite in SUITES:
        if suite not in cfg.suites:
            continue
        for name, anchor, tag, fn in REGISTRY[suite]:
            if not prerequisites_ok and not cfg.survey:
                report.checks.append(Check(name, "skip", None, suite, anchor))
                continue
            t0 = time.perf_counter()
            try:
                rng = None if tag is None else Rng(cfg.seed * 1000003 + tag)
                ok, extra = fn(ctx, rng)
                status = "pass" if ok else "fail"
            except Exception as exc:  # a crash: type, where and message
                at = traceback.extract_tb(exc.__traceback__)[-1]
                status = "error"
                extra = (f"{type(exc).__name__} at {os.path.basename(at.filename)}"
                         f":{at.lineno}: {exc}")
            ms = (time.perf_counter() - t0) * 1000.0
            report.checks.append(Check(name, status, extra if status != "pass"
                                       else (extra or None), suite, anchor, ms))
        if any(r.failed and r.suite == suite for r in report.checks):
            prerequisites_ok = False
    return report


def emit_text(report: CheckList) -> str:
    """Table per suite; '#' lines carry timing and are not part of the body."""
    lines = []
    current = None
    total_ms = 0.0
    for r in report.checks:
        if r.suite != current:
            current = r.suite
            lines.append(f"== {current} ==")
        line = f"{r.status:<5} {r.name}  anchor={r.anchor}"
        if r.note:
            line += f"  note={r.note}"
        lines.append(line)
        total_ms += r.millis
    p, f, s = report.counts()
    lines.append(f"summary: {p} passed, {f} failed, {s} skipped")
    lines.append(f"# timing: {total_ms:.0f} ms total")
    return "\n".join(lines) + "\n"


def emit_jsonl(report: CheckList) -> str:
    out = []
    for r in report.checks:
        out.append(json.dumps({
            "suite": r.suite,
            "name": r.name,
            "anchor": r.anchor,
            "status": r.status,
            "counterexample": r.note,
            "millis": round(r.millis, 3),
        }, sort_keys=True))
    return "\n".join(out) + "\n"


def report_body(text: str, fmt: str) -> str:
    """The deterministic part of an emitted report."""
    if fmt == "text":
        return "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    lines = []
    for l in text.splitlines():
        rec = json.loads(l)
        rec.pop("millis", None)
        lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines)
