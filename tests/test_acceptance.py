"""Acceptance criteria, one test per criterion, exact equality throughout.

Each test prints one line `ACCEPTANCE <n>: PASS ...` on success; the
stated wall-clock budgets are asserted (default instance, seed 0).
"""

import time

import pytest

from f4quad.cli import main
from f4quad.fields import (K_ONE, K_ZERO, L_ZERO, default_instance, kscale,
                           phi_k, theta_k)
from f4quad.moufang import (MoufangPoint, MoufangSet, derived_net_report,
                            reconstruct_report)
from f4quad.quadrangle import QLine, QPoint, Quadrangle
from f4quad.rootgroups import R1Coord, R2Coord, UPlus, UPlusElem
from f4quad.sampling import (Rng, sample_k, sample_kprime, sample_l,
                             sample_lprime)
from f4quad.verifier import report_body
from mutants import eq3_slot_2_mul

LZ = L_ZERO
ONE = K_ONE


@pytest.fixture(scope="module")
def world():
    inst = default_instance()
    group = UPlus(inst)
    quad = Quadrangle(group)
    ms = MoufangSet(quad)
    return inst, group, quad, ms


def budget(name, t0, limit):
    dt = time.time() - t0
    print(f"ACCEPTANCE {name}: PASS ({dt:.1f}s, budget {limit}s)")
    assert dt < limit, f"{name} exceeded its {limit}s budget ({dt:.1f}s)"


def rand_elem(ms, rng, deg=1):
    return UPlusElem(ms.sample_r1(rng, deg), ms.sample_r2(rng, deg),
                     ms.sample_r1(rng, deg), ms.sample_r2(rng, deg))


def test_criterion_01_tits_law(world):
    inst, group, quad, ms = world
    t0 = time.time()
    rng = Rng(0)
    for _ in range(100):
        f = sample_k(rng, 3)
        assert phi_k(phi_k(f)) == f.square()
        assert theta_k(phi_k(f)) == f
        fp = phi_k(sample_k(rng, 3))
        assert phi_k(theta_k(fp)) == fp
        z = sample_l(rng, 3)
        assert inst.phi_l(inst.phi_l(z)) == inst.lsquare(z)
    budget("1 (twist law)", t0, 5)


def test_criterion_02_anisotropy_probe(world):
    inst, group, quad, ms = world
    t0 = time.time()
    rng = Rng(0)
    for _ in range(10000):
        u, v = sample_l(rng, 2), sample_l(rng, 2)
        a = sample_kprime(rng, 2)
        if not (u.is_zero() and v.is_zero() and a.is_zero()):
            assert not inst.form1(u, v, a).is_zero(), (u, v, a)
        x = sample_lprime(inst, rng, 2)
        y = sample_lprime(inst, rng, 2)
        b = sample_k(rng, 2)
        if not (x.is_zero() and y.is_zero() and b.is_zero()):
            assert not inst.form2(x, y, b).is_zero(), (x, y, b)
    budget("2 (anisotropy evidence, not proof)", t0, 30)


def test_criterion_03_associativity_adjudication(world):
    inst, group, quad, ms = world
    t0 = time.time()
    rng = Rng(0)
    for _ in range(200):
        a, b, c = (rand_elem(ms, rng) for _ in range(3))
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
    def alt(g, h):  # the slot-2 reading of relation (3)
        return eq3_slot_2_mul(group, g, h)

    rng = Rng(0)
    counterexample = None
    for _ in range(200):
        a, b, c = (rand_elem(ms, rng) for _ in range(3))
        if alt(alt(a, b), c) != alt(a, alt(b, c)):
            counterexample = (a, b, c)
            break
    assert counterexample is not None, \
        "the alternative correction slot must produce a counterexample"
    budget("3 (associativity adjudicates the correction slot)", t0, 30)


def test_criterion_04_polarity_involution(world):
    inst, group, quad, ms = world
    t0 = time.time()
    rng = Rng(0)
    for _ in range(100):
        f = ms.flag_of_label(ms.sample_label(rng, 1))
        pts = [quad.pt_inf, QPoint(f.point.coords[:1]),
               QPoint(f.line.coords[:2]), f.point]
        lns = [quad.ln_inf, QLine(f.line.coords[:1]),
               QLine(f.point.coords[:2]), f.line]
        for p in pts:
            assert quad.rho_line(quad.rho_point(p)) == p
        for m in lns:
            assert quad.rho_point(quad.rho_line(m)) == m
        for p, m in zip(pts, lns):
            if quad.incident(p, m):
                assert quad.incident(quad.rho_line(m), quad.rho_point(p))
        assert quad.incident(quad.rho_line(f.line), quad.rho_point(f.point))
    budget("4 (polarity involution and incidence reversal)", t0, 20)


def test_criterion_05_absolute_flag_labeling(world):
    inst, group, quad, ms = world
    t0 = time.time()
    rng = Rng(0)
    for _ in range(100):
        lab = ms.sample_label(rng, 1)
        flag = quad.act(quad.zero_flag, ms.embed(lab))
        assert quad.is_absolute(flag)
        assert ms.label_of_flag(flag) == lab
    budget("5 (generator element labels the absolute flags)", t0, 30)


def test_criterion_06_generator_closure(world):
    """Products of generator elements re-extract to the closed form.

    The printed form carries a localised misprint (U3 K-slot coefficient
    alpha beta for a beta), so the verbatim closure fails in a documented
    way; the polarity-centralising completion closes exactly, which is
    the corrected-closure deliverable."""
    inst, group, quad, ms = world
    t0 = time.time()
    rng = Rng(0)
    for _ in range(200):
        p, q = ms.sample_label(rng, 1), ms.sample_label(rng, 1)
        assert ms.mul(p, q) is not None  # derived closure is exact
    # the printed form: a product of its elements against the printed
    # form of the product's own free parts
    rng = Rng(0)
    slots = set()
    for _ in range(50):
        p, q = ms.sample_label(rng, 1), ms.sample_label(rng, 1)
        prod = group.mul(ms.embed_verbatim(p.r1, p.r2),
                         ms.embed_verbatim(q.r1, q.r2))
        again = ms.embed_verbatim(prod.g1, prod.g2)
        slots = {name for name, x, y in (
            ("U1", again.g1, prod.g1), ("U2", again.g2, prod.g2),
            ("U3.x", again.g3.x, prod.g3.x), ("U3.y", again.g3.y, prod.g3.y),
            ("U3.K", again.g3.b, prod.g3.b), ("U4", again.g4, prod.g4))
            if x != y}
        if slots:
            break
    if not slots:
        print("ACCEPTANCE 6: printed generator form closes verbatim")
    else:
        assert slots == {"U3.K"}, f"failure not localised: {slots}"
        print("ACCEPTANCE 6: verbatim closure fails, localised to the U3 "
              "K-slot (documented misprint); corrected closure passes")
    budget("6 (generator-form closure)", t0, 30)


def test_criterion_07_commutator_filtration(world):
    inst, group, quad, ms = world
    t0 = time.time()
    rng = Rng(0)
    for _ in range(40):
        p, q = ms.sample_label(rng, 1), ms.sample_label(rng, 1)
        c = ms.commutator(p, q)
        assert c.r1.is_zero()
        r = ms.sample_label(rng, 1)
        cc = ms.commutator(r, c)
        assert cc.r1.is_zero() and cc.r2.u.is_zero() and cc.r2.v.is_zero()
        s = ms.sample_label(rng, 1)
        assert ms.commutator(s, cc) == ms.zero
    budget("7 (derived-subgroup shapes)", t0, 20)


def test_criterion_08_sphere_tables(world):
    inst, group, quad, ms = world
    t0 = time.time()
    rng = Rng(0)
    e1 = R1Coord(LZ, LZ, ONE)
    mover = MoufangPoint(e1, group.r2_zero)
    for _ in range(2):
        uvb = ms.sample_r2(rng, 1)
        blk0 = ms.sphere_general(MoufangPoint(group.r1_zero, uvb), ms.infinity)
        blk1 = ms.sphere_general(MoufangPoint(e1, uvb), ms.infinity)
        assert blk0.contains(ms.infinity) and blk1.contains(ms.infinity)
        for _ in range(50):
            klm = ms.sample_r1(rng, 1)
            assert blk0.contains(MoufangPoint(klm, uvb))
            shift = R2Coord(kscale(inst.beta, inst.theta_l(klm.x)),
                            kscale(inst.beta, inst.theta_l(klm.y)),
                            phi_k(klm.b))
            member = MoufangPoint(R1Coord(klm.x, klm.y, klm.b + ONE),
                                  uvb + shift)
            assert blk1.contains(member)
        # the shifted-gnarl sphere is a group translate of a base one
        src = ms.sphere_general(MoufangPoint(group.r1_zero, uvb), ms.infinity)
        dst = ms.sphere_general(ms.act(MoufangPoint(group.r1_zero, uvb),
                                       mover), ms.infinity)
        for _ in range(10):
            member = MoufangPoint(ms.sample_r1(rng, 1), uvb)
            assert src.contains(member)
            assert dst.contains(ms.act(member, mover))
    budget("8 (sphere coordinate tables)", t0, 60)


def test_criterion_09_circle_tables(world):
    inst, group, quad, ms = world
    t0 = time.time()
    rng = Rng(0)
    gn = ms.sample_label(rng, 1)
    blk = ms.circle_general(gn, ms.infinity)
    for _ in range(50):
        pt = blk.sample(rng, 1, 1)[0]
        assert blk.contains(pt)
    c1 = ms.special_circle_first()
    assert c1.point_at(ONE) == MoufangPoint(R1Coord(LZ, LZ, ONE),
                                            R2Coord(LZ, LZ, ONE))
    assert c1.point_at(K_ZERO) == MoufangPoint(
        R1Coord(LZ, LZ, K_ZERO), R2Coord(LZ, LZ, ONE))
    rep = ms.tau_prime_circle_experiment(Rng(0), 25, 2)
    assert len(rep.checks) == 25  # one sub-check per sample point
    matched = sum(c.passed for c in rep.checks)
    print(f"ACCEPTANCE 9 report: {matched} matched, {25 - matched} unmatched")
    budget("9 (circle tables and the twisted-translation experiment)", t0, 30)


def test_criterion_10_net_axioms(world):
    inst, group, quad, ms = world
    t0 = time.time()
    rep = derived_net_report(ms, Rng(0), 50)
    assert rep.ok, [c.note for c in rep.checks if not c.passed]
    budget("10 (net axioms of the derived geometry)", t0, 60)


def test_criterion_11_reconstruction(world):
    inst, group, quad, ms = world
    t0 = time.time()
    rep = reconstruct_report(ms, Rng(0), 200)
    assert rep.ok, [c.note for c in rep.checks if not c.passed]
    checks = {c.name: c for c in rep.checks}
    # 200 distinct points and spheres, embedded injectively
    assert checks["injective"].passed
    assert checks["injective"].note == "200 points, 200 spheres"
    assert checks["rule3-exercised"].passed
    assert checks["polarity-consistent-points"].passed
    assert checks["polarity-consistent-spheres"].passed
    budget("11 (two-sorted reconstruction embeds)", t0, 120)


def test_criterion_12_determinism(capsys):
    t0 = time.time()
    args = ["verify-all", "--seed", "0", "--samples", "12",
            "--max-degree", "1", "--format", "jsonl"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    t1 = time.time() - t0
    code2 = main(args)
    out2 = capsys.readouterr().out
    total = time.time() - t0
    assert code1 == code2 == 0
    assert report_body(out1, "jsonl") == report_body(out2, "jsonl")
    assert total < 2 * t1 + 10, "second run cost more than the first"
    print(f"ACCEPTANCE 12: PASS (bodies byte-identical, {total:.1f}s)")
