"""Moufang set labels, the generator form, blocks, tau', net, rebuild."""

import pytest

from f4quad.fields import (K_ONE, K_S, K_T, K_ZERO, L_ONE, L_ZERO,
                           default_instance, kscale, phi_k)
from f4quad.moufang import (LABEL_CACHE_SIZE, ClosureError, MoufangPoint,
                            MoufangSet, UnsupportedBlock, derived_net_report,
                            reconstruct_report)
from f4quad.quadrangle import QLine, Quadrangle
from f4quad.rootgroups import R1Coord, R2Coord, UPlus, UPlusElem
from f4quad.sampling import Rng
from f4quad.verifier import SuiteConfig, run

LZ = L_ZERO
ONE = K_ONE
ZERO = K_ZERO


@pytest.fixture(scope="module")
def ms():
    return MoufangSet(Quadrangle(UPlus(default_instance())))


def test_embed_identity(ms):
    elt = ms.embed(ms.zero)
    assert elt.is_identity()


def test_embed_pure_a_lands_in_suzuki_tits(ms):
    lab = MoufangPoint(R1Coord(LZ, LZ, K_S), ms.group.r2_zero)
    elt = ms.embed(lab)
    assert ms.group.suzuki_tits_member(elt)
    # U4 part is (0, 0, phi(a)); U3 K-slot is a * phi(a)
    assert elt.g4 == R2Coord(LZ, LZ, phi_k(K_S))
    assert elt.g3 == R1Coord(LZ, LZ, K_S * phi_k(K_S))


def test_embed_central_elements(ms):
    from f4quad.fields import theta_k
    m = phi_k(K_S + K_T)
    lab = MoufangPoint(ms.group.r1_zero, R2Coord(LZ, LZ, m))
    elt = ms.embed(lab)
    assert elt.g1.is_zero() and elt.g4.is_zero()
    assert elt.g3 == R1Coord(LZ, LZ, theta_k(m))


def test_labeling_via_action_on_zero_flag(ms):
    rng = Rng(60)
    quad = ms.quad
    for _ in range(8):
        lab = ms.sample_label(rng, 1)
        flag = quad.act(quad.zero_flag, ms.embed(lab))
        assert quad.is_absolute(flag)
        assert ms.label_of_flag(flag) == lab


def test_act_examples(ms):
    rng = Rng(61)
    g = ms.sample_label(rng, 1)
    assert ms.act(ms.infinity, g) == ms.infinity
    assert ms.act(ms.zero, g) == g  # the zero label goes to the label of g


def test_regularity(ms):
    rng = Rng(62)
    for _ in range(6):
        p, q = ms.sample_label(rng, 1), ms.sample_label(rng, 1)
        g = ms.solve_translation(p, q)
        assert ms.act(p, g) == q
        # uniqueness through the normal form: a second solution equals g
        assert ms.solve_translation(p, q) == g


def test_closure_of_products(ms):
    rng = Rng(63)
    for _ in range(20):
        p, q = ms.sample_label(rng, 1), ms.sample_label(rng, 1)
        prod = ms.mul(p, q)  # raises ClosureError on failure
        assert prod is not None
    inv = ms.inv(ms.sample_label(rng, 1))
    assert inv is not None


def test_verbatim_form_deviates_in_one_named_slot(ms):
    """The printed generator form differs from the polarity-centralising
    completion exactly in the U3 K-slot, by (a + alpha) beta
    (x^th xbar^th + alpha y^th ybar^th): the printed coefficient alpha
    beta is a misprint for a beta."""
    inst = ms.inst
    rng = Rng(64)
    saw_difference = False
    for _ in range(15):
        lab = ms.sample_label(rng, 1)
        verb = ms.embed_verbatim(lab.r1, lab.r2)
        derv = ms.embed_derived(lab.r1, lab.r2)
        assert verb.g1 == derv.g1 and verb.g2 == derv.g2
        assert verb.g4 == derv.g4
        assert verb.g3.x == derv.g3.x and verb.g3.y == derv.g3.y
        diff = verb.g3.b + derv.g3.b
        x, y, a = lab.r1.x, lab.r1.y, lab.r1.b
        inner = (inst.lmul(inst.theta_l(x), inst.theta_l(x.conj()))
                 + kscale(inst.alpha,
                          inst.lmul(inst.theta_l(y), inst.theta_l(y.conj()))))
        assert inner.c1.is_zero()
        predicted = (a + inst.alpha) * inst.beta * inner.c0
        assert diff == predicted
        if not diff.is_zero():
            saw_difference = True
    assert saw_difference


def test_verbatim_closure_raises_with_localisation(ms):
    # a product of printed-form elements differs from the printed form of
    # its own free parts in the U3 K-slot only, and re-embedding it raises
    g = ms.group
    rng = Rng(65)
    for _ in range(10):
        p, q = ms.sample_label(rng, 1), ms.sample_label(rng, 1)
        prod = g.mul(ms.embed_verbatim(p.r1, p.r2),
                     ms.embed_verbatim(q.r1, q.r2))
        again = ms.embed_verbatim(prod.g1, prod.g2)
        assert (again.g1, again.g2, again.g3.x, again.g3.y, again.g4) == \
            (prod.g1, prod.g2, prod.g3.x, prod.g3.y, prod.g4)
        if again.g3.b != prod.g3.b:
            break
    else:
        pytest.fail("the printed form closed on every sample")
    with pytest.raises(ClosureError) as err:
        ms.label_of_elem(prod)
    assert "closure violation" in str(err.value)
    assert "U3 delta x=0, y=0, K=" in str(err.value)


def test_survey_run_fails_a_broken_closure(monkeypatch):
    # survey mode keeps going past failures but must not hide them
    monkeypatch.setattr(MoufangSet, "embed",
                        lambda self, p: self.embed_verbatim(p.r1, p.r2))
    report = run(SuiteConfig(survey=True, suites=("moufang",), samples=8))
    res = {r.name: r for r in report.checks}["generator-closure-derived"]
    assert res.status == "fail"
    assert "closure violation" in res.note


def test_survey_run_reports_a_crashed_closure_as_error(monkeypatch):
    # only an InternalConsistencyError is a closure failure; any other
    # exception from the group law is a crash, reported with its location
    def crash(self, p, q):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(MoufangSet, "mul", crash)
    report = run(SuiteConfig(survey=True, suites=("moufang",), samples=8))
    res = {r.name: r for r in report.checks}["generator-closure-derived"]
    assert res.status == "error"
    line = crash.__code__.co_firstlineno + 1
    assert res.note == (
        f"ZeroDivisionError at test_moufang.py:{line}: planted")


def test_derived_subgroup_label_shapes(ms):
    rng = Rng(67)
    for _ in range(8):
        p, q = ms.sample_label(rng, 1), ms.sample_label(rng, 1)
        c = ms.commutator(p, q)
        assert c.r1.is_zero()
        r = ms.sample_label(rng, 1)
        cc = ms.commutator(r, c)
        assert cc.r1.is_zero() and cc.r2.u.is_zero() and cc.r2.v.is_zero()
        s = ms.sample_label(rng, 1)
        assert ms.commutator(s, cc) == ms.zero


def test_uinf_stabilises_absolute_flags(ms):
    rng = Rng(96)
    quad = ms.quad
    for _ in range(5):
        f = ms.flag_of_label(ms.sample_label(rng, 1))
        g = ms.embed(ms.sample_label(rng, 1))
        assert quad.is_absolute(quad.act(f, g))


def test_lemma_base_case_block(ms):
    # the sphere with gnarl at infinity through the zero label consists of
    # infinity and exactly the labels whose first triple vanishes
    rng = Rng(97)
    blk = ms.sphere_general(ms.infinity, ms.zero)
    assert blk.contains(ms.infinity)
    for _ in range(6):
        r2 = ms.sample_r2(rng, 1)
        assert blk.contains(MoufangPoint(ms.group.r1_zero, r2))
        r1 = ms.sample_r1(rng, 1)
        if not r1.is_zero():
            assert not blk.contains(MoufangPoint(r1, r2))
    with pytest.raises(UnsupportedBlock):  # membership rule, no sampler
        blk.sample(rng, 1, 1)


def test_sphere_at_infinity_matches_commutator_orbit(ms):
    rng = Rng(68)
    through = ms.sample_label(rng, 1)
    sphere = ms.sphere_at_infinity(through)
    assert sphere.contains(ms.infinity)
    assert sphere.contains(through)
    for _ in range(6):
        p, q = ms.sample_label(rng, 1), ms.sample_label(rng, 1)
        c = ms.commutator(p, q)  # an element of the derived subgroup
        assert sphere.contains(ms.act(through, c))
    other = ms.sample_label(rng, 1)
    if other.r1 != through.r1:
        assert not sphere.contains(other)


def test_circle_at_infinity_matches_central_orbit(ms):
    rng = Rng(69)
    through = ms.sample_label(rng, 1)
    circle = ms.circle_at_infinity(through)
    assert circle.contains(ms.infinity)
    assert circle.contains(through)
    from f4quad.sampling import sample_kprime
    for _ in range(6):
        m = sample_kprime(rng, 2)
        central = MoufangPoint(ms.group.r1_zero, R2Coord(LZ, LZ, m))
        assert circle.contains(ms.act(through, central))
    moved = MoufangPoint(through.r1,
                         R2Coord(through.r2.u + L_ONE, through.r2.v,
                                 through.r2.a))
    assert not circle.contains(moved)


def test_sphere_general_agrees_at_infinity(ms):
    rng = Rng(70)
    through = ms.sample_label(rng, 1)
    direct = ms.sphere_at_infinity(through)
    geometric = ms.sphere_general(ms.infinity, through)
    for pt in direct.sample(rng, 8, 1) + [ms.infinity, through]:
        assert geometric.contains(pt)
    other = ms.sample_label(rng, 1)
    if other.r1 != through.r1:
        assert not geometric.contains(other)


def test_sphere_general_appendix_tables(ms):
    rng = Rng(71)
    inst = ms.inst
    e1 = R1Coord(LZ, LZ, ONE)
    for _ in range(3):
        uvb = ms.sample_r2(rng, 1)
        blk0 = ms.sphere_general(MoufangPoint(ms.group.r1_zero, uvb),
                                 ms.infinity)
        blk1 = ms.sphere_general(MoufangPoint(e1, uvb), ms.infinity)
        for _ in range(5):
            klm = ms.sample_r1(rng, 1)
            assert blk0.contains(MoufangPoint(klm, uvb))
            shift = R2Coord(kscale(inst.beta, inst.theta_l(klm.x)),
                            kscale(inst.beta, inst.theta_l(klm.y)),
                            phi_k(klm.b))
            member = MoufangPoint(R1Coord(klm.x, klm.y, klm.b + ONE),
                                  uvb + shift)
            assert blk1.contains(member)
            # and perturbing the second part leaves the block
            off = MoufangPoint(member.r1,
                               member.r2 + R2Coord(LZ, LZ, phi_k(ONE)))
            assert not blk1.contains(off)


def test_sphere_translate_identity(ms):
    # the (0,0,1)-gnarl sphere is the image of a (0,0,0)-gnarl sphere
    rng = Rng(72)
    e1 = R1Coord(LZ, LZ, ONE)
    mover = MoufangPoint(e1, ms.group.r2_zero)
    uvb = ms.sample_r2(rng, 1)
    src = ms.sphere_general(MoufangPoint(ms.group.r1_zero, uvb), ms.infinity)
    dst = ms.sphere_general(ms.act(MoufangPoint(ms.group.r1_zero, uvb), mover),
                            ms.infinity)
    for _ in range(6):
        member = MoufangPoint(ms.sample_r1(rng, 1), uvb)
        assert src.contains(member)
        assert dst.contains(ms.act(member, mover))
    assert dst.contains(ms.act(ms.infinity, mover))


def test_circle_general_finite_gnarl(ms):
    rng = Rng(73)
    gnarl = ms.sample_label(rng, 1)
    blk = ms.circle_general(gnarl, ms.infinity)
    assert blk.contains(ms.infinity)
    assert blk.contains(gnarl)  # parameter zero gives the gnarl back
    assert blk.point_at(ZERO) == gnarl
    for pt in blk.sample(rng, 6, 1):
        assert blk.contains(pt)
    with pytest.raises(UnsupportedBlock):
        ms.circle_general(gnarl, ms.sample_label(rng, 1))


def test_first_explicit_circle_values(ms):
    c1 = ms.special_circle_first()
    at1 = c1.point_at(ONE)  # 1/(1+1+1) = 1 in both slots
    assert at1 == MoufangPoint(R1Coord(LZ, LZ, ONE), R2Coord(LZ, LZ, ONE))
    at0 = c1.point_at(ZERO)
    assert at0 == MoufangPoint(R1Coord(LZ, LZ, ZERO), R2Coord(LZ, LZ, ONE))
    assert c1.contains(at1) and c1.contains(at0)
    assert c1.contains(ms.zero)  # the listed base point
    rng = Rng(74)
    for pt in c1.sample(rng, 6, 2):
        assert c1.contains(pt)
    # a point off the parametrised set is rejected
    assert not c1.contains(MoufangPoint(R1Coord(LZ, LZ, ONE),
                                        R2Coord(LZ, LZ, phi_k(K_S))))


def test_first_explicit_circle_holds_its_defining_points(ms):
    c1 = ms.special_circle_first()
    through = MoufangPoint(R1Coord(LZ, LZ, ONE), R2Coord(LZ, LZ, ZERO))
    assert (c1.gnarl, c1.base) == (ms.zero, through)
    assert c1.contains(c1.gnarl) and c1.contains(through)
    # the cleared equation holds at every (a, 0), the circle at two of them
    for aa in (K_S, ONE + K_S):
        assert not c1.contains(MoufangPoint(R1Coord(LZ, LZ, aa),
                                            R2Coord(LZ, LZ, ZERO)))


def test_second_explicit_circle_membership(ms):
    c2 = ms.special_circle_second()
    rng = Rng(75)
    for pt in c2.sample(rng, 6, 2):
        assert c2.contains(pt)
    assert c2.contains(ms.zero)


def test_tau_prime_examples(ms):
    assert ms.tau_prime(ms.zero) == ms.zero
    one_lab = MoufangPoint(R1Coord(LZ, LZ, ONE), ms.group.r2_zero)
    assert ms.tau_prime(one_lab) == MoufangPoint(R1Coord(LZ, LZ, ONE),
                                                 R2Coord(LZ, LZ, ONE))
    rng = Rng(76)
    for _ in range(8):
        p = ms.sample_label(rng, 1)
        assert ms.tau_prime(ms.tau_prime(p)) == p
    with pytest.raises(ValueError):
        ms.tau_prime(ms.infinity)


def test_tau_prime_experiment_reports(ms):
    rep = ms.tau_prime_circle_experiment(Rng(77), 12, 2)
    assert len(rep.checks) == 12  # one sub-check per sample point
    assert all(c.passed or " -> " in c.note for c in rep.checks)


def test_block_descriptors(ms):
    rng = Rng(78)
    through = ms.sample_label(rng, 1)
    sphere = ms.sphere_at_infinity(through)
    desc = str(sphere)
    assert desc.startswith("sphere gnarl=inf")
    circle = ms.circle_general(through, ms.infinity)
    assert "circle" in str(circle)
    assert str(through) in str(circle)


def test_net_report(ms):
    rep = derived_net_report(ms, Rng(79), 5)
    assert rep.ok, [c for c in rep.checks if not c.passed]
    assert {c.name for c in rep.checks} == {
        "vertical-lines-disjoint", "vertical-meets-nonvertical-once",
        "parallel-class-disjoint"}


def test_reconstruction_report(ms):
    rep = reconstruct_report(ms, Rng(80), 14)
    assert rep.ok, [c.note for c in rep.checks if not c.passed]
    assert {c.name for c in rep.checks if c.passed} >= {
        "rule3-exercised", "injective", "polarity-consistent-points",
        "polarity-consistent-spheres"}


def test_polarity_consistent_spheres_can_fail(ms, monkeypatch):
    # a polarity that is wrong on points of rank 1 and 2 (the projection
    # centres of spheres) and right on the flag points of labels
    rho = Quadrangle.rho_point
    monkeypatch.setattr(Quadrangle, "rho_point", lambda quad, p: (
        QLine(()) if len(p.coords) in (1, 2) else rho(quad, p)))
    checks = {c.name: c for c in reconstruct_report(ms, Rng(80), 14).checks}
    assert checks["polarity-consistent-points"].passed
    assert not checks["polarity-consistent-spheres"].passed


def test_reconstructed_structure_object(ms):
    from f4quad.moufang import reconstruct_quadrangle
    rq = reconstruct_quadrangle(ms, Rng(81), 10)
    # rule 1 on the structure itself
    assert rq.incident(rq.points[1], rq.points[1])
    assert not rq.incident(rq.points[1], rq.points[2])
    # a sphere is incident (as a line) with exactly its gnarl's point sort
    blk = rq.spheres[0]
    hits = [p for p in rq.points if rq.incident(p, blk)]
    assert all(p == blk.gnarl for p in hits)
    # sort swap is symmetric by construction
    assert rq.incident(blk, rq.spheres[1]) == rq.incident(rq.spheres[1], blk)


def test_label_caches_agree_with_fresh_computation():
    ms = MoufangSet(Quadrangle(UPlus(default_instance())))
    quad = ms.quad
    rng = Rng(72)
    labels = [ms.sample_label(rng, 1) for _ in range(LABEL_CACHE_SIZE + 4)]
    assert len(set(labels)) == len(labels)
    rebuilt = [MoufangPoint(R1Coord(p.r1.x, p.r1.y, p.r1.b),
                            R2Coord(p.r2.u, p.r2.v, p.r2.a)) for p in labels]
    # the first pass cycles both caches; the repeats, newest first, hit
    # the labels still held and recompute the evicted ones
    for lab in labels + labels[::-1] + rebuilt:
        derived = ms.embed_derived(lab.r1, lab.r2)
        assert ms.embed(lab) == derived
        assert ms.flag_of_label(lab) == quad.act(quad.zero_flag, derived)
    assert ms._embeds.cache_info().hits >= LABEL_CACHE_SIZE
    assert ms._flags.cache_info().hits >= LABEL_CACHE_SIZE
    assert ms._flags.cache_info().currsize == LABEL_CACHE_SIZE


def test_cached_label_still_checks_the_product(monkeypatch):
    # the re-embed of a product compares it with the derived completion
    # even when that completion comes from the cache
    ms = MoufangSet(Quadrangle(UPlus(default_instance())))
    rng = Rng(73)
    p, q = ms.sample_label(rng, 1), ms.sample_label(rng, 1)
    ms.mul(p, q)  # caches the product's label
    original = UPlus.mul

    def tampered(self, g, h):
        out = original(self, g, h)
        return UPlusElem(out.g1, out.g2,
                         out.g3 + R1Coord(LZ, LZ, ONE), out.g4)

    monkeypatch.setattr(UPlus, "mul", tampered)
    hits = ms._embeds.cache_info().hits
    with pytest.raises(ClosureError) as err:
        ms.mul(p, q)
    assert ms._embeds.cache_info().hits == hits + 3  # p, q and the product
    assert "U3 delta x=0, y=0, K=1" in str(err.value)
