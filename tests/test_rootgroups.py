"""Root group coordinates, commutator maps and the collected group law."""

import dataclasses
import re
import sys
import threading
from pathlib import Path

import pytest

from f4quad import fields, quadrangle
from f4quad.fields import (K_ONE, K_S, K_T, K_ZERO, L_E, L_ONE, L_ZERO,
                           FieldInstance, KElem, LElem, default_instance,
                           kscale)
from f4quad.moufang import MoufangSet
from f4quad.polynomials import P_ONE, P_S, P_T, P_ZERO, W, Poly2, _prs_gcd
from f4quad.quadrangle import QLine, QPoint, Quadrangle
from f4quad.rootgroups import (COMM14_MEMO_SIZE, InternalConsistencyError,
                               R1Coord, R2Coord, UPlus, UPlusElem)
from f4quad.sampling import Rng, sample_l_nonzero
from mutants import eq3_slot_2_mul

ZERO = K_ZERO
ONE = K_ONE
LZ = L_ZERO
LO = L_ONE
LE = L_E


@pytest.fixture(scope="module")
def group():
    return UPlus(default_instance())


@pytest.fixture(scope="module")
def ms(group):
    return MoufangSet(Quadrangle(group))


def rand_elem(ms, rng, deg=1):
    return UPlusElem(ms.sample_r1(rng, deg), ms.sample_r2(rng, deg),
                     ms.sample_r1(rng, deg), ms.sample_r2(rng, deg))


def test_comm13_examples(group):
    p = group.check_r1(R1Coord(LO, LZ, ZERO))
    assert group.comm13(p, p) == group.r2_zero
    # central pairs with no L slots commute
    c1 = group.check_r1(R1Coord(LZ, LZ, K_S))
    c2 = group.check_r1(R1Coord(LZ, LZ, K_T))
    assert group.comm13(c1, c2) == group.r2_zero
    # trace(e+s) = 1, so the value is alpha = t
    q = group.check_r1(R1Coord(LE + LElem(K_S), LZ, ZERO))
    assert group.comm13(p, q) == R2Coord(LZ, LZ, K_T)


def test_comm24_examples(group):
    p = group.check_r2(R2Coord(LO, LZ, ZERO))
    assert group.comm24(p, p) == group.r1_zero
    c1 = group.check_r2(R2Coord(LZ, LZ, K_T))
    c2 = group.check_r2(R2Coord(LZ, LZ, K_T * K_T))
    assert group.comm24(c1, c2) == group.r1_zero
    # trace(e) = 1, so the value is 1/beta = 1/s
    q = group.check_r2(R2Coord(LE, LZ, ZERO))
    assert group.comm24(p, q) == R1Coord(LZ, LZ, ONE / K_S)


def test_comm14_examples(group):
    p = R1Coord(LZ, LZ, ONE)
    q = R2Coord(LZ, LZ, ONE)
    u2, u3 = group.comm14(p, q)
    assert u2 == R2Coord(LZ, LZ, ONE)
    assert u3 == R1Coord(LZ, LZ, ONE)
    # the identity commutes with everything
    u2, u3 = group.comm14(group.r1_zero, q)
    assert u2 == group.r2_zero and u3 == group.r1_zero


def test_comm14_partial_substitution(group, ms):
    # first argument (x,y,0), second (0,0,a): U2 part (0,0,a*alpha*(x xbar
    # + beta^2 y ybar)), U3 part (a x, a y, 0)
    rng = Rng(20)
    inst = group.inst
    for _ in range(10):
        r1 = ms.sample_r1(rng, 1)
        p = R1Coord(r1.x, r1.y, ZERO)
        a = inst.alpha * inst.alpha  # some K' element
        q = R2Coord(LZ, LZ, a)
        u2, u3 = group.comm14(p, q)
        norm = inst.lnorm(p.x) + inst.beta_sq * inst.lnorm(p.y)
        assert u2 == R2Coord(LZ, LZ, a * inst.alpha * norm)
        from f4quad.fields import kscale
        assert u3 == R1Coord(kscale(a, p.x), kscale(a, p.y), ZERO)


def test_mul_identity_and_pure_addition(group, ms):
    rng = Rng(21)
    g = rand_elem(ms, rng)
    assert group.mul(g, group.identity) == g
    assert group.mul(group.identity, g) == g
    a = ms.sample_r2(rng, 1)
    b = ms.sample_r2(rng, 1)
    prod = group.mul(group.pure2(a), group.pure2(b))
    assert prod == group.pure2(a + b)


def test_single_collection_step(group, ms):
    # g = pure U3, h = pure U1: the product collects with one comm13 correction
    rng = Rng(22)
    for _ in range(10):
        x = ms.sample_r1(rng, 1)
        y = ms.sample_r1(rng, 1)
        g = group.pure3(y)
        h = group.pure1(x)
        prod = group.mul(g, h)
        assert prod == UPlusElem(x, group.comm13(x, y), y, group.r2_zero)
        # group identity g h = h g [g, h]
        other = group.mul(group.mul(h, g), group.commutator(g, h))
        assert prod == other


def test_inverse_properties(group, ms):
    rng = Rng(23)
    for _ in range(15):
        g = rand_elem(ms, rng)
        assert group.mul(g, group.inv(g)).is_identity()
        assert group.inv(group.inv(g)) == g
    r = ms.sample_r1(rng, 1)
    assert group.inv(group.pure1(r)) == group.pure1(r)
    assert group.inv(group.identity) == group.identity


def test_associativity_holds_with_standard_slot(group, ms):
    rng = Rng(24)
    for _ in range(40):
        a, b, c = (rand_elem(ms, rng) for _ in range(3))
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))


def test_alternative_slot_reading_fails(group, ms):
    def alt(g, h):  # the slot-2 reading of relation (3)
        return eq3_slot_2_mul(group, g, h)

    rng = Rng(25)
    broke = False
    for _ in range(20):
        a, b, c = (rand_elem(ms, rng) for _ in range(3))
        if alt(alt(a, b), c) != alt(a, alt(b, c)):
            broke = True
            break
    assert broke, "the rerouted correction slot should break associativity"


def test_commutator_biadditivity(group, ms):
    rng = Rng(26)
    for _ in range(15):
        p, p2, q = (ms.sample_r1(rng, 1) for _ in range(3))
        assert group.comm13(p + p2, q) == group.comm13(p, q) + group.comm13(p2, q)
        assert group.comm13(q, p + p2) == group.comm13(q, p) + group.comm13(q, p2)
        u, u2, w = (ms.sample_r2(rng, 1) for _ in range(3))
        assert group.comm24(u + u2, w) == group.comm24(u, w) + group.comm24(u2, w)
        assert group.comm24(w, u + u2) == group.comm24(w, u) + group.comm24(w, u2)


def test_comm14_group_expansion(group, ms):
    # [g, h1 h2] = [g, h2] [g, h1]^{h2} at group level
    rng = Rng(27)
    for _ in range(10):
        g = group.pure1(ms.sample_r1(rng, 1))
        h1 = group.pure4(ms.sample_r2(rng, 1))
        h2 = group.pure4(ms.sample_r2(rng, 1))
        lhs = group.commutator(g, group.mul(h1, h2))
        rhs = group.mul(group.commutator(g, h2),
                        group.conjugate(group.commutator(g, h1), h2))
        assert lhs == rhs


def test_nilpotency_class_three(group, ms):
    rng = Rng(28)
    for _ in range(10):
        a, b, c, d = (rand_elem(ms, rng) for _ in range(4))
        assert group.commutator(group.commutator(group.commutator(a, b), c),
                                d).is_identity()


def test_filtration_degrees(group, ms):
    rng = Rng(29)
    assert group.filtration_degree(group.identity) == 3
    for _ in range(10):
        a, b, c = (rand_elem(ms, rng) for _ in range(3))
        g1 = group.commutator(a, b)
        assert group.filtration_degree(g1) >= 2
        g2 = group.commutator(g1, c)
        assert group.filtration_degree(g2) >= 3
    generic = rand_elem(ms, Rng(30))
    if not generic.g1.is_zero():
        assert group.filtration_degree(generic) == 1


def test_slot_membership_closure(group, ms):
    rng = Rng(31)
    for _ in range(10):
        a, b = rand_elem(ms, rng), rand_elem(ms, rng)
        prod = group.mul(a, b)
        group.check_r1(prod.g1)
        group.check_r2(prod.g2)
        group.check_r1(prod.g3)
        group.check_r2(prod.g4)


def test_suzuki_tits_restriction(group):
    rng = Rng(32)
    from f4quad.sampling import sample_k, sample_kprime
    for _ in range(10):
        es = []
        for _ in range(2):
            es.append(UPlusElem(
                R1Coord(LZ, LZ, sample_k(rng, 2)),
                R2Coord(LZ, LZ, sample_kprime(rng, 2)),
                R1Coord(LZ, LZ, sample_k(rng, 2)),
                R2Coord(LZ, LZ, sample_kprime(rng, 2))))
        assert group.suzuki_tits_member(group.mul(es[0], es[1]))
        assert group.suzuki_tits_member(group.commutator(es[0], es[1]))
        assert group.suzuki_tits_member(group.inv(es[0]))


# ----------------------------------------------------------------------
# the comm14 memo
# ----------------------------------------------------------------------

def _comm14_pairs(ms, seed, n, k=5):
    """n non-trivial (p, q) pairs over k distinct p and k distinct q, so
    that pairs sharing one argument but not the other are common."""
    rng = Rng(seed)
    ps = [p for p in (ms.sample_r1(rng, 1) for _ in range(3 * k)) if not p.is_zero()][:k]
    qs = [q for q in (ms.sample_r2(rng, 1) for _ in range(3 * k)) if not q.is_zero()][:k]
    return [(ps[rng.below(len(ps))], qs[rng.below(len(qs))])
            for _ in range(n)]


def test_comm14_memo_hits_and_misses(ms):
    inst = default_instance()
    warm = UPlus(inst)
    pairs = _comm14_pairs(ms, 40, 30)
    for p, q in pairs + pairs[::-1]:
        assert warm.comm14(p, q) == UPlus(inst).comm14(p, q)
    info = warm._comm14_cache.cache_info()
    assert info.hits + info.misses == 2 * len(pairs)
    assert 0 < info.hits < 2 * len(pairs)


def test_comm14_memo_stays_bounded(ms):
    group = UPlus(default_instance())
    rng = Rng(41)
    distinct = set()
    while len(distinct) <= COMM14_MEMO_SIZE + 8:
        p, q = ms.sample_r1(rng, 1), ms.sample_r2(rng, 1)
        if not (p.is_zero() or q.is_zero()):
            group.comm14(p, q)
            distinct.add((p, q))
            assert group._comm14_cache.cache_info().currsize <= COMM14_MEMO_SIZE
    assert group._comm14_cache.cache_info().currsize == COMM14_MEMO_SIZE


def test_comm14_memo_keeps_no_exception(ms, monkeypatch):
    group = UPlus(default_instance())
    (p, q), = _comm14_pairs(ms, 42, 1)

    def refuse(c, where=""):
        raise InternalConsistencyError(f"refused {where}")

    monkeypatch.setattr(group, "check_r1", refuse)
    for _ in range(2):
        with pytest.raises(InternalConsistencyError):
            group.comm14(p, q)
    # both failed calls were computed, and nothing was stored
    info = group._comm14_cache.cache_info()
    assert (info.misses, info.currsize) == (2, 0)
    monkeypatch.undo()
    assert group.comm14(p, q) == UPlus(default_instance()).comm14(p, q)


def test_comm14_memo_under_threads(ms):
    inst = default_instance()
    pairs = _comm14_pairs(ms, 43, 80, k=8)  # more distinct pairs than the cap
    fresh = UPlus(inst)
    cases = [(p, q, fresh._comm14(p, q)) for p, q in pairs]
    shared = UPlus(inst)
    errors = []

    def worker(part):
        try:
            for p, q, want in part:
                if shared.comm14(p, q) != want:
                    errors.append((p, q))
        except Exception as exc:  # reported through `errors`
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker,
                                    args=(cases[i:] + cases[:i],))
                   for i in (0, 20, 40, 60)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    assert shared._comm14_cache.cache_info().currsize <= COMM14_MEMO_SIZE


def _k(num, den=P_ONE):
    return KElem(num, den)


_S, _T, _1 = P_S, P_T, P_ONE
# the irreducible factors of beta and alpha on ROADMAP item 1's candidate
_FACTORS = (_S, _T, _S + _1, _T + _1)
_COMM14_INSTANCES = {
    "default": default_instance(),
    # phi(e) = e + c needs delta = c + phi(c): c = 1/s gives (s + t)/(s t)
    "delta-over-st": FieldInstance(delta=_k(_S + _T, _S * _T),
                                   phi_e=LElem(_k(_1, _S), ONE),
                                   beta=K_S, alpha=K_T),
    # beta^-1 = 1 / (s (s + 1)): a constant over a non-monomial
    "candidate": FieldInstance(delta=_k(_S.square() + _T),
                               phi_e=LElem(K_T, ONE),
                               beta=_k(_S.square() + _S),
                               alpha=_k(_T.square() + _T)),
}


def _comm14_inputs(group, seed, monomial):
    """Valid nonzero comm14 arguments scaled by s, t, s + 1 and t + 1 in
    numerators and denominators; with `monomial`, s + 1 and t + 1 only in
    numerators.  x, y and a stay in K' (s and s + 1 enter squared)."""
    ms = MoufangSet(Quadrangle(group))
    rng = Rng(seed)

    def factor(prime):
        f = _FACTORS[rng.below(4)]
        f = f.square() if prime and f in (_S, _S + _1) else f
        on_top = rng.below(2) or (monomial and not f.is_monomial())
        return _k(f) if on_top else _k(_1, f)

    def scale(z, prime):
        return fields.kscale(factor(prime) * factor(prime), z)

    out = []
    while len(out) < 12:
        p, q = ms.sample_r1(rng, 2), ms.sample_r2(rng, 2)
        p = R1Coord(scale(p.x, True), scale(p.y, True), p.b * factor(False))
        q = R2Coord(scale(q.u, False), scale(q.v, False), q.a * factor(True))
        if not (p.is_zero() or q.is_zero()):
            out.append((p, q))
    return out


def _over_monomials(p, q):
    return all(c.den.is_monomial()
               for c in (p.x.c0, p.x.c1, p.y.c0, p.y.c1, p.b,
                         q.u.c0, q.u.c1, q.v.c0, q.v.c1, q.a))


def _k_mul(inst, *zs):
    """The product of L values by the formula of `test_l_ops_match_k_formula`,
    in K."""
    d, out = inst.delta, LO
    for w in zs:
        a0, a1, b0, b1 = out.c0, out.c1, w.c0, w.c1
        out = LElem(a0 * b0 + d * a1 * b1, a0 * b1 + a1 * b0 + a1 * b1)
    return out


def _k_sc(k, z):
    return LElem(k * z.c0, k * z.c1)


def _k_norm(inst, z):
    return z.c0 * z.c0 + z.c0 * z.c1 + inst.delta * z.c1 * z.c1


def _k_polar(z, w):
    return z.c0 * w.c1 + z.c1 * w.c0


def _k_trace0(z):
    assert z.c1 == ZERO, z  # a trace term lies in K
    return z.c0


def _k_relation4(inst, p, q):
    """Relation (4) as printed in the README's relation table, term by term
    in K, with the constants computed here."""
    alpha, beta = inst.alpha, inst.beta
    binv = ONE / beta
    x, y, b, u, v, a = p.x, p.y, p.b, q.u, q.v, q.a
    xb, yb, ub, vb = x.conj(), y.conj(), u.conj(), v.conj()
    mul = lambda *zs: _k_mul(inst, *zs)
    norm = lambda z: _k_norm(inst, z)
    w_u = _k_sc(b, u) + _k_sc(alpha, mul(xb, v) + _k_sc(beta, mul(y, vb)))
    w_v = _k_sc(b, v) + mul(x, u) + _k_sc(beta, mul(y, ub))
    w_a = (b * b * a + a * alpha * (norm(x) + beta * beta * norm(y))
           + alpha * _k_trace0(mul(u, u, x, yb) + mul(ub, ub, xb, y)
                               + _k_sc(alpha, mul(vb, vb, x, y)
                                       + mul(v, v, xb, yb))))
    z_x = _k_sc(a, x) + mul(ub, ub, y) + _k_sc(alpha, mul(v, v, yb))
    z_y = _k_sc(a, y) + _k_sc(binv * binv,
                              mul(u, u, x) + _k_sc(alpha, mul(v, v, xb)))
    z_b = (a * b + b * binv * (norm(u) + alpha * norm(v))
           + alpha * _k_trace0(_k_sc(binv, mul(x, u, vb) + mul(xb, ub, v))
                               + mul(y, ub, vb) + mul(yb, u, v)))
    return R2Coord(w_u, w_v, w_a), R1Coord(z_x, z_y, z_b)


@pytest.mark.parametrize("name", sorted(_COMM14_INSTANCES))
def test_comm14_one_pass_matches_k_level(name):
    group = UPlus(_COMM14_INSTANCES[name])
    general = 0
    for monomial in (True, False):
        for p, q in _comm14_inputs(group, 50 + monomial, monomial):
            assert group._comm14(p, q) == _k_relation4(group.inst, p, q), (p, q)
            general += not _over_monomials(p, q)
    assert general  # inputs over s + 1 or t + 1 were among them


@pytest.mark.parametrize("name", sorted(_COMM14_INSTANCES))
def test_comm13_comm24_match_k_formula(name):
    # relations (2) and (3): alpha (tr(x x2bar) + beta^2 tr(y y2bar)) in
    # U2's K' slot and beta^-1 (tr(u u2bar) + alpha tr(v v2bar)) in U3's K slot
    group = UPlus(_COMM14_INSTANCES[name])
    alpha, beta = group.inst.alpha, group.inst.beta
    for monomial in (True, False):
        pairs = _comm14_inputs(group, 50 + monomial, monomial)
        for (p, q), (p2, q2) in zip(pairs, pairs[1:] + pairs[:1]):
            a = alpha * (_k_polar(p.x, p2.x) + beta * beta * _k_polar(p.y, p2.y))
            assert group.comm13(p, p2) == R2Coord(LZ, LZ, a), (p, p2)
            b = (_k_polar(q.u, q2.u) + alpha * _k_polar(q.v, q2.v)) / beta
            assert group.comm24(q, q2) == R1Coord(LZ, LZ, b), (q, q2)


# g parts free of s and t: an lcm cofactor of s-degree 30 or 34 alone
# carries a numerator of s-degree 30 past the stride W = 64
_WIDE_G = (Poly2.from_terms([(30, 0), (0, 1), (0, 0)]),
           Poly2.from_terms([(34, 0), (1, 1), (0, 0)]))
# tests/test_parser.py::test_power_at_the_limit_is_exact's instance:
# beta^2 = s^128 + ... needs stride 256, beta^-1 is over a g part
_AT_CAP = FieldInstance(delta=K_S + K_T, phi_e=LElem(K_S, ONE),
                        beta=_k(Poly2.from_terms([(64, 0), (32, 0), (0, 1)])),
                        alpha=_k(Poly2.from_terms([(0, 64), (0, 32), (2, 0)])))
# delta of s-degree 30 over s^2 + s + 1: every product's bound takes 30
_WIDE_DELTA = FieldInstance(delta=_k(Poly2.from_terms([(30, 0), (0, 1)]),
                                     Poly2.from_terms([(2, 0), (1, 0), (0, 0)])),
                            phi_e=LElem(K_S, ONE), beta=K_S, alpha=K_T)


def _wide_k(rng, kind, low):
    """A K value with a numerator of s-degree low to 2 low, over 1 (kind
    0), s^i t^j (1), or s^i t^j times a g part of _WIDE_G (2 and 3); i
    reaches 2 low, so a sum's shift alone can carry a row past W."""
    num = Poly2.from_terms([(low + rng.below(low + 1), rng.below(3)),
                            (rng.below(low), 1 + rng.below(2)), (0, 0)])
    mono = Poly2.monomial(rng.below(2 * low + 1), rng.below(3))
    return _k(num, (P_ONE, mono, mono * _WIDE_G[0], mono * _WIDE_G[1])[kind])


def _wide_l(rng, low=20):
    """L values over every pair of denominator kinds, with t-exponents that
    differ between the coordinates and g parts that differ too."""
    return [LElem(_wide_k(rng, k0, low), _wide_k(rng, k1, low))
            for k0, k1 in ((1, 1), (0, 2), (2, 3), (3, 1))]


def _canonical(*values):
    for c in values:
        cs = dataclasses.astuple(c) if dataclasses.is_dataclass(c) else (c,)
        for x in cs:
            for k in (x.c0, x.c1) if isinstance(x, LElem) else (x,):
                assert _prs_gcd(k.num, k.den).is_one(), k


@pytest.mark.parametrize("case", ["wide-numerators", "at-cap", "wide-delta"])
def test_wide_values_retry_at_a_wider_stride(case):
    # an evaluation with a bound that reaches the stride reruns at twice
    # the stride; no workload does, so here numerators of s-degree 20-40
    # on the default instance, the at-cap instance's constants, and a
    # delta of s-degree 30 with numerators of s-degree 10-20
    rng = Rng(83)
    wide = case == "wide-numerators"
    inst = {"wide-numerators": default_instance(), "at-cap": _AT_CAP,
            "wide-delta": _WIDE_DELTA}[case]
    group = UPlus(inst)
    small = [sample_l_nonzero(rng, 2) for _ in range(4)]
    zs = small if case == "at-cap" else _wide_l(rng, 20 if wide else 10)
    for z, x in zip(zs, zs[1:] + zs[:1]):
        _canonical(inst.lmul(z, x), inst.lnorm(z), inst.lsquare(z),
                   kscale(x.c1, z))
        assert inst.lmul(z, x) == _k_mul(inst, z, x), (z, x)
        assert inst.lnorm(z) == _k_norm(inst, z), z
        assert inst.lsquare(z) == _k_mul(inst, z, z), z
        assert kscale(x.c1, z) == _k_sc(x.c1, z), (x.c1, z)
    # relations (2)-(4), with U1/U3 arguments in L' (squares), s-degree
    # 20-40 and the rest 10-20 in the wide case
    roots = _wide_l(rng, 10) if wide else small
    sq = [_k_mul(inst, z, z) for z in roots]
    alpha, beta = inst.alpha, inst.beta
    for k in range(1 if wide else 4):
        x, y, u, v = sq[k], sq[k - 1], roots[k - 2], roots[k - 3]
        p = R1Coord(x, y, roots[k].c0)
        q = R2Coord(u, v, sq[k - 2].c1)
        p2, q2 = R1Coord(y, x, ZERO), R2Coord(v, u, ZERO)
        got = group.relation4(p, q)
        assert got == _k_relation4(inst, p, q), (p, q)
        a = alpha * (_k_polar(x, y) + beta * beta * _k_polar(y, x))
        assert group.comm13(p, p2) == R2Coord(LZ, LZ, a), (p, p2)
        b = (_k_polar(u, v) + alpha * _k_polar(v, u)) / beta
        assert group.comm24(q, q2) == R1Coord(LZ, LZ, b), (q, q2)
        _canonical(*got, group.comm13(p, p2), group.comm24(q, q2))
    if wide:
        # products of s-degree below W, sums shifted by s^40 past it
        x, y, u, v = _wide_l(rng, 6)
        far = _k(Poly2.from_terms([(25, 0), (0, 1), (0, 0)]), Poly2.monomial(40, 0))
        p, q = R1Coord(x, y, far), R2Coord(u, v, ONE)
        got = group.relation4(p, q)
        assert got == _k_relation4(inst, p, q), (p, q)
        _canonical(*got)
    # the evaluations above ran wider than W, not merely at it: delta and
    # a formula's ops and constants were read there
    wider = {key for w, key in inst._raws if w > W}
    assert "delta" in wider and any(type(key) is tuple for key in wider)


def test_comm24_stays_at_the_stride_its_constants_fit():
    # at the cap beta^2 = s^128 + ... needs stride 256, while comm24 reads
    # only beta^-1 (1 over a g part) and alpha, of s-degree below W; each
    # constant is converted when an evaluation reads it, so comm24 runs
    # at W, and comm13 (beta^2) and relation4 (all five) run wider
    rng = Rng(89)
    x, y, u, v = (sample_l_nonzero(rng, 2) for _ in range(4))
    xs, ys = _k_mul(_AT_CAP, x, x), _k_mul(_AT_CAP, y, y)  # in L'
    alpha, beta = _AT_CAP.alpha, _AT_CAP.beta
    p, q = R1Coord(xs, ys, y.c0), R2Coord(u, v, xs.c1)
    cases = [(lambda g: g.comm24(q, R2Coord(v, u, ZERO)), False,
              R1Coord(LZ, LZ, (_k_polar(u, v) + alpha * _k_polar(v, u)) / beta)),
             (lambda g: g.comm13(R1Coord(xs, ys, ZERO), R1Coord(ys, xs, ZERO)), True,
              R2Coord(LZ, LZ, alpha * (_k_polar(xs, ys)
                                       + beta * beta * _k_polar(ys, xs)))),
             (lambda g: g.relation4(p, q), True, _k_relation4(_AT_CAP, p, q))]
    for call, wide, want in cases:
        inst = FieldInstance(_AT_CAP.delta, _AT_CAP.phi_e, beta, alpha)
        assert call(UPlus(inst)) == want
        assert (max(w for w, _ in inst._raws) > W) == wide, want


@pytest.mark.parametrize("name", sorted(_COMM14_INSTANCES))
def test_comm14_u2_part_commutes_with_its_u4_argument(name):
    # why a product, embed_derived and the quadrangle make no second-order
    # [U2,U4] correction: comm24(relation4(p, q)[0], q) is 0 for any L inputs
    group = UPlus(_COMM14_INSTANCES[name])
    ls = LElem(K_S)  # outside L'
    for monomial in (True, False):
        for p, q in _comm14_inputs(group, 70 + monomial, monomial):
            for p1 in (p, R1Coord(LE, ls, p.b)):
                w = group.relation4(p1, q)[0]
                assert not (w.u.is_zero() and w.v.is_zero())
                assert group.comm24(w, q) == group.r1_zero, (p1, q)


def _elements(group, seed, monomial):
    """Products' factors with every slot nonzero, from `_comm14_inputs`."""
    pairs = _comm14_inputs(group, seed, monomial)
    return [UPlusElem(p, q, p2, q2)
            for (p, q), (p2, q2) in zip(pairs[::2], pairs[1::2])]


def _mul_two_corrections(group, g, h):
    """The product with the second-order comm24(p2, g4) and comm24(h2, g4)
    collected apart."""
    q2 = group.comm13(h.g1, g.g3)
    p2, p3 = group.comm14(h.g1, g.g4)
    r3, s3 = group.comm24(p2, g.g4), group.comm24(h.g2, g.g4)
    return UPlusElem(g.g1 + h.g1, g.g2 + q2 + p2 + h.g2,
                     g.g3 + r3 + p3 + s3 + h.g3, g.g4 + h.g4)


def _count_comm24(monkeypatch):
    calls, comm24 = [], UPlus.comm24
    monkeypatch.setattr(UPlus, "comm24", lambda *a: calls.append(a) or comm24(*a))
    return calls


# ids end in "-3", the slot of relation (3)'s correction, as they did
# while a slot-2 case ran beside them
@pytest.mark.parametrize("name", sorted(_COMM14_INSTANCES),
                         ids=lambda name: f"{name}-3")
def test_mul_one_comm24_matches_two(name, monkeypatch):
    group = UPlus(_COMM14_INSTANCES[name])
    calls = _count_comm24(monkeypatch)
    for monomial in (True, False):
        elts = _elements(group, 64 + monomial, monomial)
        for g, h in zip(elts, elts[1:] + elts[:1]):
            want = _mul_two_corrections(group, g, h)
            calls.clear()
            assert group.mul(g, h) == want, (g, h)
            assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(_COMM14_INSTANCES))
def test_embed_derived_u3_k_slot_matches_two_corrections(name, monkeypatch):
    group = UPlus(_COMM14_INSTANCES[name])
    ms = MoufangSet(Quadrangle(group))
    calls = _count_comm24(monkeypatch)
    for monomial in (True, False):
        for r1, r2 in _comm14_inputs(group, 66 + monomial, monomial)[:6]:
            g4 = ms.quad.rho_r1(r1)
            p2, p3 = group.comm14(r1, g4)
            r3 = group.comm24(p2, g4)
            c24 = group.comm24(R2Coord(r2.u + p2.u, r2.v + p2.v, ZERO), g4)
            want = fields.theta_k(r2.a) + p3.b + r3.b + c24.b
            calls.clear()
            assert ms.embed_derived(r1, r2).g3.b == want, (r1, r2)
            assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(_COMM14_INSTANCES))
def test_collinear_p2_p3_matches_two_corrections(name, monkeypatch):
    group = UPlus(_COMM14_INSTANCES[name])
    quad = Quadrangle(group)
    ms = MoufangSet(quad)
    calls = _count_comm24(monkeypatch)
    rng = Rng(68)
    for monomial in (True, False):
        pairs = _comm14_inputs(group, 68 + monomial, monomial)
        for (kb, k), (_, k2) in zip(pairs[:6], pairs[6:]):
            on_line = quad.point_on_line(QLine((k, kb, k2)), ms.sample_r1(rng, 1))
            sampled = QPoint((ms.sample_r1(rng, 1), ms.sample_r2(rng, 1),
                              ms.sample_r1(rng, 1)))
            for b, collinear in ((on_line, True), (sampled, False)):
                pa, pl, pa2 = b.coords
                p2, p3 = group.comm14(pa, k)
                kk = pl + group.comm13(pa, pa2) + p2
                joined = (p3 + group.comm24(p2, k)
                          == pa2 + kb + group.comm24(kk, k))
                assert joined == collinear, (k, kb, b)
                want = QLine((k, kb, kk)) if joined else None
                calls.clear()
                assert quad.collinear(QPoint((k, kb)), b) == want, (k, kb, b)
                assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(_COMM14_INSTANCES),
                         ids=lambda name: f"{name}-3")
def test_line_transversal_is_the_collected_product(name):
    # u2(k') u3(b) u4(k) is in normal order, so collecting it changes nothing
    group = UPlus(_COMM14_INSTANCES[name])
    quad = Quadrangle(group)
    for monomial in (True, False):
        pairs = _comm14_inputs(group, 69 + monomial, monomial)
        for (b, k), (_, k2) in zip(pairs[:6], pairs[6:]):
            want = group.mul(group.mul(group.pure2(k2), group.pure3(b)),
                             group.pure4(k))
            assert quad.transversal(QLine((k, b, k2))) == want, (k, b, k2)


def test_comm14_one_pass_takes_no_gcd(monkeypatch):
    gcds, forbidden = [], []

    def counted(p, q, _gcd=fields.poly_gcd):
        gcds.append((p, q))
        return _gcd(p, q)

    group = UPlus(default_instance())
    pairs = _comm14_inputs(group, 52, True)
    monkeypatch.setattr(fields, "poly_gcd", counted)
    monkeypatch.setattr(FieldInstance, "lmul", lambda *a: forbidden.append(a))
    for p, q in pairs:
        group.relation4(p, q)
    assert not gcds and not forbidden
    # comm14 takes that path; only the L' check of its result adds in K
    for p, q in pairs:
        group.comm14(p, q)
    assert not forbidden


def test_relation4_on_candidate_takes_no_lmul(monkeypatch):
    # beta^-1 = 1 / (s (s + 1)) on the candidate: relation (4) still runs
    # on raw values, not on L products
    inst, calls = _COMM14_INSTANCES["candidate"], []
    pairs = (_comm14_inputs(UPlus(inst), 54, True)
             + _comm14_inputs(UPlus(inst), 55, False))
    lmul = FieldInstance.lmul
    monkeypatch.setattr(FieldInstance, "lmul",
                        lambda *a: calls.append(a) or lmul(*a))
    group = UPlus(inst)
    for p, q in pairs:
        group.relation4(p, q)
    assert not calls


@pytest.mark.parametrize("name", sorted(_COMM14_INSTANCES))
def test_solvers_invert_comm14(name):
    group = UPlus(_COMM14_INSTANCES[name])
    quad = Quadrangle(group)
    shift = R2Coord(LZ, LZ, K_S)  # s / D lies outside K'
    for monomial in (True, False):
        for p, k in _comm14_inputs(group, 60 + monomial, monomial):
            w, z = group.comm14(p, k)
            assert quad._solve_comm14_u2(p, w) == k, (p, k)
            assert quad._solve_comm14_u3(k, z) == p, (p, k)
            assert quad._solve_comm14_u2(p, w + shift) is None, (p, k)


@pytest.mark.parametrize("name", sorted(_COMM14_INSTANCES))
def test_relation4_slots_the_solvers_read(name):
    # the U2 a-slot at (u, v, 0) is additive and takes c to c^2, the U3
    # b-slot at (x, y, 0) is K-linear
    group = UPlus(_COMM14_INSTANCES[name])
    rel = group.relation4
    pairs = _comm14_inputs(group, 62, True) + _comm14_inputs(group, 63, False)
    for (p, q), (p2, q2) in zip(pairs, pairs[1:]):
        c = p2.b
        u2 = lambda u, v: rel(p, R2Coord(u, v, ZERO))[0].a
        u3 = lambda x, y: rel(R1Coord(x, y, ZERO), q)[1].b
        assert u2(q.u + q2.u, q.v + q2.v) == u2(q.u, q.v) + u2(q2.u, q2.v)
        assert (u2(fields.kscale(c, q.u), fields.kscale(c, q.v))
                == c.square() * u2(q.u, q.v))
        assert u3(p.x + p2.x, p.y + p2.y) == u3(p.x, p.y) + u3(p2.x, p2.y)
        assert u3(fields.kscale(c, p.x), fields.kscale(c, p.y)) == c * u3(p.x, p.y)
    # the trace terms lie in K for any L inputs, also outside L'
    ls = LElem(K_S)
    assert not group.inst.lprime_member(ls)
    for p, q in pairs:
        rel(R1Coord(LE, ls, ONE), q)
        rel(p, R2Coord(ls, LE, K_S))


def test_quadrangle_does_not_transcribe_relation4():
    # the solvers evaluate relation (4) through UPlus.relation4; an L
    # product in quadrangle.py would be a second copy of the formula
    hits = [f"{n}: {line.strip()}"
            for n, line in enumerate(Path(quadrangle.__file__).read_text()
                                     .splitlines(), 1)
            if re.search(r"\bl(mul|square|norm)\b", line)]
    assert not hits, hits


def _records(ms, seed):
    """One of each of the seven coordinate records, built from a label."""
    lab = ms.sample_label(Rng(seed), 1)
    flag = ms.flag_of_label(lab)
    return [lab.r1, lab.r2, ms.embed(lab), lab, flag.point, flag.line, flag]


def test_records_rebuilt_from_their_fields_are_the_same_key(ms):
    for rec in _records(ms, 80):
        assert not hasattr(rec, "__dict__"), type(rec).__name__  # slotted
        again = type(rec)(*(getattr(rec, f.name)
                            for f in dataclasses.fields(rec)))
        assert again is not rec
        assert again == rec and hash(again) == hash(rec)
        assert {rec: 1}[again] == 1
        assert str(again) == str(rec)
    assert str(R1Coord(LZ, LE, ONE)) == "(0, e, 1)"
    assert str(ms.infinity) == "inf"


def test_zero_operand_sums_give_the_other_operand(ms):
    rng = Rng(81)
    for _ in range(5):
        r1, r2 = ms.sample_r1(rng, 1), ms.sample_r2(rng, 1)
        z = sample_l_nonzero(rng, 1)
        for a, zero in ((r1, ms.group.r1_zero), (r2, ms.group.r2_zero),
                        (z, LZ)):
            assert a + zero == a and zero + a == a
            assert (a + a).is_zero()
    # a zero built afresh, not the shared one, is a zero operand too
    fresh = R1Coord(LElem(ZERO, ZERO), LElem(ZERO), KElem(P_ZERO))
    assert fresh + r1 is r1 and r1 + fresh is r1
    assert LElem(ZERO, ZERO) + z is z and z + LElem(ZERO, ZERO) is z
