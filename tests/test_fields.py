"""Field tower: K arithmetic, the twist maps, L, and instance validation."""

import pytest

from hypothesis import given, settings, strategies as st

from f4quad import fields, verifier
from f4quad.fields import (K_ONE, K_S, K_T, K_ZERO, L_E, L_ONE, L_ZERO,
                           FieldError, FieldInstance, KElem, LElem, _cancel,
                           default_instance, kprime_decompose, kprime_member,
                           kscale, phi_k, theta_k)
from f4quad.parser import parse_instance_text
from f4quad.polynomials import (P_ONE, P_S, P_T, P_ZERO, W, Poly2, _pack, _prs_gcd,
                                _sdeg, poly_divexact, poly_gcd)
from f4quad.sampling import (Rng, sample_k, sample_k_general, sample_l,
                             sample_lprime, sample_poly_nonzero)

S = K_S
T = K_T
ONE = K_ONE
ZERO = K_ZERO


@pytest.fixture(scope="module")
def inst():
    return default_instance()


def test_fraction_normalisation():
    ps, pt = P_S, P_T
    assert KElem(ps * ps + pt * pt, ps + pt) == S + T
    f = sample_k_general(Rng(0), 3)
    assert f + f == ZERO
    assert KElem(P_ONE, ps) * KElem(ps, pt) == KElem(P_ONE, pt)


def test_canonical_representation_is_unique():
    rng = Rng(5)
    for _ in range(60):
        a = sample_k_general(rng, 3)
        b = sample_k_general(rng, 3)
        left, right = a + b, b + a
        assert left == right and hash(left) == hash(right)
        assert left.num.terms() == right.num.terms()
        if not a.is_zero():
            assert (a * a.inv()).is_one()


def test_field_axioms_sampled():
    rng = Rng(6)
    for _ in range(40):
        a, b, c = (sample_k_general(rng, 2) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_inversion_of_zero_rejected():
    with pytest.raises(FieldError):
        ZERO.inv()


def test_phi_examples():
    assert phi_k(S * T) == KElem(Poly2.monomial(2, 1))
    st = S + T
    assert phi_k(phi_k(st)) == st * st
    assert theta_k(T) == S


def test_phi_is_homomorphism():
    rng = Rng(7)
    for _ in range(40):
        a, b = sample_k(rng, 3), sample_k(rng, 3)
        assert phi_k(a + b) == phi_k(a) + phi_k(b)
        assert phi_k(a * b) == phi_k(a) * phi_k(b)


def test_theta_domain_error():
    with pytest.raises(FieldError):
        theta_k(S)


def test_kprime_membership_examples():
    assert kprime_member(T)
    assert not kprime_member(S)
    g, h = kprime_decompose(T)
    assert g == T and h == ZERO
    g, h = kprime_decompose(S)
    assert g == ZERO and h == ONE


def test_kprime_decompose_derived_example():
    # 1/(s+t) = (s+t)/(s^2+t^2): even part t/(s^2+t^2), odd part 1/(s^2+t^2)
    f = ONE / (S + T)
    g, h = kprime_decompose(f)
    den = S * S + T * T
    assert g == T / den
    assert h == ONE / den
    assert g + S * h == f


def test_kprime_decompose_roundtrip():
    rng = Rng(8)
    for _ in range(40):
        f = sample_k_general(rng, 3)
        g, h = kprime_decompose(f)
        assert g + S * h == f
        assert kprime_member(g) and kprime_member(h)
        assert h.is_zero() == kprime_member(f)
        if kprime_member(f):
            assert phi_k(theta_k(f)) == f


def test_theta_phi_roundtrips():
    rng = Rng(9)
    for _ in range(40):
        f = sample_k(rng, 3)
        assert theta_k(phi_k(f)) == f
        fp = phi_k(sample_k(rng, 3))
        assert phi_k(theta_k(fp)) == fp


def _reduced_by_prs(num: Poly2, den: Poly2) -> tuple[Poly2, Poly2]:
    g = _prs_gcd(num, den)
    return poly_divexact(num, g), poly_divexact(den, g)


def test_cancel_matches_prs_reduction():
    # denominators 1, a monomial (no gcd is taken) and general ones
    rng = Rng(13)
    for k in range(90):
        num = sample_poly_nonzero(rng, 1 + k % 5, 5)
        mono = Poly2.monomial(rng.below(5), rng.below(5))
        common = sample_poly_nonzero(rng, 2, 3)
        for den in (P_ONE, mono, mono * sample_poly_nonzero(rng, 3, 4)):
            for n, d in ((num, den), (num * mono, den),
                         (num * common, den * common)):
                want = _reduced_by_prs(n, d)
                assert _cancel(n, d) == want, (n, d)
                f = KElem(n, d)
                assert (f.num, f.den) == want, (n, d)


def test_sum_over_unequal_denominators_is_nonzero_and_reduced():
    # KElem.__add__ makes no zero test once d1 != d2: canonical operands
    # with unequal denominators differ, and only a + a is 0 in char 2
    rng = Rng(31)
    samplers = (sample_k, sample_k_general)
    checked = 0
    for k in range(120):
        a = samplers[k % 2](rng, 3)
        b = samplers[k // 2 % 2](rng, 3)
        if a.den == b.den:
            continue
        r = a + b
        assert not r.is_zero(), (a, b)
        assert _prs_gcd(r.num, r.den).is_one(), (a, b)
        assert r == KElem(a.num * b.den + b.num * a.den, a.den * b.den)
        checked += 1
    assert checked > 60


_polys = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                  min_size=1, max_size=5).map(Poly2.from_terms)
_monomials = st.builds(Poly2.monomial, st.integers(0, 4), st.integers(0, 4))
_monomial_den = st.builds(KElem, _polys, _monomials)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_monomial_den, _monomial_den)
def test_monomial_denominators_stay_canonical(a, b):
    for r in (a + b, a * b, a * a + b):
        if not r.is_zero():
            assert _prs_gcd(r.num, r.den).is_one(), r
        assert KElem(r.num, r.den) == r
    for f in (a, b, a * b):
        assert theta_k(phi_k(f)) == f


def test_l_examples(inst):
    e = L_E
    assert inst.lnorm(e) == S + T  # e(e+1) = e^2 + e = delta
    assert (e + LElem(S)).trace() == ONE
    inv_e = inst.linv(e)
    assert inv_e == LElem(ONE / (S + T), ONE / (S + T))  # conj(e)/delta
    assert inst.lmul(e, inv_e) == L_ONE


def test_conjugation_properties(inst):
    rng = Rng(10)
    for _ in range(40):
        z, w = sample_l(rng, 3), sample_l(rng, 3)
        assert z.conj().conj() == z
        assert inst.lnorm(inst.lmul(z, w)) == inst.lnorm(z) * inst.lnorm(w)
        prod = inst.lmul(z, z.conj())
        assert prod.c1.is_zero()  # norm lands in K
        assert z + z.conj() == LElem(z.trace())


def test_phi_l_examples(inst):
    e = L_E
    assert inst.phi_l(e) == LElem(S, ONE)  # e + s
    twice = inst.phi_l(inst.phi_l(e))
    assert twice == LElem(S + T, ONE)  # e + s + t = e^2
    assert twice == inst.lsquare(e)


def test_lprime_membership_examples(inst):
    e = L_E
    assert not inst.lprime_member(e)
    assert inst.lprime_member(e + LElem(S))


def test_theta_l_roundtrips(inst):
    rng = Rng(11)
    for _ in range(30):
        z = sample_l(rng, 3)
        assert inst.theta_l(inst.phi_l(z)) == z
        zp = sample_lprime(inst, rng, 3)
        assert inst.phi_l(inst.theta_l(zp)) == zp


def test_tower_inclusions(inst):
    rng = Rng(12)
    for _ in range(30):
        a = sample_k(rng, 3)
        assert kprime_member(a.square())
        z = sample_l(rng, 3)
        assert inst.lprime_member(inst.lsquare(z))
        assert inst.lprime_member(LElem(phi_k(a)))


def test_pow2theta_examples(inst):
    # x^(2 theta) = theta(x^2) is the twist phi, on K and on L
    assert theta_k(S.square()) == phi_k(S) == T
    assert inst.phi_l(L_E) == LElem(S, ONE)
    # the image of beta under the twist is alpha
    assert phi_k(inst.beta) == inst.alpha == T


def test_default_instance_validates(inst):
    rep = inst.validate(seed=0, samples=15, max_degree=3)
    assert rep.ok, [c for c in rep.checks if not c.passed]


def test_broken_instance_reported():
    bad = FieldInstance(delta=S + T, phi_e=LElem(S, ONE), beta=S, alpha=S)
    rep = bad.validate(seed=0, samples=5, max_degree=2)
    assert not rep.ok
    names = {c.name for c in rep.checks if not c.passed}
    assert "alpha-is-twist-of-beta" in names


def test_anisotropy_counterexample_transfer():
    # beta = 1 makes the first form isotropic: (1, 0, 1) is a zero, and
    # zeros of either form map through the twist onto zeros of the other
    degenerate = FieldInstance(delta=S + T, phi_e=LElem(S, ONE),
                               beta=ONE, alpha=ONE)
    assert degenerate.form1(L_ONE, L_ZERO, ONE).is_zero()
    assert degenerate.form2(L_ONE, L_ZERO, ONE).is_zero()
    rep = degenerate.validate(seed=0, samples=400, max_degree=1)
    probes = {c.name: c.passed for c in rep.checks}
    assert probes["anisotropy-form1-probe"] is False
    assert probes.get("counterexample-transfers-1to2", False)


def test_alternative_instance_isotropy_detected():
    # delta = t + s^2 with phi(e) = e + t and beta = t is structurally
    # sound (twist law, alpha = phi(beta)), but its first form has the
    # nontrivial zero (s + e, 1 + e/s, 0); the probe must find one and
    # any zero it reports must be genuine and transfer to the other form
    inst = parse_instance_text(
        "delta = t + s^2\nphiE = e + t\nbeta = t\nalpha = s^2\n")
    u = LElem(S, ONE)
    v = LElem(ONE, ONE / S)
    assert inst.form1(u, v, ZERO).is_zero()
    assert inst.form2(inst.phi_l(u), inst.phi_l(v), ZERO).is_zero()
    rep = inst.validate(seed=0, samples=300, max_degree=1)
    structural = {c.name: c.passed for c in rep.checks}
    assert structural["twist-squared-is-frobenius"]
    assert structural["alpha-is-twist-of-beta"]
    # a zero of either form is a zero of form1 through the twist; which
    # probe reaches one first depends on the draws
    found = [(a, b) for a, b in (("form1", "1to2"), ("form2", "2to1"))
             if structural[f"anisotropy-{a}-probe"] is False]
    assert found
    for _, transfer in found:
        assert structural[f"counterexample-transfers-{transfer}"]


# Reference copies of the probe loops as they stood before the probes were
# shared between FieldInstance.validate and the fields suite, and of the
# twist-law loops that validate ran before it decided those laws.

def _ref_twist_loop(inst, rng, samples, max_degree):
    for _ in range(samples):
        f = sample_k(rng, max_degree)
        if phi_k(phi_k(f)) != f.square():
            return "K", f
        z = sample_l(rng, max_degree)
        if inst.phi_l(inst.phi_l(z)) != inst.lsquare(z):
            return "L", z
    return None


def _ref_conj_loop(inst, rng, samples, max_degree):
    for _ in range(4 if inst.phi_e.c1.is_one() else samples):
        z = sample_l(rng, max_degree)
        if inst.phi_l(z.conj()) != inst.phi_l(z).conj():
            return False
    return True


def _ref_form_probe(inst, rng, samples, max_degree, form):
    for _ in range(samples):
        if form == 1:
            u = sample_l(rng, max_degree)
            v = sample_l(rng, max_degree)
            a = phi_k(sample_k(rng, max_degree))
        else:
            u = inst.phi_l(sample_l(rng, max_degree))
            v = inst.phi_l(sample_l(rng, max_degree))
            a = sample_k(rng, max_degree)
        if u.is_zero() and v.is_zero() and a.is_zero():
            continue
        if (inst.form1 if form == 1 else inst.form2)(u, v, a).is_zero():
            return (u, v, a)
    return None


def _ref_anisotropy_check(inst, rng, samples, deg):
    for _ in range(samples * 5):
        cx = _ref_form_probe(inst, rng, 1, deg, 1)
        if cx is not None:
            return False, "form1 zero at (%s, %s, %s)" % cx
        cx = _ref_form_probe(inst, rng, 1, deg, 2)
        if cx is not None:
            return False, "form2 zero at (%s, %s, %s)" % cx
    return True, None


PROBE_CASES = {
    "default": default_instance,
    # the isotropic instances of the two tests above
    "beta-alpha-one": lambda: FieldInstance(
        delta=S + T, phi_e=LElem(S, ONE), beta=ONE, alpha=ONE),
    "delta-t-s2": lambda: parse_instance_text(
        "delta = t + s^2\nphiE = e + t\nbeta = t\nalpha = s^2\n"),
    # phi(e) = e + t breaks the twist law
    "bad-phiE": lambda: FieldInstance(
        delta=S + T, phi_e=LElem(T, ONE), beta=S, alpha=T),
    # phi(e) satisfies its minimal polynomial, but phi(phi(e)) = e^2 + 1
    "delta-s-t-1": lambda: FieldInstance(
        delta=S + T + ONE, phi_e=LElem(S, ONE), beta=S, alpha=T),
    # phi(e) = s e does not commute with conjugation
    "phiE-s-e": lambda: FieldInstance(
        delta=S + T, phi_e=LElem(ZERO, S), beta=S, alpha=T),
}


@pytest.mark.parametrize("case", list(PROBE_CASES))
def test_shared_probes_draw_as_the_loops_they_replace(case):
    inst = PROBE_CASES[case]()
    samples, max_degree = 60, 1
    ctx = verifier.RunContext(verifier.SuiteConfig(
        samples=samples, max_degree=max_degree, instance=inst))
    witnesses = 0
    for seed in range(3):
        notes = {c.name: (c.passed, c.note) for c in
                 inst.validate(seed, samples, max_degree).checks}
        # the decided twist laws give the sampled loops' verdicts
        rng = Rng(seed)
        miss = _ref_twist_loop(inst, rng, samples, max_degree)
        assert notes["twist-squared-is-frobenius"][0] is (miss is None)
        assert notes["twist-commutes-with-conjugation"][0] is _ref_conj_loop(
            inst, rng, samples, max_degree)
        # the form probes take the first draws of Rng(seed)
        rng = Rng(seed)
        cx1, cx2 = (_ref_form_probe(inst, rng, samples, max_degree, form)
                    for form in (1, 2))
        for form, cx in (("form1", cx1), ("form2", cx2)):
            assert notes[f"anisotropy-{form}-probe"] == (
                (True, "no nontrivial zero found (evidence, not proof)")
                if cx is None else (False, f"counterexample: {cx}"))

        # the fields suite's checks on their own streams
        ref, rng = Rng(seed), Rng(seed)
        miss = _ref_twist_loop(inst, ref, samples, max_degree)
        assert verifier._chk_twist_square(ctx, rng) == (
            (True, None) if miss is None else (False, "%s sample %s" % miss))
        assert rng.state == ref.state
        ref, rng = Rng(seed), Rng(seed)
        want = _ref_anisotropy_check(inst, ref, samples, min(2, max_degree))
        assert verifier._chk_anisotropy(ctx, rng) == want
        assert rng.state == ref.state
        witnesses += (miss, cx1, cx2, want[1]).count(None) < 4
    assert witnesses == (0 if case == "default" else 3)


@pytest.mark.parametrize("case, failed", [
    # delta = s + t + 1 keeps phi(e) = e + s a root of the image of e's
    # minimal polynomial, so phi(phi(e)) is e^2 or e^2 + 1; it is e^2 + 1
    ("delta-s-t-1", {"twist-squared-is-frobenius": "residue: 1"}),
    # with the minimal polynomial, phi(e) has e-coordinate 0 or 1, so
    # conjugation cannot fail alone
    ("phiE-s-e", {
        "phiE-satisfies-image-minimal-polynomial":
            "residue: s^3 + s^2*t + s^2 + t + (s^2 + s)*e",
        "twist-squared-is-frobenius": "residue: s + t + (s*t + 1)*e",
        "twist-commutes-with-conjugation": ""}),
])
def test_decided_twist_laws_fail_where_broken(case, failed):
    decided = {c.name: c.note for c in PROBE_CASES[case]().validate(0, 2, 1).checks
               if not c.passed and not c.name.startswith("anisotropy")}
    assert decided == failed


def test_artin_schreier_root_detected():
    # delta = s^2 + s has the obvious root x = s
    degenerate = FieldInstance(delta=S * S + S, phi_e=LElem(S, ONE),
                               beta=S, alpha=T)
    rep = degenerate.validate(seed=0, samples=2, max_degree=2)
    bad = {c.name for c in rep.checks if not c.passed}
    assert "irreducible-artin-schreier" in bad


def _searched_artin_schreier_root(inst, max_degree):
    """The exhaustive search the exact decision replaced: every p of total
    degree <= max_degree, over q with q^2 the denominator of delta."""
    n, d = inst.delta.num, inst.delta.den
    if not d.all_exponents_even():
        return None
    q = d.sqrt()
    monos = [(i, j) for i in range(max_degree + 1)
             for j in range(max_degree + 1 - i)]
    for bits in range(1 << len(monos)):
        p = Poly2.from_terms(m for k, m in enumerate(monos) if bits >> k & 1)
        if p.square() + p * q + n == P_ZERO:
            return KElem(p, q)
    return None


def _with_delta(delta):
    return FieldInstance(delta=delta, phi_e=LElem(S, ONE), beta=S, alpha=T)


def test_artin_schreier_decision_agrees_with_search():
    # half the deltas are r^2 + r, so have a root; the rest are shifted
    # by a polynomial, which keeps the denominator a square
    rng = Rng(5)
    found = 0
    for k in range(40):
        r = sample_k(rng, 1)
        shift = KElem(sample_poly_nonzero(rng, 2), P_ONE) if k % 2 else ZERO
        inst = _with_delta(r.square() + r + shift)
        root = inst._artin_schreier_root()
        assert (root is None) == (_searched_artin_schreier_root(inst, 3) is None)
        if root is not None:
            assert root.square() + root == inst.delta
            found += 1
    assert found == 20


def test_artin_schreier_root_past_the_search_degree():
    # s^4 + t is a root, one degree past what the degree-3 search reaches
    inst = _with_delta(S ** 8 + S ** 4 + T ** 2 + T)
    assert _searched_artin_schreier_root(inst, 3) is None
    root = inst._artin_schreier_root()
    assert root in (S ** 4 + T, S ** 4 + T + ONE)
    bad = {c.name for c in inst.validate(samples=2, max_degree=2).checks
           if not c.passed}
    assert "irreducible-artin-schreier" in bad


@pytest.mark.parametrize("delta, has_root", [
    (S + T, False),
    ((S * S + S * T) / (T * T), True),  # (s/t)^2 + s/t
    (S / T, False),  # t is not a square
    (S ** 3 / T ** 2, False),
])
def test_artin_schreier_fractional_delta(delta, has_root):
    root = _with_delta(delta)._artin_schreier_root()
    assert (root is not None) == has_root
    if has_root:
        assert root.square() + root == delta


def test_kscale():
    # sample_k gives monomial denominators, sample_k_general others
    rng = Rng(13)
    for sample in (sample_k, sample_k_general):
        for _ in range(40):
            k = sample(rng, 2)
            z = sample_l(rng, 2)
            assert kscale(k, z) == LElem(k * z.c0, k * z.c1), (k, z)


def test_square_is_reduced():
    # the square of a reduced fraction is reduced: gcd(a^2, b^2) = 1
    rng = Rng(17)
    for _ in range(60):
        f = sample_k_general(rng, 3)
        assert f.square() == KElem(f.num.square(), f.den.square()), f
        g = KElem(sample_poly_nonzero(rng, 3, 4),
                  P_S + P_T * sample_poly_nonzero(rng, 2, 3))
        sq = g.square()
        assert (sq.num, sq.den) == _reduced_by_prs(g.num.square(),
                                                   g.den.square()), g


def _trusted_results(f):
    """(result, (num, den)) for each result that phi_k, theta_k, inv and
    a factor 1 wrap as reduced without reducing it, with the fraction
    it stands for before any reduction."""
    pf, g = phi_k(f), kprime_decompose(f)[0]
    out = [(pf, (f.num.subst_phi(), f.den.subst_phi())),
           (theta_k(pf), (pf.num.subst_theta(), pf.den.subst_theta())),
           (theta_k(g), (g.num.subst_theta(), g.den.subst_theta())),
           (ONE * f, (f.num, f.den)), (f * ONE, (f.num, f.den))]
    if f:
        out.append((f.inv(), (f.den, f.num)))
    return out


def _shared_factor_inputs(rng):
    """Fractions whose numerator and denominator both carry powers of s
    and t (and s + 1, t + 1) before reduction."""
    base = (P_S, P_T, P_S + P_ONE, P_T + P_ONE)
    for _ in range(60):
        num = sample_poly_nonzero(rng, 3, 4)
        den = sample_poly_nonzero(rng, 3, 4)
        for _ in range(3):
            num = num * base[rng.below(4)]
            den = den * base[rng.below(4)]
        yield KElem(num, den)


def test_trusted_images_are_canonical():
    rng = Rng(21)
    inputs = [sample_k_general(rng, d) for d in range(1, 7) for _ in range(40)]
    inputs += list(_shared_factor_inputs(rng))
    for f in inputs:
        for r, (num, den) in _trusted_results(f):
            assert poly_gcd(r.num, r.den).is_one(), (f, r)
            assert _prs_gcd(r.num, r.den).is_one(), (f, r)
            # the same canonical pair as reducing the unreduced fraction
            want = _cancel(num, den) if num else (P_ZERO, P_ONE)
            assert (r.num, r.den) == want, (f, r)
            assert KElem(num, den) == r, (f, r)
    assert ONE * inputs[0] is inputs[0] and inputs[0] * ONE is inputs[0]


def _k_of_kind(rng, kind):
    """0, or a K value whose denominator is 1 (kind 1), a monomial
    (kind 2) or a non-monomial (kind 3) before reduction."""
    if kind == 0:
        return ZERO
    den = (P_ONE, Poly2.monomial(rng.below(4), rng.below(4)),
           P_S + P_T * sample_poly_nonzero(rng, 2, 3))[kind - 1]
    return KElem(sample_poly_nonzero(rng, 3, 4), den)


def _l_values(rng):
    """One L value per pair of coordinate kinds, zero coordinates too."""
    return [LElem(_k_of_kind(rng, k0), _k_of_kind(rng, k1))
            for k0 in range(4) for k1 in range(4)]


_INSTANCES = (
    default_instance(),
    # delta over a monomial and over a non-monomial
    FieldInstance(delta=KElem(P_S + P_T.square(), P_S),
                  phi_e=LElem(S, ONE), beta=S, alpha=T),
    FieldInstance(delta=KElem(P_T, P_S + P_ONE),
                  phi_e=LElem(S, ONE), beta=S, alpha=T),
)


@pytest.mark.parametrize("inst", _INSTANCES, ids=("default", "delta-over-s",
                                                  "delta-over-s+1"))
def test_l_ops_match_k_formula(inst):
    # the raw arithmetic against the formulas in K, written out
    rng = Rng(29)
    d = inst.delta
    zs, ws = _l_values(rng), _l_values(rng)
    for z in zs:
        a0, a1 = z.c0, z.c1
        assert inst.lnorm(z) == a0 * a0 + a0 * a1 + d * a1 * a1, z
        assert inst.lsquare(z) == LElem(a0 * a0 + d * a1 * a1, a1 * a1), z
        for w in ws:
            b0, b1 = w.c0, w.c1
            want = LElem(a0 * b0 + d * a1 * b1, a0 * b1 + a1 * b0 + a1 * b1)
            assert inst.lmul(z, w) == want, (z, w)
            assert inst.lmul(w, z) == want, (w, z)
            assert kscale(a1, w) == LElem(a1 * b0, a1 * b1), (a1, w)
            assert kscale(b0, z) == LElem(b0 * a0, b0 * a1), (b0, z)


def test_l_fast_path_takes_no_gcd(monkeypatch):
    calls = []

    def counted(p, q, _gcd=fields.poly_gcd):
        calls.append((p, q))
        return _gcd(p, q)

    monkeypatch.setattr(fields, "poly_gcd", counted)
    inst = default_instance()
    rng = Rng(31)
    for _ in range(40):
        z = LElem(_k_of_kind(rng, 1 + rng.below(2)),
                  _k_of_kind(rng, 1 + rng.below(2)))
        w = LElem(_k_of_kind(rng, 2), _k_of_kind(rng, 2))
        inst.lmul(z, w)
        inst.lnorm(z)
        inst.lsquare(w)
        kscale(w.c0, z)
    assert not calls
    # a general denominator reaches the gcd through the lcm of two
    # different g parts and through _over's _cancel
    g = LElem(_k_of_kind(rng, 3), _k_of_kind(rng, 3))
    inst.lmul(g, LElem(ONE, S))
    assert calls
    calls.clear()
    inst.lnorm(g)
    assert calls


def test_monomial_denominators_share_the_one():
    # _over and _gmul take the monomial path on `g is P_ONE`; a second
    # Poly2 equal to 1 would send every reduction through _cancel, which
    # makes no gcd call for a monomial, so no gcd count would show it
    num = P_S + P_T + P_ONE
    dens = (P_ONE, P_S, P_T, Poly2.monomial(2, 1))
    for d in dens:
        assert fields._kraw(KElem(num, d))[4] is P_ONE, d
        for d1 in dens:
            z = LElem(KElem(num, d), KElem(num * num, d1))
            assert fields._shared(z)[4] is P_ONE, (d, d1)
    assert default_instance()._raw(W, "delta")[4] is P_ONE
    # a factor 1 gives the other operand back, monomials included
    rng = Rng(47)
    polys = [sample_poly_nonzero(rng, 3, 4) for _ in range(20)]
    for p in list(dens) + polys:
        assert P_ONE * p is p and p * P_ONE is p, p


def test_polar_is_trace_of_product_with_conjugate():
    # tr(z conj(w)) = z0 w1 + z1 w0 on fractional coordinates of every kind
    rng = Rng(37)
    for inst in _INSTANCES:
        for _ in range(70):
            z = LElem(_k_of_kind(rng, rng.below(4)), _k_of_kind(rng, rng.below(4)))
            w = LElem(_k_of_kind(rng, rng.below(4)), _k_of_kind(rng, rng.below(4)))
            polar = fields._over(fields._rpolar(fields._shared(z),
                                                fields._shared(w)))
            assert polar == inst.lmul(z, w.conj()).trace(), (z, w)
            assert polar == z.c0 * w.c1 + z.c1 * w.c0, (z, w)


def test_raw_sums_and_products_over_g():
    # g parts with a repeated factor, (s + 1)^2 against (s + 1)(t + 1), and
    # (t + 1)^3 against 1, each with monomial parts; numerators share
    # factors with them, so _over has something to cancel
    s1, t1 = P_S + P_ONE, P_T + P_ONE
    rng = Rng(43)
    inst = _INSTANCES[2]  # delta over s + 1

    def raw(g, i, j, kval):
        num = [sample_poly_nonzero(rng, 2, 3) * (s1, t1, P_S)[rng.below(3)]
               for _ in range(2)]
        if kval:
            num[1] = P_ZERO
        A0, A1 = (_pack(n, W) for n in num)
        z = (A0, A1, i, j, g, _sdeg(A0 | A1, W))
        den = g.shift(i, j)
        return z, LElem(KElem(num[0], den), KElem(num[1], den))

    for G, H in ((s1.square(), s1 * t1), (t1 * t1 * t1, P_ONE)):
        for (g, i, j), (h, k, m) in (((G, 0, 0), (H, 0, 0)),
                                     ((G, 2, 1), (H, 0, 3)),
                                     ((H, 1, 0), (G, 1, 2))):
            (f, fk), (f2, f2k) = raw(g, i, j, True), raw(h, k, m, True)
            (z, zl), (w, wl) = raw(g, i, j, False), raw(h, k, m, False)
            a0, a1, b0, b1 = zl.c0, zl.c1, wl.c0, wl.c1
            d = inst.delta
            got = [(fields._over(fields._radd(f, f2)), fk.c0 + f2k.c0),
                   (fields._over(fields._rscale(f, f2)), fk.c0 * f2k.c0),
                   (fields._lover(fields._radd(z, w)), zl + wl),
                   (fields._lover(fields._rscale(f, w)),
                    LElem(fk.c0 * b0, fk.c0 * b1)),
                   (fields._lover(inst._rmul(z, w)),
                    LElem(a0 * b0 + d * a1 * b1, a0 * b1 + a1 * b0 + a1 * b1)),
                   (fields._lover(inst._rsquare(w)),
                    LElem(b0 * b0 + d * b1 * b1, b1 * b1)),
                   (fields._over(inst._rnorm(z)),
                    a0 * a0 + a0 * a1 + d * a1 * a1),
                   (fields._lover(fields._shared(zl + wl)), zl + wl)]
            for r, want in got:
                assert r == want, (g, h, r, want)
                for c in (r.c0, r.c1) if isinstance(r, LElem) else (r,):
                    assert _prs_gcd(c.num, c.den).is_one(), (g, h, c)
