"""Incidence geometry: chains, actions, projections, the polarity."""

import pytest

from f4quad.fields import K_ONE, K_S, K_T, K_ZERO, L_ZERO, default_instance
from f4quad.moufang import MoufangSet
from f4quad.parser import parse_instance_text
from f4quad.quadrangle import (ProjectionUnsupported, QLine, QPoint, Quadrangle,
                               solve_linear_k)
from f4quad.rootgroups import R1Coord, R2Coord, UPlus, UPlusElem
from f4quad.sampling import Rng, sample_k_general


@pytest.fixture(scope="module")
def quad():
    return Quadrangle(UPlus(default_instance()))


@pytest.fixture(scope="module")
def ms(quad):
    return MoufangSet(quad)


def rand_elem(ms, rng, deg=1):
    return UPlusElem(ms.sample_r1(rng, deg), ms.sample_r2(rng, deg),
                     ms.sample_r1(rng, deg), ms.sample_r2(rng, deg))


def test_base_incidences(quad, ms):
    rng = Rng(40)
    k = ms.sample_r2(rng, 1)
    a = ms.sample_r1(rng, 1)
    assert quad.incident(quad.pt_inf, quad.ln_inf)
    assert quad.incident(quad.pt_inf, QLine((k,)))
    assert quad.incident(QPoint((a,)), quad.ln_inf)
    assert not quad.incident(QPoint((a,)), QLine((k,)))
    assert quad.incident(QPoint((k, a)), QLine((k,)))
    assert quad.incident(QPoint((a,)), QLine((a, k)))
    assert quad.incident(quad.zero_point, quad.zero_line)
    assert not quad.incident(quad.pt_inf, quad.zero_line)
    assert not quad.incident(quad.zero_point, quad.ln_inf)


def test_hat_rack_cycle(quad):
    # the base apartment is an eight-cycle
    g = quad.group
    z1, z2 = g.r1_zero, g.r2_zero
    p0, l0 = quad.zero_point, quad.zero_line
    p2, l3 = QPoint((z2, z1)), QLine((z2,))
    p1l = QPoint((z1,))
    l00 = QLine((z1, z2))
    assert quad.incident(p0, l0)
    assert quad.incident(p2, l0)
    assert quad.incident(p2, l3)
    assert quad.incident(quad.pt_inf, l3)
    assert quad.incident(quad.pt_inf, quad.ln_inf)
    assert quad.incident(p1l, quad.ln_inf)
    assert quad.incident(p1l, l00)
    assert quad.incident(p0, l00)


def test_action_identity_and_composition(quad, ms):
    rng = Rng(41)
    g = quad.group
    for _ in range(8):
        x, y = rand_elem(ms, rng), rand_elem(ms, rng)
        f = ms.flag_of_label(ms.sample_label(rng, 1))
        for el in (f.point, f.line, quad.pt_inf, quad.ln_inf):
            assert quad.act(el, g.identity) == el
        assert (quad.act_point(quad.act_point(f.point, x), y)
                == quad.act_point(f.point, g.mul(x, y)))
        assert (quad.act_line(quad.act_line(f.line, x), y)
                == quad.act_line(f.line, g.mul(x, y)))


def test_action_preserves_incidence(quad, ms):
    rng = Rng(42)
    for _ in range(8):
        x = rand_elem(ms, rng)
        f = ms.flag_of_label(ms.sample_label(rng, 1))
        assert quad.incident(quad.act_point(f.point, x),
                             quad.act_line(f.line, x))
        m = QLine((ms.sample_r2(rng, 1),))
        assert quad.incident(quad.pt_inf, quad.act_line(m, x))


def test_point_orbits_partition(quad, ms):
    rng = Rng(43)
    x = rand_elem(ms, rng)
    assert quad.act_point(quad.pt_inf, x) == quad.pt_inf
    a = ms.sample_r1(rng, 1)
    img = quad.act_point(QPoint((a,)), x)
    assert len(img.coords) == 1 and img.coords[0] == a + x.g1
    img = quad.act_line(QLine((ms.sample_r2(rng, 1),)), x)
    assert len(img.coords) == 1


def test_projection_of_infinity(quad, ms):
    rng = Rng(44)
    for _ in range(6):
        f = ms.flag_of_label(ms.sample_label(rng, 1))
        got = quad.project(quad.pt_inf, f.line)
        assert got == QPoint(f.line.coords[:2])


def test_projection_onto_inf_line(quad, ms):
    # the projection of the zero-flag point onto [inf] is the point (0):
    # the chain runs zero point I [0,0] I (0) I [inf]
    got = quad.project(quad.zero_point, quad.ln_inf)
    assert got == QPoint((quad.group.r1_zero,))
    rng = Rng(45)
    f = ms.flag_of_label(ms.sample_label(rng, 1))
    assert quad.project(f.point, quad.ln_inf) == QPoint(f.point.coords[:1])


def test_projection_incident_pair_rejected(quad):
    with pytest.raises(ValueError):
        quad.project(quad.pt_inf, quad.ln_inf)


def test_projection_lands_and_joins(quad, ms):
    rng = Rng(46)
    for _ in range(5):
        f = ms.flag_of_label(ms.sample_label(rng, 1))
        pts = (quad.pt_inf, QPoint((ms.sample_r1(rng, 1),)),
               QPoint((ms.sample_r2(rng, 1), ms.sample_r1(rng, 1))))
        # a maximal point projects onto a line [a,l] too (the U3 part of
        # comm14 lands in the foot's last slot)
        line2 = QLine((ms.sample_r1(rng, 1), ms.sample_r2(rng, 1)))
        maximal = ms.flag_of_label(ms.sample_label(rng, 1)).point
        for m, ps in ((f.line, pts), (line2, pts + (maximal,))):
            for p in ps:
                if quad.incident(p, m):
                    continue
                foot = quad.project(p, m)
                assert quad.incident(foot, m)
                join = quad.collinear(p, foot)
                assert join is not None
                assert quad.incident(p, join) and quad.incident(foot, join)


def test_projection_uniqueness_scan(quad, ms):
    # brute force: at most one point of a sampled stretch of a line's
    # point row is collinear with an outside point
    rng = Rng(47)
    for _ in range(4):
        f = ms.flag_of_label(ms.sample_label(rng, 1))
        outside = ms.flag_of_label(ms.sample_label(rng, 1)).point
        if quad.incident(outside, f.line):
            continue
        row = [QPoint(f.line.coords[:2])]
        row += [quad.point_on_line(f.line, ms.sample_r1(rng, 1))
                for _ in range(4)]
        hits = sum(1 for cand in row
                   if cand != outside and quad.collinear(outside, cand))
        assert hits <= 1


def test_projection_gap_is_reported(quad, ms):
    # a maximal point in general position over a maximal line is the one
    # documented unsupported configuration
    rng = Rng(48)
    hit = False
    for _ in range(10):
        p = ms.flag_of_label(ms.sample_label(rng, 1)).point
        if quad.incident(p, quad.zero_line):
            continue
        try:
            quad.project(p, quad.zero_line)
        except ProjectionUnsupported:
            hit = True
            break
    assert hit


def test_suzuki_tits_projection_closed(quad):
    # inside the Suzuki-Tits restriction the same configuration solves
    g = quad.group
    lz = L_ZERO
    p = QPoint((R1Coord(lz, lz, K_ONE),
                R2Coord(lz, lz, K_T),
                R1Coord(lz, lz, K_S)))
    foot = quad.project(p, quad.zero_line)
    assert quad.incident(foot, quad.zero_line)
    assert quad.collinear(p, foot) is not None


def test_collinearity_cases(quad, ms):
    rng = Rng(49)
    a = ms.sample_r1(rng, 1)
    b = ms.sample_r1(rng, 1)
    assert quad.collinear(quad.pt_inf, QPoint((a,))) == quad.ln_inf
    k = ms.sample_r2(rng, 1)
    assert quad.collinear(quad.pt_inf, QPoint((k, a))) == QLine((k,))
    f = ms.flag_of_label(ms.sample_label(rng, 1))
    assert quad.collinear(quad.pt_inf, f.point) is None
    # symmetry on sampled pairs
    for _ in range(5):
        p = ms.flag_of_label(ms.sample_label(rng, 1)).point
        q = ms.flag_of_label(ms.sample_label(rng, 1)).point
        if p == q:
            continue
        l1 = quad.collinear(p, q)
        l2 = quad.collinear(q, p)
        assert (l1 is None) == (l2 is None)
        if l1 is not None:
            assert l1 == l2
    with pytest.raises(ValueError):
        quad.collinear(quad.pt_inf, quad.pt_inf)


def test_point_row_lies_on_line(quad, ms):
    rng = Rng(50)
    f = ms.flag_of_label(ms.sample_label(rng, 1))
    for _ in range(4):
        pt = quad.point_on_line(f.line, ms.sample_r1(rng, 1))
        assert quad.incident(pt, f.line)


def test_polarity_base_and_involution(quad, ms):
    assert quad.rho_point(quad.pt_inf) == quad.ln_inf
    assert quad.rho_line(quad.ln_inf) == quad.pt_inf
    assert quad.rho_point(quad.zero_point) == quad.zero_line
    rng = Rng(51)
    for _ in range(8):
        f = ms.flag_of_label(ms.sample_label(rng, 1))
        a = f.point.coords[0]
        k = f.line.coords[0]
        for p in (QPoint((a,)), QPoint((k, f.line.coords[1])), f.point):
            assert quad.rho_line(quad.rho_point(p)) == p
        for m in (QLine((k,)), QLine((a, f.point.coords[1])), f.line):
            assert quad.rho_point(quad.rho_line(m)) == m


def test_polarity_slot_simplification(quad, ms):
    # rho o rho on a U1-type triple returns it exactly, using that the
    # twist of beta squared is alpha and theta undoes the doubled twist
    rng = Rng(52)
    for _ in range(10):
        c = ms.sample_r1(rng, 2)
        assert quad.rho_r2(quad.rho_r1(c)) == c
        d = ms.sample_r2(rng, 2)
        assert quad.rho_r1(quad.rho_r2(d)) == d


def test_polarity_reverses_incidence(quad, ms):
    rng = Rng(53)
    for _ in range(6):
        f = ms.flag_of_label(ms.sample_label(rng, 1))
        pts = [quad.pt_inf, QPoint(f.point.coords[:1]),
               QPoint(f.line.coords[:2]), f.point]
        lns = [quad.ln_inf, QLine(f.line.coords[:1]),
               QLine(f.point.coords[:2]), f.line]
        for p in pts:
            for m in lns:
                assert quad.incident(p, m) == quad.incident(
                    quad.rho_line(m), quad.rho_point(p))


def test_rho_star_group_twist(quad, ms):
    rng = Rng(54)
    g = quad.group
    for _ in range(8):
        x, y = rand_elem(ms, rng), rand_elem(ms, rng)
        assert quad.rho_star(g.mul(x, y)) == g.mul(quad.rho_star(x),
                                                   quad.rho_star(y))
        assert quad.rho_star(quad.rho_star(x)) == x


def test_rho_conjugation_matches_action(quad, ms):
    # rho(x^g) = rho(x)^(rho_star(g)) on sampled configurations
    rng = Rng(55)
    for _ in range(6):
        x = rand_elem(ms, rng)
        f = ms.flag_of_label(ms.sample_label(rng, 1))
        lhs = quad.rho_point(quad.act_point(f.point, x))
        rhs = quad.act_line(quad.rho_point(f.point), quad.rho_star(x))
        assert lhs == rhs


def test_absolute_flags(quad, ms):
    assert quad.is_absolute(quad.inf_flag)
    assert quad.is_absolute(quad.zero_flag)
    rng = Rng(56)
    for _ in range(8):
        f = ms.flag_of_label(ms.sample_label(rng, 1))
        assert quad.is_absolute(f)
    # a generic flag is not absolute
    from f4quad.quadrangle import Flag
    f = ms.flag_of_label(ms.sample_label(rng, 1))
    other = ms.flag_of_label(ms.sample_label(rng, 1))
    if f.point != other.point:
        assert not quad.is_absolute(Flag(f.point, other.line))


def test_suzuki_tits_membership(quad, ms):
    # an element is in the Suzuki-Tits restriction when its transversal
    # is: the transversal's L slots are its coordinates' L slots
    def member(x):
        return quad.group.suzuki_tits_member(quad.transversal(x))

    assert member(quad.zero_flag.point) and member(quad.zero_flag.line)
    assert member(quad.pt_inf)
    rng = Rng(57)
    lab = ms.sample_label(rng, 1)
    if not lab.r2.u.is_zero():
        assert not member(ms.flag_of_label(lab).point)
    # action by a Suzuki-Tits element preserves membership
    from f4quad.sampling import sample_k, sample_kprime
    lz = L_ZERO
    st = UPlusElem(R1Coord(lz, lz, sample_k(rng, 1)),
                   R2Coord(lz, lz, sample_kprime(rng, 1)),
                   R1Coord(lz, lz, sample_k(rng, 1)),
                   R2Coord(lz, lz, sample_kprime(rng, 1)))
    img = quad.act_point(quad.zero_point, st)
    assert member(img)


def _apply(matrix, x):
    return [sum((a * c for a, c in zip(row, x)), K_ZERO) for row in matrix]


def _entry(rng):
    while True:
        a = sample_k_general(rng, 2)
        if not a.is_zero():
            return a


def _system(rng, n):
    return [[_entry(rng) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_solve_linear_k_by_substitution(n):
    rng = Rng(70 + n)
    for _ in range(6):
        matrix = _system(rng, n)
        x = [sample_k_general(rng, 2) for _ in range(n)]
        rhs = _apply(matrix, x)
        sol = solve_linear_k(matrix, rhs)
        assert sol is not None, matrix
        assert _apply(matrix, sol) == rhs
        assert sol == x  # a nonsingular system has one solution


def test_solve_linear_k_swaps_rows_past_a_zero_pivot():
    rng = Rng(75)
    matrix = _system(rng, 4)
    matrix[0][0] = K_ZERO
    rhs = [sample_k_general(rng, 2) for _ in range(4)]
    sol = solve_linear_k(matrix, rhs)
    assert sol is not None and _apply(matrix, sol) == rhs


def test_solve_linear_k_singular_is_none():
    rng = Rng(76)
    rhs = [sample_k_general(rng, 2) for _ in range(4)]
    summed = _system(rng, 4)
    summed[3] = [a + b for a, b in zip(summed[0], summed[1])]
    assert solve_linear_k(summed, rhs) is None
    zero_col = _system(rng, 4)
    for row in zero_col:
        row[2] = K_ZERO
    assert solve_linear_k(zero_col, rhs) is None


def test_projection_onto_every_line_rank(quad, ms):
    # feet of (inf), sampled (a), (k,b) and flag points on every line
    # rank: [inf], sampled and flag-derived [k] and [a,l], flag lines
    rng = Rng(58)
    made = unsupported = 0
    for _ in range(6):
        f = ms.flag_of_label(ms.sample_label(rng, 1))
        h = ms.flag_of_label(ms.sample_label(rng, 1))
        pts = (quad.pt_inf, QPoint((ms.sample_r1(rng, 1),)),
               QPoint((ms.sample_r2(rng, 1), ms.sample_r1(rng, 1))),
               QPoint((f.line.coords[0], ms.sample_r1(rng, 1))),
               f.point, h.point)
        lines = (quad.ln_inf, QLine((ms.sample_r2(rng, 1),)),
                 QLine(f.line.coords[:1]),
                 QLine((ms.sample_r1(rng, 1), ms.sample_r2(rng, 1))),
                 QLine(h.point.coords[:2]), f.line, h.line)
        for m in lines:
            for p in pts:
                if quad.incident(p, m):
                    continue
                try:
                    foot = quad.project(p, m)
                except ProjectionUnsupported:
                    assert len(p.coords) == len(m.coords) == 3, (p, m)
                    unsupported += 1
                    continue
                assert quad.incident(foot, m), (p, m)
                assert quad.collinear(p, foot) is not None, (p, m)
                made += 1
    assert made > 100 and unsupported > 0, (made, unsupported)


def _table_incident(quad, p, m):
    # the incidence case table, keyed by coordinate counts
    pr, mr = len(p.coords), len(m.coords)
    if pr == 0:
        return mr in (0, 1)
    if pr == 1:
        return mr == 0 or (mr == 2 and m.coords[0] == p.coords[0])
    if pr == 2:
        if mr == 1:
            return m.coords[0] == p.coords[0]
        return (mr == 3 and m.coords[0] == p.coords[0]
                and m.coords[1] == p.coords[1])
    if mr == 2:
        return m.coords[0] == p.coords[0] and m.coords[1] == p.coords[1]
    return mr == 3 and quad._opposite_flag_test(p, m)


def _table_rho_point(quad, p):
    # slot maps (5)-(8): (a) -> [a^rho], (k,b) -> [k^rho, b^rho], ...
    c, r1, r2 = p.coords, quad.rho_r1, quad.rho_r2
    if len(c) == 0:
        return quad.ln_inf
    if len(c) == 1:
        return QLine((r1(c[0]),))
    if len(c) == 2:
        return QLine((r2(c[0]), r1(c[1])))
    return QLine((r1(c[0]), r2(c[1]), r1(c[2])))


def _table_rho_line(quad, m):
    c, r1, r2 = m.coords, quad.rho_r1, quad.rho_r2
    if len(c) == 0:
        return quad.pt_inf
    if len(c) == 1:
        return QPoint((r2(c[0]),))
    if len(c) == 2:
        return QPoint((r1(c[0]), r2(c[1])))
    return QPoint((r2(c[0]), r1(c[1]), r2(c[2])))


def _table_collinear(quad, p, q):
    # the collinearity case table, keyed by coordinate counts; it has
    # no row for a rank-2 or maximal point against a maximal one
    a, b = (p, q) if len(p.coords) <= len(q.coords) else (q, p)
    ra, rb = len(a.coords), len(b.coords)
    if ra == 0:
        if rb == 1:
            return quad.ln_inf
        if rb == 2:
            return QLine((b.coords[0],))
        return None
    if ra == 1:
        if rb == 1:
            return quad.ln_inf
        if rb == 2:
            return None
        return QLine(b.coords[:2]) if b.coords[0] == a.coords[0] else None
    return QLine((a.coords[0],)) if a.coords[0] == b.coords[0] else None


def test_rank_rules_match_the_tables(quad, ms):
    rng = Rng(59)
    ranks, verdicts, joins = set(), set(), set()
    for _ in range(4):
        f = ms.flag_of_label(ms.sample_label(rng, 1))
        (a, l, _), (k, b, _) = f.point.coords, f.line.coords
        h = ms.flag_of_label(ms.sample_label(rng, 1))
        # one flag's prefixes, then sampled coordinates and another flag
        pts = [quad.pt_inf, QPoint((a,)), QPoint((k, b)), f.point,
               QPoint((ms.sample_r1(rng, 1),)),
               QPoint((ms.sample_r2(rng, 1), ms.sample_r1(rng, 1))), h.point]
        lns = [quad.ln_inf, QLine((k,)), QLine((a, l)), f.line,
               QLine((ms.sample_r2(rng, 1),)),
               QLine((ms.sample_r1(rng, 1), ms.sample_r2(rng, 1))), h.line]
        for p in pts:
            assert quad.rho_point(p) == _table_rho_point(quad, p)
            assert quad.rho_line(quad.rho_point(p)) == p
            for m in lns:
                want = _table_incident(quad, p, m)
                assert quad.incident(p, m) == want, (p, m)
                ranks.add((len(p.coords), len(m.coords)))
                verdicts.add((len(p.coords) - len(m.coords), want))
        for m in lns:
            assert quad.rho_line(m) == _table_rho_line(quad, m)
            assert quad.rho_point(quad.rho_line(m)) == m
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                pair = tuple(sorted((len(p.coords), len(q.coords))))
                if p == q or pair in ((2, 3), (3, 3)):
                    continue
                want = _table_collinear(quad, p, q)
                assert quad.collinear(p, q) == quad.collinear(q, p) == want, (p, q)
                joins.add(pair)
    assert len(ranks) == 16
    assert joins == {(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2)}
    # each adjacent-rank pair and the maximal pair meet both verdicts
    assert {(1, True), (1, False), (-1, True), (-1, False),
            (0, True), (0, False)} <= verdicts


@pytest.mark.parametrize("text", [
    "delta = s + t\nphiE = e + s\nbeta = s\nalpha = t\n",  # the default
    "delta = s^2 + t\nphiE = e + t\nbeta = s\nalpha = t\n",  # at e + s
    "delta = s^2 + t\nphiE = e + t\nbeta = s^2 + s\nalpha = t^2 + t\n",
], ids=["default", "default-e+s", "candidate"])
def test_u3_pivot_is_form1_over_beta(text):
    # the pivot D that _solve_comm14_u3 divides by satisfies D beta =
    # form1(q), so that solve fails exactly at the zeros of form 1
    ms = MoufangSet(Quadrangle(UPlus(parse_instance_text(text))))
    inst, unit, rng = ms.inst, R1Coord(L_ZERO, L_ZERO, K_ONE), Rng(23)
    for _ in range(6):
        q = ms.sample_r2(rng, 2)
        pivot = ms.group.relation4(unit, q)[1].b
        assert pivot * inst.beta == inst.form1(q.u, q.v, q.a), q
