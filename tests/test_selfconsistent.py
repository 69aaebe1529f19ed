"""Root finding, stability classification, and the zero-field branch."""
import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingcusp import (ConjugateCoords, DomainError, ModelParams, beta_of_m,
                       massieu_per_site, s_of_m, solve, to_field_coords, xi_of_m,
                       zero_field_branch)
from isingcusp.oracle import _log_factorials

P = ModelParams()

M_STAR_1P2 = 0.65856966040575405      # positive root of m = tanh(1.2 m)
M_STAR_NEAR = 0.017318949386944285    # positive root at beta*Jz = 1.0001
EPS = 2.0 ** -52


def bisect_root(beta, jz, lo=1e-6, hi=0.999999, tol=1e-12):
    """Independent bisection for m = tanh(beta*jz*m), m > 0."""
    f = lambda m: m - math.tanh(beta * jz * m)
    assert f(lo) < 0 < f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_high_temperature_single_root():
    rs = solve(ConjugateCoords(0.5, 0.0), P)
    assert len(rs.roots) == 1
    r = rs.roots[0]
    assert r.m == 0.0 and r.stable
    assert rs.equilibrium.m == 0.0


def test_low_temperature_triple_root():
    rs = solve(ConjugateCoords(1.2, 0.0), P)
    assert len(rs.roots) == 3
    ms = sorted(r.m for r in rs.roots)
    assert ms[0] == pytest.approx(-M_STAR_1P2, rel=1e-12)
    assert ms[1] == pytest.approx(0.0, abs=1e-13)
    assert ms[2] == pytest.approx(M_STAR_1P2, rel=1e-12)
    by_m = {round(r.m, 6): r for r in rs.roots}
    assert not by_m[0.0].stable
    assert by_m[round(M_STAR_1P2, 6)].stable
    assert by_m[round(-M_STAR_1P2, 6)].stable
    # symmetric pair ties in psi; tie breaks toward positive m
    assert rs.equilibrium.m == pytest.approx(M_STAR_1P2, rel=1e-12)


def reference_solve(c, p):
    """The former bisection solve, written with a closure for f and generators:
    (m, stable, psi) per root and the selected index. Its bisection compares
    signs, where the former one tested flo * fmid < 0, which underflows to
    0 for two tiny values (beta 1, xi 5e-324, Jz 2) and so walked to m+.
    The selected root has the largest psi; where the two stable psi agree
    within 8 eps relative, rounding cannot tell them apart, and it is the
    one on the field's side, the first for xi > 0 and the last otherwise."""
    bjz = c.beta * p.jz

    def f(m):
        return m - math.tanh(bjz * m - c.xi)

    def bisect(lo, hi):
        flo = f(lo)
        if flo == 0.0:
            return lo
        while hi - lo > 1e-14:
            mid = 0.5 * (lo + hi)
            fmid = f(mid)
            if fmid == 0.0:
                return mid
            if (flo < 0.0) != (fmid < 0.0):
                hi = mid
            else:
                lo, flo = mid, fmid
        return 0.5 * (lo + hi)

    edges = [-1.0, 1.0]
    if bjz > 1.0:
        a = math.acosh(math.sqrt(bjz))
        lo, hi = (min(1.0, max(-1.0, e)) for e in ((c.xi - a) / bjz, (c.xi + a) / bjz))
        if f(lo) > f(hi):
            edges = [-1.0, lo, hi, 1.0]
    middle = 1 if len(edges) == 4 else None
    pts = [(e, f(e)) for e in edges]
    roots = []
    for i, ((lo, flo), (hi, fhi)) in enumerate(zip(pts, pts[1:])):
        if flo == 0.0:
            m = lo
        elif fhi == 0.0:
            m = hi
        elif flo * fhi < 0.0:
            m = bisect(lo, hi)
        else:
            continue
        if not roots or roots[-1][0] != m:
            roots.append((m, i != middle, massieu_per_site(m, c, p)))
    stable = [(i, psi) for i, (_, is_stable, psi) in enumerate(roots) if is_stable]
    (left, psi_l), (right, psi_r) = stable[0], stable[-1]
    if abs(psi_l - psi_r) <= 8 * EPS * max(abs(psi_l), abs(psi_r)):
        selected = left if c.xi > 0 else right
    else:
        selected = left if psi_l > psi_r else right
    return roots, selected


def decimal_tanh(x):
    """tanh to about 55 digits in the current 60-digit context."""
    if abs(x) > 100:
        return decimal.Decimal(1 if x > 0 else -1)
    if abs(x) < decimal.Decimal("1e-6"):
        # the next term, -17 x^7/315, is below 1e-36 of x
        return x - x ** 3 / 3 + 2 * x ** 5 / 15
    e = (2 * x).exp()
    return (e - 1) / (e + 1)


def decimal_root(bjz, xi, m0):
    """60-digit Newton root of m = tanh(bjz m - xi) from m0, and f' there."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        b, x, m = decimal.Decimal(bjz), decimal.Decimal(xi), decimal.Decimal(m0)
        for _ in range(200):
            t = decimal_tanh(b * m - x)
            if m == t:
                break
            step = (m - t) / (1 - b * (1 - t * t))
            m -= step
            if abs(step) <= abs(m) * decimal.Decimal("1e-50"):
                break
        t = decimal_tanh(b * m - x)
        return m, 1 - b * (1 - t * t)


def decimal_has_pair(bjz, xi):
    """Whether f(m-) > 0 > f(m+) at the 60-digit turning points."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        b, x = decimal.Decimal(bjz), decimal.Decimal(xi)
        r = (b - 1).sqrt()
        a = (r + (r * r + 1).sqrt()).ln()  # asinh
        f = [m - decimal_tanh(b * m - x) for m in ((x - a) / b, (x + a) / b)]
        return f[0] > 0 > f[1]


def assert_within_conditioning(m, m0, bjz, xi):
    """m lies within 4 eps (|m0| + |xi|) / |f'| of the decimal root near m0."""
    r, fp = decimal_root(bjz, xi, m0)
    err = abs(decimal.Decimal(m) - r)
    # err |f'| <= ... holds where f' = 0 too (beta Jz = 1, xi = 0, m = 0)
    assert err * abs(fp) <= decimal.Decimal(4 * EPS) * decimal.Decimal(abs(m0) + abs(xi)), \
        (m, float(r), float(fp))


@settings(max_examples=400, deadline=None)
@given(beta=st.floats(0.0, 5.0, exclude_min=True), xi=st.floats(-3.0, 3.0),
       jz=st.floats(0.3, 3.0))
@example(beta=1.0 + EPS, xi=0.0, jz=1.0)
@example(beta=1.0 + EPS, xi=1e-300, jz=1.0)
@example(beta=1.0 + EPS, xi=-1e-300, jz=1.0)
@example(beta=1.0 + EPS, xi=1e-17, jz=1.0)
@example(beta=1.0 + EPS, xi=-1e-17, jz=1.0)
@example(beta=1.0 + 1e-10, xi=0.0, jz=1.0)
@example(beta=1.966230595308388, xi=-0.508743070524412, jz=1.0)  # two close roots
@example(beta=3.0, xi=2.9, jz=1.0)  # m+ = 1.349 clamps to 1
@example(beta=1.2, xi=0.0, jz=1.0)  # the symmetric psi tie
@example(beta=0.5, xi=2.0, jz=1.0)  # the inflection xi / (beta Jz) lies outside [-1, 1]
@example(beta=1.0, xi=0.0, jz=1.0)  # the critical point, a triple root at m = 0
@example(beta=1.0, xi=1.0, jz=1.0)  # beta Jz = 1: f' vanishes at the inflection
@example(beta=1.0, xi=-1.0, jz=1.0)
@example(beta=1.5, xi=1e-12, jz=1.0)  # a tiny middle root
@example(beta=1.0, xi=5e-324, jz=2.0)  # the tiniest middle root
@example(beta=2.7810902513981813e-242, xi=0.0, jz=1e-300)  # beta Jz underflows to 0
@example(beta=236873352279.0, xi=7.081226079067747e16, jz=30714922045.0)  # t rounds to 1
def test_solve_matches_reference_bisection(beta, xi, jz):
    # the former bisection fixes the structure: root count, stability and
    # selection; each root is as accurate as its conditioning allows
    c, p = ConjugateCoords(beta, xi), ModelParams(jz=jz)
    bjz = beta * jz
    rs = solve(c, p)
    if 1.0 < bjz < 1.0 + 2.0 ** -50:
        # acosh(sqrt(beta Jz)) loses the reference's pair here: decimal alone
        pair = decimal_has_pair(bjz, xi)
        assert [r.stable for r in rs.roots] == ([True, False, True] if pair else [True])
        for r in rs.roots:
            assert_within_conditioning(r.m, r.m, bjz, xi)
        return
    roots, selected = reference_solve(c, p)
    assert [r.stable for r in rs.roots] == [stable for _, stable, _ in roots]
    assert rs.selected == selected
    for r, (m_ref, _, _) in zip(rs.roots, roots):
        assert_within_conditioning(r.m, m_ref, bjz, xi)


def test_root_matches_independent_bisection():
    for beta in (1.05, 1.2, 1.7, 2.5):
        rs = solve(ConjugateCoords(beta, 0.0), P)
        m_found = max(r.m for r in rs.roots if r.stable)
        assert m_found == pytest.approx(bisect_root(beta, P.jz), abs=1e-10)


def test_curve_round_trip():
    # solving at (beta(m), xi(m)) must recover m as a stable root
    for m in (0.1, 0.3, 0.5, 0.8, -0.1, -0.3, -0.5, -0.8):
        c = ConjugateCoords(beta_of_m(m, P), xi_of_m(m, P))
        rs = solve(c, P)
        best = min((r for r in rs.roots if r.stable),
                   key=lambda r: abs(r.m - m))
        assert best.m == pytest.approx(m, abs=1e-10)


def test_root_count_transitions():
    for beta in (0.2, 0.6, 1.0):
        assert len(solve(ConjugateCoords(beta, 0.0), P).roots) == 1
    for beta in (1.00000001, 1.000002, 1.5, 2.5):
        assert len(solve(ConjugateCoords(beta, 0.0), P).roots) == 3


def decimal_outer_root(bjz, m0):
    """60-digit Newton iteration for m = tanh(bjz m), started at m0."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        b, m = decimal.Decimal(bjz), decimal.Decimal(m0)
        for _ in range(60):
            e = (2 * b * m).exp()
            t = (e - 1) / (e + 1)
            m -= (m - t) / (1 - b * (1 - t * t))
        return float(m)


@pytest.mark.parametrize("eps, ulps", [(10.0 ** -k, None) for k in range(2, 15)]
                         + [(2.0 ** -e, 2) for e in range(45, 53)],
                         ids=[*map(str, range(2, 15)), *(f"2^-{e}" for e in range(45, 53))])
def test_just_above_critical_point(eps, ulps):
    # Curie-Weiss: at beta Jz = 1 + eps the outer roots are near +-sqrt(3 eps),
    # within 1e-12, and within 2 ulps down to the next double above 1
    beta = 1.0 + eps
    rs = solve(ConjugateCoords(beta, 0.0), P)
    assert len(rs.roots) == 3
    assert [r.stable for r in rs.roots] == [True, False, True]
    assert rs.roots[1].m == 0.0
    want = decimal_outer_root(beta * P.jz, math.sqrt(3.0 * eps))
    bound = 1e-12 if ulps is None else ulps * math.ulp(want)
    assert abs(rs.roots[2].m - want) <= bound
    assert abs(rs.roots[0].m + want) <= bound
    assert rs.equilibrium is rs.roots[2]


def test_two_close_roots_are_both_found():
    # -0.71175 and -0.69000 lie within 1/32 of each other; only the third
    # root, which is the equilibrium, used to be reported
    beta, xi = 1.966230595308388, -0.508743070524412
    rs = solve(ConjugateCoords(beta, xi), P)
    assert [r.stable for r in rs.roots] == [True, False, True]
    for r, want in zip(rs.roots, (-0.71175, -0.69000, 0.98509)):
        assert r.m == pytest.approx(want, abs=1e-5)
        assert abs(r.m - math.tanh(beta * P.jz * r.m - xi)) < 1e-13
    assert rs.equilibrium is rs.roots[2]


def test_critical_point_root_is_marginally_stable():
    rs = solve(ConjugateCoords(1.0, 0.0), P)
    assert [(r.m, r.stable) for r in rs.roots] == [(0.0, True)]


def test_field_sign_symmetry():
    rs_plus = solve(ConjugateCoords(1.2, 0.05), P)
    rs_minus = solve(ConjugateCoords(1.2, -0.05), P)
    ms_plus = sorted(r.m for r in rs_plus.roots)
    ms_minus = sorted(-r.m for r in rs_minus.roots)
    for a, b in zip(ms_plus, ms_minus):
        assert a == pytest.approx(b, abs=1e-12)
    assert rs_plus.equilibrium.m == pytest.approx(-rs_minus.equilibrium.m,
                                                  abs=1e-12)


def test_equilibrium_is_attracting():
    # the selected root must attract the iteration m <- tanh(beta*jz*m - xi)
    for beta in (1.5, 2.0):
        rs = solve(ConjugateCoords(beta, 0.0), P)
        m = rs.equilibrium.m + 1e-3
        for _ in range(10):
            m = math.tanh(beta * P.jz * m)
        assert abs(m - rs.equilibrium.m) < 1e-6


def test_unstable_root_repels():
    rs = solve(ConjugateCoords(2.0, 0.0), P)
    unstable = next(r for r in rs.roots if not r.stable)
    m = unstable.m + 1e-3
    for _ in range(40):
        m = math.tanh(2.0 * P.jz * m)
    assert abs(m - unstable.m) > 0.1


def test_psi_ordering():
    rs = solve(ConjugateCoords(1.2, 0.0), P)
    sel = rs.equilibrium
    assert all(sel.psi >= r.psi - 1e-12 for r in rs.roots)


def test_solve_rejects_nonpositive_beta():
    with pytest.raises(DomainError):
        solve(ConjugateCoords(0.0, 0.0), P)
    with pytest.raises(DomainError):
        solve(ConjugateCoords(-1.0, 0.0), P)


def test_solve_rejects_overflowing_theta():
    # beta Jz overflows to inf, or beta Jz m - xi does at m = +-1
    with pytest.raises(DomainError):
        solve(ConjugateCoords(1e308, 0.0), ModelParams(jz=10.0))
    with pytest.raises(DomainError):
        solve(ConjugateCoords(1.7e308, -1.7e308), P)


@pytest.mark.parametrize("m, c, p, match", [
    (-2.4e286, ConjugateCoords(-3.4e-179, 0.0), P, "beta >= 0"),  # was inf
    (1.5, ConjugateCoords(1.0, 0.0), P, r"\|m\| <= 1"),
    (math.nan, ConjugateCoords(1.0, 0.0), P, r"\|m\| <= 1"),
    (0.5, ConjugateCoords(1e308, 0.0), ModelParams(jz=1e300), "not a finite double"),  # -inf + inf
], ids=["negative-beta", "m-above-1", "m-nan", "overflow"])
def test_massieu_per_site_is_finite_or_a_domain_error(m, c, p, match):
    with pytest.raises(DomainError, match=match):
        massieu_per_site(m, c, p)


def test_massieu_per_site_keeps_its_edges_and_solve_bits():
    # beta = 0 is the oracle's infinite-temperature limit, log 2 per site
    assert massieu_per_site(0.3, ConjugateCoords(0.0, 0.0), P) == math.log(2.0)
    for c in (ConjugateCoords(1.2, 0.05), ConjugateCoords(40.0, 0.0)):
        rs = solve(c, P)
        assert [massieu_per_site(r.m, c, P) for r in rs.roots] == [r.psi for r in rs.roots]
    assert [r.m for r in rs.roots] == [-1.0, 0.0, 1.0]  # roots at m = +-1 stay valid


def test_curve_lies_inside_the_spinodal_as_a_metastable_point():
    """The curve against the spinodal, at equal beta.

    The spinodal is the solver's turning point m_t = sqrt(1 - 1/(beta Jz)),
    where xi_sp = beta Jz m_t - atanh(m_t). Near the cusp xi ~ m^3/6 and
    xi_sp ~ (2/3) m_t^3, so xi / xi_sp tends to 1/sqrt(2) as m^2. The
    curve point m is a stable root of the solver but not the selected
    one: the selected root has the opposite sign, also at |m| = 1e-4,
    where the two stable Massieu values round to the same double.
    """
    for a in np.geomspace(1e-4, 0.999, 400):
        for m in (float(a), -float(a)):
            c = ConjugateCoords(beta_of_m(m, P), xi_of_m(m, P))
            bjz = c.beta * P.jz
            m_t = math.sqrt(1.0 - 1.0 / bjz)
            xi_sp = bjz * m_t - math.atanh(m_t)
            assert abs(c.xi) < xi_sp
            if abs(m) <= 0.1:
                ratio = abs(c.xi) / xi_sp
                assert abs(ratio - 1.0 / math.sqrt(2.0)) < 0.04 * m * m + 1e-7
            rs = solve(c, P)
            assert len(rs.roots) == 3
            (own,) = [i for i, r in enumerate(rs.roots) if abs(r.m - m) < 1e-9]
            assert rs.roots[own].stable and own != rs.selected
            assert rs.equilibrium.m * m < 0


def curie_weiss_mean(beta, xi, jz, n):
    """<M>/N of the Curie-Weiss model H = -(Jz / 2N) M^2 in the field xi.

    Z_N = sum_j C(N, j) exp(beta Jz M_j^2 / (2N) - xi M_j), M_j = 2j - N,
    summed exactly on the oracle's log-factorial table and max-shifted. It
    shares no code with solve: by Laplace's method <M>/N tends to the
    equilibrium m* as m* + a/N, where the field's weight exp(-xi M) picks
    the side.
    """
    lf = _log_factorials(n)
    spin = 2.0 * np.arange(n + 1) - n
    expo = (lf[n] - lf - lf[::-1]) + (beta * jz / (2 * n)) * spin * spin - xi * spin
    w = np.exp(expo - expo.max())
    return float((w * spin).sum() / w.sum()) / n


@pytest.mark.parametrize("beta, xi", [(0.5, 0.3), (1.2, 0.05), (1.2, -0.05), (2.0, 0.3),
                                      (0.8, -1.0), (3.0, 0.01)])
def test_equilibrium_is_the_curie_weiss_limit(beta, xi):
    # away from beta Jz = 1 and the spinodal, where the limit sets in early:
    # the gap <M>/N - m* falls 10x from N = 10^5 to 10^6, and <M>, m* and
    # h = -xi/beta share a sign, opposite to xi's
    c = ConjugateCoords(beta, xi)
    m_star = solve(c, P).equilibrium.m
    gaps = [curie_weiss_mean(beta, xi, P.jz, n) - m_star for n in (10 ** 5, 10 ** 6)]
    assert 9.0 <= gaps[0] / gaps[1] <= 11.0
    h = to_field_coords(c, P)[1]
    assert math.copysign(1.0, m_star) == math.copysign(1.0, h) == -math.copysign(1.0, xi)
    assert math.copysign(1.0, m_star + gaps[1]) == math.copysign(1.0, m_star)


@settings(max_examples=200, deadline=None)
@given(beta=st.floats(0.05, 5.0), xi=st.floats(1e-3, 3.0), sign=st.sampled_from([-1.0, 1.0]),
       jz=st.floats(0.3, 3.0))
def test_field_sign_agrees_with_curie_weiss(beta, xi, sign, jz):
    # <M> of the exact sum at N = 2000 has the sign of -xi at every beta,
    # and so must the selected root and h, metastable pairs included
    xi *= sign
    p = ModelParams(jz=jz)
    c = ConjugateCoords(beta, xi)
    signs = {math.copysign(1.0, v) for v in (curie_weiss_mean(beta, xi, jz, 2000),
                                             solve(c, p).equilibrium.m, to_field_coords(c, p)[1])}
    assert signs == {-sign}


def test_zero_field_branch_values():
    z = zero_field_branch(0.5, 2.0, 61, P)
    assert len(z.beta) == len(z.m) == len(z.s) == len(z.lam) == 61
    for beta, m, s, lam in zip(z.beta.tolist(), z.m.tolist(), z.s.tolist(), z.lam.tolist()):
        if beta * P.jz <= 1.0:
            assert m == 0.0
            assert s == 0.0
        else:
            assert m > 0.0
            assert lam > P.k / P.jz
            assert s == pytest.approx(s_of_m(m, P), rel=1e-12)
        assert lam == pytest.approx(P.k * beta, rel=1e-15)
    at_12 = np.argmin(np.abs(z.beta - 1.2))
    assert z.beta[at_12] == pytest.approx(1.2, abs=1e-12)
    assert z.m[at_12] == pytest.approx(M_STAR_1P2, rel=1e-10)


def test_zero_field_just_above_threshold():
    z = zero_field_branch(1.0001, 1.01, 2, P)
    # first grid point sits barely past the threshold; the tiny positive
    # root must be resolved, not rounded down to zero
    assert z.beta[0] == pytest.approx(1.0001, abs=1e-12)
    assert z.m[0] == pytest.approx(M_STAR_NEAR, rel=1e-8)
    assert 0.0 < z.m[0] < 0.02


def test_zero_field_branch_is_monotone():
    ms = zero_field_branch(1.05, 3.0, 40, P).m
    assert all(b > a for a, b in zip(ms, ms[1:]))


@pytest.mark.parametrize("jz", [0.37, 1.0, 2.5])
@pytest.mark.parametrize("lo, hi, n", [(0.5, 2.0, 301), (0.999999, 1.000001, 201),
                                       (0.9, 18.5, 400), (1.0, 1.0 + 4 * EPS, 5)])
def test_zero_field_columns_equal_solve(jz, lo, hi, n):
    # every row is solve's selected root at xi = 0, bit for bit, with
    # s_of_m of it: below the threshold, where solve's one root is m = 0,
    # and at beta Jz = 1 + eps too, where the positive root is about
    # sqrt(3 eps)
    p = ModelParams(jz=jz, k=0.7)
    z = zero_field_branch(lo / jz, hi / jz, n, p)
    for beta, m, s in zip(z.beta.tolist(), z.m.tolist(), z.s.tolist()):
        expected = solve(ConjugateCoords(beta, 0.0), p).equilibrium.m
        if beta * jz <= 1.0:
            assert expected.hex() == (0.0).hex()
        assert m.hex() == expected.hex()
        assert s.hex() == s_of_m(m, p).hex()


def test_zero_field_rejects_m_rounding_to_one():
    # tanh(beta Jz) rounds to 1 above beta Jz ~ 19.06, so the root is m = 1
    assert solve(ConjugateCoords(25.0, 0.0), P).equilibrium.m == 1.0
    with pytest.raises(DomainError, match=r"\|m\| < 1"):
        zero_field_branch(0.5, 40.0, 5, P)
    with pytest.raises(DomainError, match="not a finite double"):
        zero_field_branch(0.5, 1e308, 2, ModelParams(jz=10.0))
    # the first row rounds m to 1 and the last overflows beta Jz: the
    # first rejected row raises
    with pytest.raises(DomainError, match=r"\|m\| < 1"):
        zero_field_branch(4.0, 1e308, 3, ModelParams(jz=10.0))
