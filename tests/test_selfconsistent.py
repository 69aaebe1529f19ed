"""Root finding, stability classification, and the zero-field branch."""
import decimal
import math

import numpy as np
import pytest

from isingcusp import (ConjugateCoords, DomainError, ModelParams, beta_of_m,
                       s_of_m, solve, xi_of_m, zero_field_branch)

P = ModelParams()

M_STAR_1P2 = 0.65856966040575405      # positive root of m = tanh(1.2 m)
M_STAR_NEAR = 0.017318949386944285    # positive root at beta*Jz = 1.0001


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


@pytest.mark.parametrize("k", range(2, 11))
def test_just_above_critical_point(k):
    # Curie-Weiss: at beta Jz = 1 + eps the outer roots are near +-sqrt(3 eps)
    beta = 1.0 + 10.0 ** -k
    rs = solve(ConjugateCoords(beta, 0.0), P)
    assert len(rs.roots) == 3
    assert [r.stable for r in rs.roots] == [True, False, True]
    assert rs.roots[1].m == 0.0
    want = decimal_outer_root(beta * P.jz, math.sqrt(3.0 * 10.0 ** -k))
    assert abs(rs.roots[2].m - want) < 1e-12
    assert abs(rs.roots[0].m + want) < 1e-12
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


def test_curve_lies_inside_the_spinodal_as_a_metastable_point():
    """The curve against the spinodal, at equal beta.

    The spinodal is the solver's turning point m_t = sqrt(1 - 1/(beta Jz)),
    where xi_sp = beta Jz m_t - atanh(m_t). Near the cusp xi ~ m^3/6 and
    xi_sp ~ (2/3) m_t^3, so xi / xi_sp tends to 1/sqrt(2) as m^2. The
    curve point m is a stable root of the solver but not the selected
    one: the selected root has the opposite sign. Below about
    |m| = 1.27e-3 the two stable Massieu values differ by less than
    PSI_TIE, so for m > 0 the tie rule picks +m there.
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
            if abs(m) >= 2e-3:
                rs = solve(c, P)
                assert len(rs.roots) == 3
                (own,) = [i for i, r in enumerate(rs.roots) if abs(r.m - m) < 1e-9]
                assert rs.roots[own].stable and own != rs.selected
                assert rs.equilibrium.m * m < 0


def test_zero_field_branch_values():
    pts = zero_field_branch(0.5, 2.0, 61, P)
    assert len(pts) == 61
    for pt in pts:
        if pt.beta * P.jz <= 1.0:
            assert pt.m == 0.0
            assert pt.s == 0.0
        else:
            assert pt.m > 0.0
            assert pt.lam > P.k / P.jz
            assert pt.s == pytest.approx(s_of_m(pt.m, P), rel=1e-12)
        assert pt.lam == pytest.approx(P.k * pt.beta, rel=1e-15)
    at_12 = min(pts, key=lambda q: abs(q.beta - 1.2))
    assert at_12.beta == pytest.approx(1.2, abs=1e-12)
    assert at_12.m == pytest.approx(M_STAR_1P2, rel=1e-10)


def test_zero_field_just_above_threshold():
    pts = zero_field_branch(1.0001, 1.01, 2, P)
    # first grid point sits barely past the threshold; the tiny positive
    # root must be resolved, not rounded down to zero
    first = pts[0]
    assert first.beta == pytest.approx(1.0001, abs=1e-12)
    assert first.m == pytest.approx(M_STAR_NEAR, rel=1e-8)
    assert 0.0 < first.m < 0.02


def test_zero_field_branch_is_monotone():
    pts = zero_field_branch(1.05, 3.0, 40, P)
    ms = [pt.m for pt in pts]
    assert all(b > a for a, b in zip(ms, ms[1:]))
