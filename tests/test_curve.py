"""Parametric curve: closed forms, series seam, identities, sampling."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingcusp import (ConjugateCoords, DomainError, M_SWITCH, ModelParams,
                       beta_of_m, curve_point, s_of_m,
                       sample_curve, to_field_coords, u_of_m, xi_of_m)
from isingcusp.curve import _beta_closed, _beta_series, _xi_closed, _xi_series

P = ModelParams()

# 50-digit reference values for m = 0.5, k = Jz = 1
BETA_HALF = 1.1507282898071237
XI_HALF = 0.026058000569507009
S_HALF = -0.13081203594113696


def test_beta_examples():
    assert beta_of_m(0.5, P) == pytest.approx(BETA_HALF, rel=1e-14)
    assert beta_of_m(0.0, P) == 1.0
    assert beta_of_m(-0.5, P) == beta_of_m(0.5, P)
    assert beta_of_m(1e-8, P) >= 1.0


def test_beta_series_vs_closed_at_half():
    # five-term series still lands within 4 digits this far out
    assert abs(_beta_series(0.5, P) - _beta_closed(0.5, P)) < 5e-4


def test_beta_scales_with_jz():
    p2 = ModelParams(jz=6.0)
    assert beta_of_m(0.5, p2) == pytest.approx(BETA_HALF / 6.0, rel=1e-14)
    assert beta_of_m(0.001, p2) == pytest.approx(1.0 / 6.0, rel=1e-6)


def test_xi_examples():
    assert xi_of_m(0.5, P) == pytest.approx(XI_HALF, rel=1e-13)
    assert xi_of_m(0.01, P) == pytest.approx(0.01 ** 3 / 6.0, rel=1e-3)
    assert xi_of_m(-0.5, P) == -xi_of_m(0.5, P)
    assert xi_of_m(0.3, P) > 0 > xi_of_m(-0.3, P)


def test_u_examples():
    assert u_of_m(0.0, P) == 0.0
    assert u_of_m(0.5, P) == -0.125
    assert u_of_m(-0.5, P) == u_of_m(0.5, P)
    assert u_of_m(0.5, ModelParams(jz=4.0)) == -0.5


def test_s_examples():
    assert s_of_m(0.0, P) == 0.0
    assert s_of_m(0.5, P) == pytest.approx(S_HALF, rel=1e-14)
    assert s_of_m(-0.5, P) == s_of_m(0.5, P)
    assert all(s_of_m(m, P) < 0 for m in (0.1, 0.5, 0.9))


def test_domain_errors():
    for bad in (1.0, -1.0, 1.5):
        with pytest.raises(DomainError):
            beta_of_m(bad, P)
        with pytest.raises(DomainError):
            xi_of_m(bad, P)
        with pytest.raises(DomainError):
            s_of_m(bad, P)


def test_non_finite_parameters_are_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            ModelParams(jz=bad)
        with pytest.raises(DomainError):
            ModelParams(k=bad)
        with pytest.raises(DomainError):
            ConjugateCoords(beta=bad)
        with pytest.raises(DomainError):
            ConjugateCoords(beta=1.0, xi=bad)


def test_series_seam_agreement():
    # both branches must agree where the evaluation switches over
    for m in (M_SWITCH, -M_SWITCH):
        assert abs(_beta_series(m, P) - _beta_closed(m, P)) < 1e-10 * _beta_closed(m, P)
        assert abs(_xi_series(m) - _xi_closed(m)) < 1e-10 * abs(_xi_closed(m))


def test_self_consistency_identity_fixed_points():
    for am in (0.01, 0.1, 0.3, 0.5, 0.8, 0.95):
        for m in (am, -am):
            lhs = beta_of_m(m, P) * P.jz * m - xi_of_m(m, P)
            assert abs(lhs - math.atanh(m)) < 1e-10


@settings(derandomize=True, max_examples=200)
@given(st.floats(min_value=1e-6, max_value=0.999), st.sampled_from([-1.0, 1.0]))
def test_self_consistency_identity_property(am, sign):
    m = sign * am
    lhs = beta_of_m(m, P) * P.jz * m - xi_of_m(m, P)
    rhs = math.atanh(m)
    tol = 1e-9 if am < M_SWITCH else 1e-12
    assert abs(lhs - rhs) <= tol * max(1.0, abs(rhs))


def test_monotone_in_magnitude():
    grid = np.geomspace(1e-4, 0.9999, 400)
    betas = [beta_of_m(float(m), P) for m in grid]
    xis = [xi_of_m(float(m), P) for m in grid]
    assert all(a < b for a, b in zip(betas, betas[1:]))
    assert all(a < b for a, b in zip(xis, xis[1:]))


def test_beta_diverges_toward_saturation():
    assert beta_of_m(0.999999, P) > 10.0 / P.jz


def test_sample_curve_rejects_bad_ranges():
    with pytest.raises(DomainError):
        sample_curve(0.1, 0.1, 2, "linear", P)
    with pytest.raises(DomainError):
        sample_curve(0.1, 0.5, 1, "linear", P)
    with pytest.raises(DomainError):
        sample_curve(-0.1, 0.5, 10, "log", P)
    with pytest.raises(DomainError):
        sample_curve(0.1, 0.5, 10, "cubic", P)
    with pytest.raises(DomainError):
        sample_curve(-1.0, 0.5, 10, "linear", P)


def test_sample_curve_log_spacing():
    samples = sample_curve(1e-3, 0.9, 100, "log", P)
    assert len(samples) == 100
    assert abs(samples[0].beta - 1.0 / P.jz) < 1e-6
    assert samples[0].m == pytest.approx(1e-3)
    assert samples[-1].m == pytest.approx(0.9)


def test_sample_curve_invariants():
    for s in sample_curve(-0.9, 0.9, 41, "linear", P):
        assert abs(s.beta * P.jz * s.m - s.xi - math.atanh(s.m)) < 1e-10
        assert s.u == u_of_m(s.m, P)
        assert s.s == s_of_m(s.m, P)
        expected_beta = 1.0 / P.jz if s.m == 0 else beta_of_m(s.m, P)
        assert s.beta == expected_beta
        assert s.t == pytest.approx(1.0 / (P.k * s.beta), rel=1e-15)
        assert s.h == pytest.approx(s.xi / s.beta, rel=1e-15)


def test_curve_point_at_origin():
    s = curve_point(0.0, P)
    assert (s.m, s.beta, s.xi, s.t, s.h) == (0.0, 1.0, 0.0, 1.0, 0.0)
    assert (s.u, s.s) == (0.0, 0.0)
    assert s.chi is None
    assert s.c == P.k
    # values inside the snap window collapse to the limit row
    assert curve_point(1e-13, P) == s


def test_field_coords():
    assert to_field_coords(ConjugateCoords(beta=1.0, xi=0.0), P) == (1.0, 0.0)
    assert to_field_coords(ConjugateCoords(beta=2.0, xi=1.0), P) == (0.5, 0.5)
    with pytest.raises(DomainError):
        to_field_coords(ConjugateCoords(beta=0.0, xi=0.0), P)
    # T = 1/(k beta) overflows, or k beta underflows to 0
    for k in (1e-10, 5e-324):
        with pytest.raises(DomainError):
            to_field_coords(ConjugateCoords(beta=1e-300, xi=0.0), ModelParams(k=k))


@pytest.mark.parametrize("args, p", [
    ((-0.3, 0.3, 601, "linear"), P),                      # steps of 1e-3 through m = 0
    ((-0.95, 0.95, 201, "linear"), ModelParams(jz=2.5, k=0.7)),
    ((1e-14, 0.999, 400, "log"), P),                      # first point snaps to m = 0
])
def test_sample_curve_columns_equal_scalar_points(args, p):
    table = sample_curve(*args, p)
    m = np.abs(table.m)
    # the grid spans the m = 0 row and both seams, |m| = 0.02 and 0.1 (D/y^2)
    assert (m == 0).any() and (m < 0.02).any() and ((m >= 0.02) & (m < 0.1)).any() and (m > 0.1).any()
    grid = np.linspace(*args[:3]) if args[3] == "linear" else np.geomspace(*args[:3])
    # the columns round exactly like the scalar path: equal reprs, signed zeros included
    points = [repr(curve_point(float(m), p)) for m in grid]
    assert [repr(table[i]) for i in range(len(grid))] == points
    assert [repr(row) for row in table] == points
