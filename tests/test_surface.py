"""Entropy surface: values, gradient, PDE residual, domain handling."""
import math

import numpy as np
import pytest

from isingcusp import (DomainError, ModelParams, beta_of_m, entropy, gradient,
                       hj_residual, in_domain, s_of_m, surface_grid, u_of_m,
                       xi_of_m)

P = ModelParams()

# 50-digit reference values, k = Jz = 1
S_AT_M_HALF = -0.13081203594113696       # (U, M) = (-0.125, 0.5)
S_AT_NEG125_1 = -0.12633576960785300     # (U, M) = (-0.125, 1)


def test_entropy_reference_values():
    assert entropy(-0.125, 0.5, P) == pytest.approx(S_AT_M_HALF, rel=1e-13)
    assert entropy(-0.125, 1.0, P) == pytest.approx(S_AT_NEG125_1, rel=1e-13)


def test_pullback_equals_curve_entropy():
    for m in (0.1, 0.3, 0.5, 0.8, 0.9, -0.2, -0.6):
        for n in (1, 12):
            s_curve = n * s_of_m(m, P)
            s_surf = entropy(n * u_of_m(m, P), n * m, P)
            assert s_surf == pytest.approx(s_curve, rel=1e-13)


def test_spin_flip_symmetry():
    for u, m in ((-0.125, 1.0), (-0.3, 0.9), (0.2, -0.7)):
        assert entropy(u, -m, P) == entropy(u, m, P)


def test_homogeneity():
    rng = np.random.default_rng(1)
    base = entropy(-0.125, 1.0, P)
    assert entropy(-0.25, 2.0, P) == pytest.approx(2.0 * base, rel=1e-14)
    for _ in range(50):
        x = float(rng.uniform(0.05, 0.95)) * float(rng.choice([-1.0, 1.0]))
        m = float(rng.uniform(0.1, 2.0)) * float(rng.choice([-1.0, 1.0]))
        u = 0.5 * x * P.jz * m
        s1 = entropy(u, m, P)
        for lam in (0.5, 2.0, 10.0):
            assert entropy(lam * u, lam * m, P) == pytest.approx(lam * s1, rel=1e-12)


def test_gradient_is_curve_momenta_at_pullback():
    for m in (0.1, 0.3, 0.5, 0.8):
        ds_du, ds_dm = gradient(12 * u_of_m(m, P), 12 * m, P)
        assert ds_du == pytest.approx(P.k * beta_of_m(m, P), rel=1e-10)
        assert ds_dm == pytest.approx(P.k * xi_of_m(m, P), rel=1e-8, abs=1e-14)


def test_gradient_matches_finite_differences_at_pullback():
    u, m = -0.125, 0.5
    ds_du, ds_dm = gradient(u, m, P)
    hu, hm = 1e-6 * abs(u), 1e-6 * abs(m)
    fd_u = (entropy(u + hu, m, P) - entropy(u - hu, m, P)) / (2 * hu)
    fd_m = (entropy(u, m + hm, P) - entropy(u, m - hm, P)) / (2 * hm)
    assert fd_u == pytest.approx(ds_du, rel=1e-8)
    assert fd_m == pytest.approx(ds_dm, rel=1e-8)


def test_gradient_a_shift_is_exact():
    u, m = -0.3, 0.8
    g0 = gradient(u, m, P, a=0.0)
    g1 = gradient(u, m, P, a=1.0)
    assert g1[0] - g0[0] == pytest.approx(-m * m / (u * u), rel=1e-15)
    assert g1[1] - g0[1] == pytest.approx(2 * m / u, rel=1e-15)


def test_ds_du_positive_on_physical_region():
    for m in (0.2, 0.5, 1.0, 1.8):
        for x in (-0.1, -0.5, -0.9):
            u = 0.5 * x * P.jz * m   # U < 0 for M > 0
            assert gradient(u, m, P)[0] > 0


def test_hj_residual_vanishes_for_every_branch():
    for a in (0.0, 7.3, 1.0, -3.0):
        assert abs(hj_residual(-0.125, 1.0, P, a)) < 1e-12


def test_hj_residual_random_states():
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = float(rng.uniform(0.05, 0.95)) * float(rng.choice([-1.0, 1.0]))
        m = float(rng.uniform(0.1, 2.0)) * float(rng.choice([-1.0, 1.0]))
        u = 0.5 * x * P.jz * m
        for a in (0.0, 1.0, -3.0):
            assert abs(hj_residual(u, m, P, a)) < 1e-10 * (1 + abs(math.atanh(x)))


def test_perturbed_entropy_breaks_the_pde():
    # adding eps*U^2 shifts dS/dU by 2 eps U, leaving a visible residual
    u, m, eps = -0.125, 1.0, 0.1
    ds_du, ds_dm = gradient(u, m, P)
    x = 2 * u / (P.jz * m)
    res = 2 * u / (P.k * m) * (ds_du + 2 * eps * u) + ds_dm / P.k - math.atanh(x)
    assert abs(res) > 1e-3


def test_domain_errors_name_the_violation():
    with pytest.raises(DomainError, match="M = 0"):
        entropy(-0.5, 0.0, P)
    with pytest.raises(DomainError, match="U = 0"):
        entropy(0.0, 1.0, P)
    with pytest.raises(DomainError, match="atanh argument"):
        entropy(-0.6, 1.0, P)
    with pytest.raises(DomainError):
        gradient(-1.0, 1.0, P)
    with pytest.raises(DomainError):
        hj_residual(2.0, 1.0, P)


def test_in_domain():
    assert in_domain(-0.125, 1.0, P)
    assert not in_domain(0.0, 1.0, P)
    assert not in_domain(-0.5, 0.0, P)
    assert not in_domain(-0.5, 1.0, P)
    assert in_domain(0.125, -1.0, P)   # U > 0 valid with M < 0


def test_non_finite_states_are_outside_the_domain():
    for u, m in ((math.nan, 1.0), (-0.125, math.nan), (math.inf, 1.0)):
        assert not in_domain(u, m, P)
        with pytest.raises(DomainError):
            entropy(u, m, P)
    with pytest.raises(DomainError):
        surface_grid((math.nan, 1.0), (-2.0, 2.0), 5, 5, P)
    with pytest.raises(DomainError):
        surface_grid((-1.0, 1.0), (-2.0, math.inf), 5, 5, P)


def test_unrepresentable_states_raise_and_are_masked():
    # Jz M underflows to 0; S meets inf * 0; S overflows
    for u, m, p in ((1e-300, 1e-300, ModelParams(jz=1e-300)),
                    (1e-300, 1e32, P), (-1e307, 1e308, ModelParams(k=1e10))):
        with pytest.raises(DomainError):
            entropy(u, m, p)
    cells = surface_grid((-1e-300, 1e-300), (-1e308, 1e308), 9, 9, P)
    assert all(math.isfinite(c.s) if c.valid else c.s is None for c in cells)


def test_underflowing_products_are_domain_errors():
    # U^2 underflows to 0 in dS/dU
    with pytest.raises(DomainError):
        gradient(-1e-301, 1e-300, P)
    with pytest.raises(DomainError):
        hj_residual(-1e-301, 1e-300, P)
    # k M underflows to 0 in the residual's 2U/(kM)
    with pytest.raises(DomainError):
        hj_residual(-1e-30, 1e-29, ModelParams(k=1e-300))


def test_surface_grid_masks_instead_of_skipping():
    cells = surface_grid((-1.0, 1.0), (-2.0, 2.0), 33, 33, P)
    assert len(cells) == 33 * 33
    masked = [c for c in cells if not c.valid]
    valid = [c for c in cells if c.valid]
    assert masked and valid
    assert 0 < len(masked) / len(cells) < 1
    for c in masked:
        assert c.s is None
    # every M = 0 cell is masked
    assert all(not c.valid for c in cells if c.m == 0.0)
    # the reference cell lands on this grid
    hit = [c for c in cells if c.u == -0.125 and c.m == 1.0]
    assert len(hit) == 1 and hit[0].valid
    assert hit[0].s == pytest.approx(S_AT_NEG125_1, rel=1e-13)


def test_surface_grid_rejects_degenerate_axes():
    with pytest.raises(DomainError):
        surface_grid((-1.0, 1.0), (-2.0, 2.0), 1, 33, P)


@pytest.mark.parametrize("u_range, m_range, n, p, a", [
    ((-1.0, 1.0), (-2.0, 2.0), 33, P, 0.0),
    ((-1.0, 1.0), (-2.0, 2.0), 17, ModelParams(jz=2.5, k=0.7), 7.3),
    ((-1e-300, 1e-300), (-1e308, 1e308), 9, P, 0.0),   # NaN and inf M, masked
    ((-1e307, 1e307), (-1e308, 1e308), 9, ModelParams(k=1e10), 0.0),
])
def test_surface_grid_equals_scalar_entropy(u_range, m_range, n, p, a):
    cells = surface_grid(u_range, m_range, n, n, p, a)
    assert len(cells) == n * n and len(list(cells)) == n * n
    with np.errstate(all="ignore"):
        for i, cell in enumerate(cells):
            assert repr(cells[i]) == repr(cell)   # NaN M cells compare unequal
            try:
                s = entropy(cell.u, cell.m, p, a)
            except DomainError:
                assert not cell.valid and cell.s is None
            else:
                # the same numpy ufuncs on the same operands: equal bits
                assert cell.valid and cell.s == s
