"""Susceptibility, specific heat, jacobian shrink rate, exponent fits."""
import decimal
import math

import numpy as np
import pytest

from isingcusp import (DomainError, ModelParams, beta_of_m, fit_exponents,
                       jacobian_norm, reduced_temperature, specific_heat,
                       susceptibility)

P = ModelParams()

CHI_HALF = 6.3017333343367247        # chi at m = 0.5, 50-digit reference
C_HALF = 0.90644785283023031        # specific heat at m = 0.5


def chi_implicit(m, p):
    """Susceptibility via implicit differentiation of m = tanh(b*jz*m - xi).

    dm/dxi at fixed beta: m' = sech^2(theta) (b jz m' - 1), so
    m' = -sech^2 / (1 - b jz sech^2); chi = b m'. On the curve
    sech^2(theta) = 1 - m^2. This route carries the opposite sign
    (response to +xi rather than to the field h = -xi/beta).
    """
    b = beta_of_m(m, p)
    sech2 = 1.0 - m * m
    return -b * sech2 / (1.0 - b * p.jz * sech2)


def test_chi_reference_value():
    assert susceptibility(0.5, P) == pytest.approx(CHI_HALF, rel=1e-12)


def test_chi_even_in_m():
    for m in (0.1, 0.35, 0.7):
        assert susceptibility(-m, P) == susceptibility(m, P)


def test_chi_agrees_with_implicit_differentiation():
    assert susceptibility(0.5, P) == pytest.approx(-chi_implicit(0.5, P),
                                                   rel=1e-13)
    assert susceptibility(0.005, P) == pytest.approx(-chi_implicit(0.005, P),
                                                     rel=1e-9)


def test_chi_curie_weiss_normalization():
    # chi * (T - Tc) -> -1/(k) as m -> 0 with Jz = k = 1
    m = 0.05
    t_minus_tc = 1.0 / (P.k * beta_of_m(m, P)) - 1.0 / P.k
    prod = susceptibility(m, P) * t_minus_tc
    assert abs(prod) == pytest.approx(1.0, abs=1e-2)


def test_chi_rejects_origin():
    with pytest.raises(DomainError):
        susceptibility(0.0, P)


def chi_decimal(m):
    """chi = L (1 - y) / (Jz D) with Jz = 1, y = m^2, L = -log(1 - y).

    D cancels to y^2 / 2, so the precision must cover 1 - y to well past
    y^2: 800 digits reach m = 1e-150.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 800
        y = decimal.Decimal(m) ** 2
        log1my = (1 - y).ln()
        return float(-log1my * (1 - y) / (y + (1 - y) * log1my))


@pytest.mark.parametrize("m", [1e-78, 1e-80, 1e-100, 1e-150])
def test_chi_matches_decimal_where_m4_underflows(m):
    assert susceptibility(m, P) == pytest.approx(chi_decimal(m), rel=1e-13)
    assert susceptibility(-m, P) == susceptibility(m, P)


@pytest.mark.parametrize("m", [1e-160, 5e-324])
def test_chi_overflow_is_a_domain_error(m):
    with pytest.raises(DomainError):
        susceptibility(m, P)


def test_specific_heat_limit():
    assert specific_heat(1e-3, P) == pytest.approx(P.k, abs=1e-4)


def test_specific_heat_reference_value():
    assert specific_heat(0.5, P) == pytest.approx(C_HALF, rel=1e-8)


def c_closed(m, p):
    # C = k (b jz)^2 m^4 / (2 [m^2/(1-m^2) + log(1-m^2)])
    bjz = beta_of_m(m, p) * p.jz
    y = m * m
    denom = y / (1.0 - y) + math.log1p(-y)
    return p.k * bjz * bjz * y * y / (2.0 * denom)


def test_specific_heat_closed_form_cross_check():
    for m in (0.3, 0.5, 0.8):
        assert specific_heat(m, P) == pytest.approx(c_closed(m, P), rel=1e-7)


def c_decimal(m):
    """C/k = L^2 (1 - y) / (2 D) at 100 digits, y = m^2, L = -log(1 - y)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        y = decimal.Decimal(m) ** 2
        log1my = (1 - y).ln()
        return float(log1my * log1my * (1 - y) / (2 * (y + (1 - y) * log1my)))


@pytest.mark.parametrize("m", [1e-9, 1e-6, 6e-5, 1e-3, 0.0199, 0.0201,
                               0.1, 0.5, 0.9, 0.99])
def test_specific_heat_matches_decimal_reference(m):
    assert specific_heat(m, P) == pytest.approx(c_decimal(m), rel=1e-12)
    assert specific_heat(-m, P) == specific_heat(m, P)


def test_specific_heat_finite_down_to_underflow():
    for m in (1e-100, 1e-200, 5e-324):
        assert specific_heat(m, P) == P.k


def test_specific_heat_even():
    assert specific_heat(-0.5, P) == specific_heat(0.5, P)


def test_reduced_temperature_sign_and_range():
    # ordered side sits below Tc, so t < 0 and t -> 0 as m -> 0
    ts = [reduced_temperature(m, P) for m in (0.01, 0.1, 0.5, 0.9)]
    assert all(t < 0 for t in ts)
    assert all(abs(a) < abs(b) for a, b in zip(ts, ts[1:]))
    assert reduced_temperature(0.01, P) == pytest.approx(-1e-4 / 2, rel=1e-2)


def test_jacobian_norm_values():
    # |(dbeta/dm, dxi/dm)| ~ m * sqrt(1 + 1/(jz^2)) for small m
    n3 = jacobian_norm(1e-3, P)
    assert n3 == pytest.approx(1e-3, rel=0.05)
    n2 = jacobian_norm(1e-2, P)
    assert n2 / n3 == pytest.approx(10.0, rel=0.05)


def test_jacobian_norm_shrinks_monotonically():
    import numpy as np
    ms = np.geomspace(1e-4, 1e-1, 25)
    norms = [jacobian_norm(float(m), P) for m in ms]
    assert all(b > a for a, b in zip(norms, norms[1:]))


def jacobian_decimal(m, jz):
    """|(dbeta/dm, dxi/dm)| from the quotient rule on the curve's closed forms.

    With y = m^2 and L = -log(1 - y): dxi/dm = 1/(1 - y) - L/y and
    dbeta/dm = 2 (dxi/dm) / (Jz m). The difference cancels to y/2, so
    1 - y must be held to well past y^2: the precision grows with the
    digits of 1/y^2.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60 + 4 * max(0, -math.floor(math.log10(abs(m))))
        dm = decimal.Decimal(m)
        y = dm * dm
        dxi = 1 / (1 - y) + (1 - y).ln() / y
        dbeta = 2 * dxi / (decimal.Decimal(jz) * dm)
        return float((dbeta * dbeta + dxi * dxi).sqrt())


@pytest.mark.parametrize("jz", [1.0, 2.5])
def test_jacobian_norm_matches_decimal(jz):
    p = ModelParams(jz=jz)
    grid = np.concatenate((np.geomspace(1e-300, 1e-2, 16), [0.0199, 0.0201],
                           np.geomspace(1e-2, 0.999, 30)))
    for m in grid:
        ref = jacobian_decimal(float(m), jz)
        assert jacobian_norm(float(m), p) == pytest.approx(ref, rel=1e-12)
        assert jacobian_norm(-float(m), p) == jacobian_norm(float(m), p)


def test_fit_exponents_window():
    rep = fit_exponents(P, 1e-3, 1e-2, 20)
    assert rep.delta.value == pytest.approx(3.0, abs=0.01)
    assert rep.beta_exp.value == pytest.approx(0.5, abs=0.005)
    assert rep.gamma.value == pytest.approx(1.0, abs=0.02)
    assert rep.alpha.flag
    assert rep.alpha.max_deviation < 1e-3
    for entry in (rep.delta, rep.beta_exp, rep.gamma):
        assert entry.residual < 1e-2
        assert entry.window == (1e-3, 1e-2)


def test_fit_rejects_bad_windows():
    with pytest.raises(DomainError):
        fit_exponents(P, 1e-2, 1e-3, 20)     # reversed
    with pytest.raises(DomainError):
        fit_exponents(P, 0.0, 1e-2, 20)      # zero lower edge
    with pytest.raises(DomainError):
        fit_exponents(P, 1e-3, 1e-2, 3)      # too few points
    with pytest.raises(DomainError):
        fit_exponents(P, 0.01, 0.05, 20)     # straddles the series seam
    with pytest.raises(DomainError):
        fit_exponents(P, 1e-120, 1e-2, 20)   # xi = m^3 / 6 underflows to 0


def test_series_fidelity_small_m():
    # the truncated expansions must track the closed forms tightly
    from isingcusp import xi_of_m
    m = 1e-2
    bjz = beta_of_m(m, P) * P.jz
    assert abs(bjz - (1 + m**2 / 2 + m**4 / 3)) < 1e-11
    assert abs(xi_of_m(m, P) - (m**3 / 6 + 2 * m**5 / 15)) < 1e-13


def test_response_matches_decimal_just_above_the_seam():
    # the closed D/y^2 cancels to ~2 eps / y here; the series now reaches |m| = 0.1
    for m in np.linspace(0.02, 0.05, 301):
        m = float(m)
        assert susceptibility(m, P) == pytest.approx(chi_decimal(m), rel=1e-13)
        assert specific_heat(m, P) == pytest.approx(c_decimal(m), rel=1e-13)
        assert jacobian_norm(m, P) == pytest.approx(jacobian_decimal(m, 1.0), rel=1e-13)


def test_reduced_temperature_keeps_digits_near_the_cusp():
    # t = -(y/2 + y^2/3 + ...)/(beta Jz) from the series, not 1 - beta Jz rounded
    assert reduced_temperature(1e-9, P) == pytest.approx(-0.5e-18, rel=1e-12)
    assert reduced_temperature(-1e-100, P) == pytest.approx(-0.5e-200, rel=1e-12)
    rep = fit_exponents(P, 1e-7, 1e-6)
    assert rep.beta_exp.value == pytest.approx(0.5, abs=1e-5)
    assert rep.gamma.value == pytest.approx(1.0, abs=1e-5)
