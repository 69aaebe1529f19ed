"""Susceptibility, specific heat, exponent fits, and the cusp detector.

All quantities live on the solution curve, so they are functions of m.
The four mean-field exponents are recovered numerically from log-log
fits over a window approaching m = 0, which is where the map
m -> (beta(m), xi(m)) loses rank (the cusp).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import M_SWITCH, MATH_EACH, _beta_xi, _bjz_excess, beta_of_m
from .model import DomainError, ModelParams, check_cells

# Specific-heat flatness threshold for the alpha = 0 flag.
ALPHA_TOL = 1e-3

# Series/closed-form seam of D / y^2 alone. The closed form cancels to
# y^2 / 2 and keeps about 2 eps / y relative, 4e-14 at |m| = 0.1; the
# series below is summed to y^8 / 90, whose next term is 2e-20 relative
# there.
D_SWITCH = 0.1


def _check_nonzero_m(m: float) -> None:
    if not 0.0 < abs(m) < 1.0:
        raise DomainError(f"need 0 < |m| < 1, got m = {m}")


def _d_series(y):
    # D / y^2 = sum over j >= 2 of y^(j-2) / (j (j-1)); y^2 is never formed,
    # so it cannot underflow
    return 0.5 + y * (1.0 / 6.0 + y * (1.0 / 12.0 + y * (1.0 / 20.0 + y * (
        1.0 / 30.0 + y * (1.0 / 42.0 + y * (1.0 / 56.0 + y * (1.0 / 72.0 + y / 90.0)))))))


def _d_closed(y, lib=math):
    return (y + (1.0 - y) * lib.log1p(-y)) / (y * y)


def _denominator(m: float) -> float:
    """D / y^2, where D = y + (1 - y) log(1 - y) and y = m^2."""
    y = m * m
    if abs(m) < D_SWITCH:
        return _d_series(y)
    return _d_closed(y)


def _chi(beta, m, d):
    # beta m^2 (1 - m^2) / D from d = D / m^4, dividing m^2 out one m at a
    # time so no m^4 is formed
    return beta * (1.0 - m * m) / d / m / m


def _heat(bjz, m, d, p: ModelParams):
    # k L^2 (1 - y) / (2 D) from L / y = beta Jz and d = D / y^2
    return p.k * bjz * bjz * (1.0 - m * m) / (2.0 * d)


def _response(m, beta, p: ModelParams):
    """chi and C over a float64 array of m; run under np.errstate.

    chi is inf at m = 0, where C takes its limit k.
    """
    y = m * m
    d = np.where(np.abs(m) < D_SWITCH, _d_series(y), _d_closed(y, MATH_EACH))
    return _chi(beta, m, d), _heat(beta * p.jz, m, d, p)


def susceptibility(m: float, p: ModelParams) -> float:
    """Closed-form susceptibility beta m^2 (1-m^2) / D; diverges at m = 0.

    It is evaluated from D / m^4 with m^2 divided out one m at a time, so
    no m^4 is formed. Below |m| of about 1e-154 (for Jz = 1) chi itself
    overflows, which is a DomainError.
    """
    _check_nonzero_m(m)
    chi = _chi(beta_of_m(m, p), m, _denominator(m))
    if math.isinf(chi):
        raise DomainError(f"susceptibility overflows at m = {m}")
    return chi


def specific_heat(m: float, p: ModelParams) -> float:
    """Specific heat per site, (du/dm) / (dT/dm); tends to k as m -> 0.

    In closed form C = k L^2 (1 - y) / (2 D) with y = m^2,
    L = -log(1 - y) and D as in the susceptibility. It is evaluated from
    the ratios L/y = beta Jz and D/y^2, which stay finite for every
    0 < |m| < 1. Even in m.
    """
    _check_nonzero_m(m)
    return _heat(beta_of_m(m, p) * p.jz, m, _denominator(m), p)


def _t_series(m, bjz):
    # 1 - beta Jz from the beta series, so t keeps its digits as m -> 0
    return -_bjz_excess(m * m) / bjz


def _t_closed(bjz):
    return (1.0 - bjz) / bjz


def reduced_temperature(m: float, p: ModelParams) -> float:
    """t = (T - T_c)/T_c = (1 - Jz beta)/(Jz beta); negative along the curve.

    Below the seam 1 - Jz beta is the beta series without its constant
    term, so t keeps full precision as m -> 0 instead of rounding to 0.
    """
    bjz = beta_of_m(m, p) * p.jz
    if abs(m) < M_SWITCH:
        return _t_series(m, bjz)
    return _t_closed(bjz)


def jacobian_norm(m: float, p: ModelParams) -> float:
    """Euclidean norm of (dbeta/dm, dxi/dm); behaves like |m|/Jz near zero.

    Both derivatives are closed forms on D/y^2 with y = m^2:
    dbeta/dm = 2 m (D/y^2) / (Jz (1 - y)), and dxi/dm = (Jz m / 2) dbeta/dm
    = D / (y (1 - y)) follows from beta Jz m - xi = atanh(m). No y^2 is
    formed, so the norm stays accurate down to the smallest m.
    """
    _check_nonzero_m(m)
    dbeta = 2.0 * m * _denominator(m) / (p.jz * (1.0 - m * m))
    dxi = 0.5 * p.jz * m * dbeta
    return math.hypot(dbeta, dxi)


@dataclass(frozen=True)
class FitEntry:
    value: float
    target: float
    window: tuple[float, float]
    residual: float


@dataclass(frozen=True)
class AlphaEntry:
    flag: bool
    max_deviation: float
    window: tuple[float, float]
    target: float = 0.0


@dataclass(frozen=True)
class ExponentReport:
    delta: FitEntry
    beta_exp: FitEntry
    gamma: FitEntry
    alpha: AlphaEntry


def _loglog_slope(x, y):
    # xi ~ m^3/6 underflows to 0 below |m| of about 1e-108, t ~ -m^2/2 below 1e-162
    if not (np.all(x) and np.all(y)):
        raise DomainError("exponent window reaches values that round to 0; raise m_min")
    lx, ly = np.log(np.abs(x)), np.log(np.abs(y))
    slope, intercept = np.polyfit(lx, ly, 1)
    rms = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return float(slope), rms


def fit_exponents(p: ModelParams, m_min: float = 1e-3, m_max: float = 1e-2,
                  n_points: int = 20) -> ExponentReport:
    """Fit delta, beta, gamma on log-spaced points and flag alpha = 0.

    delta is the slope of log xi vs log m, beta the slope of log m vs
    log|t|, gamma minus the slope of log chi vs log|t|; alpha is flagged
    zero when C/k stays within ALPHA_TOL of one across the window.
    """
    if not 0.0 < m_min < m_max < 1.0:
        raise DomainError(f"need 0 < m_min < m_max < 1, got [{m_min}, {m_max}]")
    if n_points < 5:
        raise DomainError(f"exponent window needs at least 5 points, got {n_points}")
    if m_min < M_SWITCH <= m_max:
        raise DomainError("window straddles the series seam at "
                          f"{M_SWITCH}; fits must stay on one branch")
    check_cells(n_points)
    window = (m_min, m_max)
    ms = np.geomspace(m_min, m_max, n_points)
    with np.errstate(all="ignore"):
        betas, xis = _beta_xi(ms, p)
        bjz = betas * p.jz
        ts = np.where(ms < M_SWITCH, _t_series(ms, bjz), _t_closed(bjz))
        chis, cs = _response(ms, betas, p)
    if np.isinf(chis).any():
        raise DomainError(f"susceptibility overflows in the window; raise m_min = {m_min}")

    delta_slope, delta_rms = _loglog_slope(ms, xis)
    beta_slope, beta_rms = _loglog_slope(ts, ms)
    gamma_slope, gamma_rms = _loglog_slope(ts, chis)
    max_dev = float(np.max(np.abs(cs / p.k - 1.0)))

    return ExponentReport(
        delta=FitEntry(value=delta_slope, target=3.0, window=window, residual=delta_rms),
        beta_exp=FitEntry(value=beta_slope, target=0.5, window=window, residual=beta_rms),
        gamma=FitEntry(value=-gamma_slope, target=1.0, window=window, residual=gamma_rms),
        alpha=AlphaEntry(flag=max_dev < ALPHA_TOL, max_deviation=max_dev, window=window),
    )
