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

from .curve import M_SWITCH, beta_of_m, xi_of_m
from .model import DomainError, ModelParams

# Specific-heat flatness threshold for the alpha = 0 flag.
ALPHA_TOL = 1e-3


def _check_nonzero_m(m: float) -> None:
    if not 0.0 < abs(m) < 1.0:
        raise DomainError(f"need 0 < |m| < 1, got m = {m}")


def _denominator(m: float) -> float:
    """D / y^2, where D = y + (1 - y) log(1 - y) and y = m^2.

    D cancels to O(y^2), so below the seam D / y^2 is summed as the series
    1/2 + y/6 + y^2/12 + y^3/20 + y^4/30 (coefficient 1/(j(j-1)) on
    m^(2j-4)); y^2 is never formed there, so it cannot underflow.
    """
    y = m * m
    if abs(m) < M_SWITCH:
        return 0.5 + y * (1.0 / 6.0 + y * (1.0 / 12.0 + y * (1.0 / 20.0 + y / 30.0)))
    return (y + (1.0 - y) * math.log1p(-y)) / (y * y)


def susceptibility(m: float, p: ModelParams) -> float:
    """Closed-form susceptibility beta m^2 (1-m^2) / D; diverges at m = 0.

    It is evaluated from D / m^4 with m^2 divided out one m at a time, so
    no m^4 is formed. Below |m| of about 1e-154 (for Jz = 1) chi itself
    overflows, which is a DomainError.
    """
    _check_nonzero_m(m)
    chi = beta_of_m(m, p) * (1.0 - m * m) / _denominator(m) / m / m
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
    l_over_y = beta_of_m(m, p) * p.jz
    return p.k * l_over_y * l_over_y * (1.0 - m * m) / (2.0 * _denominator(m))


def reduced_temperature(m: float, p: ModelParams) -> float:
    """t = (T - T_c)/T_c = (1 - Jz beta)/(Jz beta); negative along the curve."""
    bjz = beta_of_m(m, p) * p.jz
    return (1.0 - bjz) / bjz


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
    # xi and t round to 0 near m = 0 (t below |m| of about 1e-8)
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
    window = (m_min, m_max)
    ms = np.geomspace(m_min, m_max, n_points)
    xis = np.array([xi_of_m(float(m), p) for m in ms])
    ts = np.array([reduced_temperature(float(m), p) for m in ms])
    chis = np.array([susceptibility(float(m), p) for m in ms])
    cs = np.array([specific_heat(float(m), p) for m in ms])

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
