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

from .curve import (M_SWITCH, _beta_xi, _bjz_excess, _chi, _denominator, _heat, _response,
                    beta_of_m)
from .model import (DomainError, ModelParams, check_cells, check_index, check_m, finite, log_grid,
                    logs)

# Specific-heat flatness threshold for the alpha = 0 flag.
ALPHA_TOL = 1e-3


def _check_nonzero_m(m: float) -> None:
    if check_m(m) == 0.0:
        raise DomainError(f"need 0 < |m| < 1, got m = {m}")


def susceptibility(m: float, p: ModelParams) -> float:
    """Closed-form susceptibility beta m^2 (1-m^2) / D; diverges at m = 0.

    It is evaluated from D / m^4 with m^2 divided out one m at a time, so
    no m^4 is formed. Below |m| of about 1e-154 (for Jz = 1) chi itself
    overflows, which is a DomainError.
    """
    _check_nonzero_m(m)
    return finite(_chi(beta_of_m(m, p), m, _denominator(m)), "susceptibility", m=m)


def specific_heat(m: float, p: ModelParams) -> float:
    """Specific heat per site, (du/dm) / (dT/dm); tends to k as m -> 0.

    In closed form C = k L^2 (1 - y) / (2 D) with y = m^2,
    L = -log(1 - y) and D as in the susceptibility. It is evaluated from
    the ratios L/y = beta Jz and D/y^2, which stay finite for every
    0 < |m| < 1. Even in m.
    """
    _check_nonzero_m(m)
    return finite(_heat(beta_of_m(m, p) * p.jz, m, _denominator(m), p), "specific heat", m=m)


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
    return finite(math.hypot(dbeta, dxi), "jacobian norm", m=m)


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
    """Least-squares slope of log|y| on log|x|, and the rms of its residuals.

    The line is fitted in closed form, slope = Sxy / Sxx over the centred
    logs, each sum an exact math.fsum and each log math's, so no BLAS or
    SIMD kernel enters and every host gives the same bits.
    """
    # xi ~ m^3/6 underflows to 0 below |m| of about 1e-108, t ~ -m^2/2 below 1e-162
    if not (np.all(x) and np.all(y)):
        raise DomainError("exponent window reaches values that round to 0; raise m_min")
    lx, ly = ([math.log(abs(v)) for v in z.tolist()] for z in (x, y))
    xbar, ybar = math.fsum(lx) / len(lx), math.fsum(ly) / len(ly)
    dx, dy = [v - xbar for v in lx], [v - ybar for v in ly]
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / math.fsum(a * a for a in dx)
    # from the residuals: they are 1e-6 of the logs or less, so Syy - slope Sxy cancels
    rms = math.sqrt(math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy)) / len(dx))
    return slope, rms


def fit_exponents(p: ModelParams, m_min: float = 1e-3, m_max: float = 1e-2,
                  n_points: int = 20) -> ExponentReport:
    """Fit delta, beta, gamma on log-spaced points and flag alpha = 0.

    delta is the slope of log xi vs log m, beta the slope of log m vs
    log|t|, gamma minus the slope of log chi vs log|t|; alpha is flagged
    zero when C/k stays within ALPHA_TOL of one across the window.
    """
    if not 0.0 < m_min < m_max < 1.0:
        raise DomainError(f"need 0 < m_min < m_max < 1, got [{m_min}, {m_max}]")
    n_points = check_cells(check_index(n_points, "exponent window point count", 5))
    if m_min < M_SWITCH <= m_max:
        raise DomainError("window straddles the series seam at "
                          f"{M_SWITCH}; fits must stay on one branch")
    window = (m_min, m_max)
    ms = log_grid(m_min, m_max, n_points)
    with np.errstate(all="ignore"):
        lg, at = logs(ms)
        betas, xis = _beta_xi(ms, lg, at, p)
        bjz = betas * p.jz
        ts = np.where(ms < M_SWITCH, _t_series(ms, bjz), _t_closed(bjz))
        chis, cs = _response(ms, lg, betas, p)
    if np.isinf(chis).any():
        raise DomainError(f"susceptibility overflows in the window; raise m_min = {m_min}")
    if np.isinf(cs).any():
        raise DomainError(f"specific heat overflows in the window at k = {p.k}")

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
