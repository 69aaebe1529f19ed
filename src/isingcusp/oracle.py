"""Exact finite-N grand-canonical oracle.

The grand partition function at fixed order parameter m,

    Xi = sum over spin configurations of
         exp[-beta (N Jz m^2/2 - Jz m sum_i S_i) - xi sum_i S_i],

is evaluated two independent ways: brute-force enumeration of all 2^N
configurations and a binomial sum over the total spin. Central
differences of log Xi with the fixed step STEP recover M and U, and
Psi + k beta U + k xi M, with the Massieu function Psi = k log Xi,
reconstructs the entropy, which exceeds the curve normalization by
exactly k N log 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import _check_m, beta_of_m, s_of_m, xi_of_m
from .model import ConjugateCoords, ModelParams, SizeError
from .selfconsistent import massieu_per_site

ENUM_CAP = 20
BINOM_CAP = 10 ** 6
# Step of the central differences in beta and xi. Their round-off,
# about N log 2 eps / STEP, dominates the truncation error at large N.
STEP = 1e-6
# Self-consistency residuals above this flag an off-curve point.
FLAG_TOL = 1e-3
# log j! comes from lgamma up to this j and from the Stirling series above,
# where its first omitted term is below 1e-17.
STIRLING_FROM = 32


def _log_factorials(n: int) -> np.ndarray:
    """log j! for j = 0..n."""
    small = min(n, STIRLING_FROM)
    x = np.arange(small + 2.0, n + 2.0)  # j + 1 for j > small
    r = 1.0 / (x * x)
    tail = ((x - 0.5) * np.log(x) - x + 0.5 * math.log(2.0 * math.pi)
            + (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / x)
    return np.concatenate(([math.lgamma(j + 1.0) for j in range(small + 1)], tail))


def log_partition_enum(m: float, c: ConjugateCoords, p: ModelParams) -> float:
    """log Xi by summing all 2^N configurations in log space."""
    _check_m(m)
    if p.n > ENUM_CAP:
        raise SizeError(f"enumeration handles N <= {ENUM_CAP}, got N = {p.n}")
    # configuration i has total spin 2 popcount(i) - N; it is formed in
    # float64 because the uint8 popcount would wrap, then reused in place
    expo = 2.0 * np.bitwise_count(np.arange(2 ** p.n, dtype=np.uint32)) - p.n
    expo *= c.beta * p.jz * m - c.xi
    expo += -0.5 * c.beta * p.n * p.jz * m * m
    mx = expo.max()
    expo -= mx
    return float(mx + np.log(np.exp(expo, out=expo).sum()))


def log_partition_binom(m: float, c: ConjugateCoords, p: ModelParams) -> float:
    """log Xi by grouping configurations by total spin with C(N, j) weights."""
    _check_m(m)
    if p.n > BINOM_CAP:
        raise SizeError(f"binomial sum handles N <= {BINOM_CAP}, got N = {p.n}")
    lf = _log_factorials(p.n)
    spin_sum = 2.0 * np.arange(p.n + 1, dtype=np.float64) - p.n
    theta = c.beta * p.jz * m - c.xi
    expo = (lf[p.n] - lf - lf[::-1]
            - 0.5 * c.beta * p.n * p.jz * m * m + theta * spin_sum)
    mx = expo.max()
    return float(mx + np.log(np.exp(expo - mx).sum()))


def log_partition_closed(m: float, c: ConjugateCoords, p: ModelParams) -> float:
    """Closed form -beta N Jz m^2/2 + N log(2 cosh(beta Jz m - xi)).

    Follows from the configuration sum factorizing over sites; used as
    the cross-check for both summation methods.
    """
    _check_m(m)
    return p.n * massieu_per_site(m, c, p)


def log_partition(m: float, c: ConjugateCoords, p: ModelParams,
                  method: str = "auto") -> float:
    """log Xi by "enum", "binom", "closed", or "auto" (enum up to ENUM_CAP)."""
    if method == "auto":
        method = "enum" if p.n <= ENUM_CAP else "binom"
    if method == "enum":
        return log_partition_enum(m, c, p)
    if method == "binom":
        return log_partition_binom(m, c, p)
    if method == "closed":
        return log_partition_closed(m, c, p)
    raise ValueError(f"unknown method {method!r}")


def _central(f, x0: float) -> float:
    return (f(x0 + STEP) - f(x0 - STEP)) / (2.0 * STEP)


@dataclass(frozen=True)
class OracleResult:
    log_xi: float
    psi: float
    m_numeric: float
    u_numeric: float
    s_entropy1: float


def evaluate(m: float, c: ConjugateCoords, p: ModelParams,
             method: str = "auto") -> OracleResult:
    """Psi = k log Xi plus its numeric derivatives and the entropy1 reconstruction.

    m is held fixed while differentiating with respect to beta and xi;
    the self-consistent equation is imposed only afterwards.
    """
    lx = log_partition(m, c, p, method)
    m_numeric = -_central(
        lambda xi: log_partition(m, ConjugateCoords(beta=c.beta, xi=xi), p, method), c.xi)
    u_numeric = -_central(
        lambda beta: log_partition(m, ConjugateCoords(beta=beta, xi=c.xi), p, method), c.beta)
    s1 = p.k * lx + p.k * c.beta * u_numeric + p.k * c.xi * m_numeric
    return OracleResult(log_xi=lx, psi=p.k * lx, m_numeric=m_numeric,
                        u_numeric=u_numeric, s_entropy1=s1)


@dataclass(frozen=True)
class ConsistencyReport:
    m_numeric: float
    u_numeric: float
    m_expected: float
    u_expected: float
    m_residual: float
    u_residual: float
    consistent: bool


def check_self_consistency(m: float, c: ConjugateCoords, p: ModelParams,
                           method: str = "auto") -> ConsistencyReport:
    """Compare numeric M, U against M = Nm and U = -Jz N m^2 / 2.

    On the solution curve both residuals vanish to finite-difference
    accuracy; off-curve points are flagged inconsistent.
    """
    res = evaluate(m, c, p, method)
    m_expected = p.n * m
    u_expected = -0.5 * p.jz * p.n * m * m
    m_residual = res.m_numeric - m_expected
    u_residual = res.u_numeric - u_expected
    ok = (abs(m_residual) <= FLAG_TOL * max(1.0, abs(m_expected))
          and abs(u_residual) <= FLAG_TOL * max(1.0, abs(u_expected)))
    return ConsistencyReport(m_numeric=res.m_numeric, u_numeric=res.u_numeric,
                             m_expected=m_expected, u_expected=u_expected,
                             m_residual=m_residual, u_residual=u_residual,
                             consistent=ok)


def check_entropy_offset(m: float, p: ModelParams, method: str = "auto") -> float:
    """S_entropy1 minus N s(m) at the curve point for this m.

    The difference is the constant k N log 2, independent of m.
    """
    c = ConjugateCoords(beta=beta_of_m(m, p), xi=xi_of_m(m, p))
    res = evaluate(m, c, p, method)
    return res.s_entropy1 - p.n * s_of_m(m, p)
