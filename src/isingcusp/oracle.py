"""Exact finite-N grand-canonical oracle.

The grand partition function at fixed order parameter m,

    Xi = sum over spin configurations of
         exp[-beta (N Jz m^2/2 - Jz m sum_i S_i) - xi sum_i S_i],

is evaluated two independent ways: a binomial sum over the total spin,
exact and O(N), which log_partition and evaluate use by default, and
brute-force enumeration of all 2^N configurations, the reference a
caller names (method "enum") to check the sum against. Central differences of log Xi
with the fixed step STEP recover M and U, and Psi + k beta U + k xi M,
with the Massieu function Psi = k log Xi, reconstructs the entropy, which
exceeds the curve normalization by exactly k N log 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import beta_of_m, s_of_m, xi_of_m
from .model import ConjugateCoords, DomainError, ModelParams, SizeError, check_m, finite
from .selfconsistent import _massieu

ENUM_CAP = 20
BINOM_CAP = 10 ** 6
# Step of the central differences in beta and xi. Their round-off,
# about N log 2 eps / STEP, dominates the truncation error at large N.
STEP = 1e-6
# log j! comes from lgamma up to this j and from the Stirling series above,
# where its first omitted term is below 1e-17.
STIRLING_FROM = 32
# Tables are formed this many entries at a time: the Stirling terms, the
# fold of log C(N, j) and the spin terms of the sum, and the configurations
# of the enumeration.
BLOCK = 2 ** 16


def _log_factorials(n: int) -> np.ndarray:
    """log j! for j = 0..n, built in blocks of BLOCK to bound the temporaries."""
    lf = np.empty(n + 1)
    small = min(n, STIRLING_FROM)
    lf[:small + 1] = [math.lgamma(j + 1.0) for j in range(small + 1)]
    for lo in range(small + 1, n + 1, BLOCK):
        x = np.arange(lo + 1.0, min(lo + BLOCK, n + 1) + 1.0)  # j + 1
        r = 1.0 / (x * x)
        lf[lo:lo + x.size] = ((x - 0.5) * np.log(x) - x + 0.5 * math.log(2.0 * math.pi)
                              + (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / x)
    return lf


def log_partition_enum(m: float, c: ConjugateCoords, p: ModelParams) -> float:
    """log Xi by summing all 2^N configurations in log space, BLOCK at a time."""
    check_m(m)
    if p.n > ENUM_CAP:
        raise SizeError(f"enumeration handles N <= {ENUM_CAP}, got N = {p.n}")
    n = p.n
    theta = c.beta * p.jz * m - c.xi
    const = -0.5 * c.beta * n * p.jz * m * m
    # rounding is monotone and the total spins +-N are exact, so the largest
    # exponent, fl(fl(theta (2 popcount - N)) + const), is known before the sum
    mx = n * abs(theta) + const
    size = min(2 ** n, BLOCK)
    expo = np.empty(size)
    partials = []
    with np.errstate(all="ignore"):
        for lo in range(0, 2 ** n, size):
            # configuration i has total spin 2 popcount(i) - N, formed in
            # float64 because the uint8 popcount would wrap
            np.multiply(np.bitwise_count(np.arange(lo, lo + size, dtype=np.uint32)), 2.0,
                        out=expo)
            expo -= n
            expo *= theta
            expo += const
            expo -= mx
            partials.append(float(np.exp(expo, out=expo).sum()))
        # numpy sums one contiguous 2^N array pairwise, halving it down to
        # blocks: the same tree over the block sums gives the same bits
        while len(partials) > 1:
            partials = [a + b for a, b in zip(partials[::2], partials[1::2])]
        return finite(float(mx + np.log(partials[0])), "log Xi",
                      m=m, beta=c.beta, xi=c.xi, Jz=p.jz, k=p.k)


def log_partition_binom(m: float, c: ConjugateCoords, p: ModelParams) -> float:
    """log Xi by grouping configurations by total spin with C(N, j) weights."""
    check_m(m)
    if p.n > BINOM_CAP:
        raise SizeError(f"binomial sum handles N <= {BINOM_CAP}, got N = {p.n}")
    n = p.n
    # log C(N, j) - beta N Jz m^2 / 2 + theta (2 j - N), formed in the one
    # table in the order (lf[N] - lf[j]) - lf[N - j] - ... + ...: log C is
    # folded in place a block of j and its mirror block of N - j at a time,
    # from copies of both taken before either is written
    expo = _log_factorials(n)
    lfn = expo[n]
    for lo in range(0, n // 2 + 1, BLOCK):
        hi = min(lo + BLOCK, n // 2 + 1)
        head = expo[lo:hi].copy()
        tail = expo[n - hi + 1:n - lo + 1][::-1].copy()
        expo[lo:hi] = lfn - head - tail
        expo[n - hi + 1:n - lo + 1] = (lfn - tail - head)[::-1]
    with np.errstate(all="ignore"):
        expo -= 0.5 * c.beta * n * p.jz * m * m
        theta = c.beta * p.jz * m - c.xi
        for lo in range(0, n + 1, BLOCK):
            spin = np.arange(lo, min(lo + BLOCK, n + 1), dtype=np.float64)
            spin *= 2.0
            spin -= n
            spin *= theta
            expo[lo:lo + spin.size] += spin
        mx = expo.max()
        expo -= mx
        return finite(float(mx + np.log(np.exp(expo, out=expo).sum())), "log Xi",
                      m=m, beta=c.beta, xi=c.xi, Jz=p.jz, k=p.k)


def log_partition_closed(m: float, c: ConjugateCoords, p: ModelParams) -> float:
    """Closed form -beta N Jz m^2/2 + N log(2 cosh(beta Jz m - xi)).

    Follows from the configuration sum factorizing over sites; used as
    the cross-check for both summation methods.
    """
    check_m(m)
    return finite(p.n * _massieu(m, c, p), "log Xi", m=m, beta=c.beta, xi=c.xi, Jz=p.jz, k=p.k)


def log_partition(m: float, c: ConjugateCoords, p: ModelParams,
                  method: str = "binom") -> float:
    """log Xi by "binom" (the default), "enum" or "closed"."""
    if method == "enum":
        return log_partition_enum(m, c, p)
    if method == "binom":
        return log_partition_binom(m, c, p)
    if method == "closed":
        return log_partition_closed(m, c, p)
    raise DomainError(f"unknown method {method!r}")


def _central(f, x0: float) -> float:
    return (f(x0 + STEP) - f(x0 - STEP)) / (2.0 * STEP)


@dataclass(frozen=True)
class OracleResult:
    log_xi: float
    m_numeric: float
    u_numeric: float
    s_entropy1: float


def evaluate(m: float, c: ConjugateCoords, p: ModelParams,
             method: str = "binom") -> OracleResult:
    """log Xi plus its numeric derivatives and the entropy1 reconstruction.

    m is held fixed while differentiating with respect to beta and xi;
    the self-consistent equation is imposed only afterwards.
    """
    lx = log_partition(m, c, p, method)
    m_numeric = -_central(
        lambda xi: log_partition(m, ConjugateCoords(beta=c.beta, xi=xi), p, method), c.xi)
    u_numeric = -_central(
        lambda beta: log_partition(m, ConjugateCoords(beta=beta, xi=c.xi), p, method), c.beta)
    # lx is finite, so a finite s1 has finite moments
    s1 = finite(p.k * lx + p.k * c.beta * u_numeric + p.k * c.xi * m_numeric,
                "S_entropy1", m=m, beta=c.beta, xi=c.xi, Jz=p.jz, k=p.k)
    return OracleResult(log_xi=lx, m_numeric=m_numeric, u_numeric=u_numeric, s_entropy1=s1)


def check_entropy_offset(m: float, p: ModelParams) -> float:
    """S_entropy1 minus N s(m) at the curve point for this m.

    The difference is the constant k N log 2, independent of m.
    """
    c = ConjugateCoords(beta=beta_of_m(m, p), xi=xi_of_m(m, p))
    res = evaluate(m, c, p)
    return res.s_entropy1 - p.n * s_of_m(m, p)
