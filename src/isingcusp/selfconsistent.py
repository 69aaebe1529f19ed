"""Roots of the self-consistent equation m = tanh(beta Jz m - xi).

f(m) = m - tanh(beta Jz m - xi) has f' = 1 - beta Jz sech^2(beta Jz m - xi),
which vanishes only for beta Jz > 1, at m = (xi +- acosh(sqrt(beta Jz)))
/ (beta Jz). Those two points split [-1, 1] into at most three monotone
pieces with at most one root each; a piece whose end values differ in
sign is polished by bisection. Roots on the outer, increasing pieces are
stable fixed points and a root on the middle, decreasing piece is
unstable. Among stable roots the equilibrium maximizes the grand Massieu
function per site.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .curve import MATH_EACH, _s_closed, s_of_m
from .model import ConjugateCoords, DomainError, ModelParams, check_cells

BISECT_TOL = 1e-14
# Stable roots whose Massieu values agree this closely count as degenerate.
PSI_TIE = 1e-12


def _log2cosh(x: float) -> float:
    # log(2 cosh x) = |x| + log1p(exp(-2|x|)), without overflow: the same
    # arithmetic as np.logaddexp(x, -x), which overflows forming 2|x|
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax))


def massieu_per_site(m: float, c: ConjugateCoords, p: ModelParams) -> float:
    """Grand Massieu function over kN at magnetization parameter m."""
    theta = c.beta * p.jz * m - c.xi
    return -0.5 * c.beta * p.jz * m * m + _log2cosh(theta)


@dataclass(frozen=True, slots=True)
class Root:
    m: float
    stable: bool
    psi: float


@dataclass(frozen=True, slots=True)
class RootSet:
    """Roots sorted ascending in m; selected indexes the equilibrium root."""

    roots: tuple[Root, ...]
    selected: int

    @property
    def equilibrium(self) -> Root:
        return self.roots[self.selected]


def _f(bjz: float, xi: float, m: float) -> float:
    """f(m) = m - tanh(beta Jz m - xi), zero exactly at the roots."""
    return m - math.tanh(bjz * m - xi)


def _bisect(bjz: float, xi: float, lo: float, hi: float) -> float:
    # f is _f written out: a Python call per step was most of a solve's time
    tanh, tol = math.tanh, BISECT_TOL
    flo = lo - tanh(bjz * lo - xi)
    if flo == 0.0:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = mid - tanh(bjz * mid - xi)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _bisect_each(f, lo, hi):
    """_bisect on arrays of brackets, each element taking the scalar steps."""
    flo = f(lo)
    hi = np.where(flo == 0.0, lo, hi)  # an exact root closes its bracket
    while (live := hi - lo > BISECT_TOL).any():
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        exact, left = fmid == 0.0, flo * fmid < 0.0
        hi = np.where(live & (exact | left), mid, hi)
        lower = live & (exact | ~left)
        lo = np.where(lower, mid, lo)
        flo = np.where(lower, fmid, flo)
    return 0.5 * (lo + hi)


def _turning_points(bjz, xi, lib=math):
    """m-+ = (xi -+ acosh(sqrt(beta Jz))) / (beta Jz), where f' = 0 (beta Jz > 1).

    lib supplies acosh and sqrt: math for floats, MATH_EACH for arrays.
    """
    a = lib.acosh(lib.sqrt(bjz))
    return (xi - a) / bjz, (xi + a) / bjz


def solve(c: ConjugateCoords, p: ModelParams = ModelParams()) -> RootSet:
    """Find every root of m - tanh(beta Jz m - xi) and pick the equilibrium."""
    beta, xi = c.beta, c.xi
    if beta <= 0:
        raise DomainError(f"solver needs beta > 0, got {beta}")
    bjz = beta * p.jz
    # beta Jz m - xi spans +-(beta Jz + |xi|) over m in [-1, 1]
    if not math.isfinite(bjz + abs(xi)):
        raise DomainError(f"beta Jz m - xi overflows at beta = {beta}, "
                          f"xi = {xi}, Jz = {p.jz}")

    # f(-1) <= 0 <= f(1), so whenever the middle piece decreases one of
    # the outer pieces changes sign and a stable root exists
    edges = [-1.0, 1.0]
    values = [_f(bjz, xi, -1.0), _f(bjz, xi, 1.0)]
    middle = -1  # the index of the decreasing piece, once there is one
    if bjz > 1.0:
        lo, hi = _turning_points(bjz, xi)
        lo = -1.0 if lo < -1.0 else 1.0 if lo > 1.0 else lo
        hi = -1.0 if hi < -1.0 else 1.0 if hi > 1.0 else hi
        flo, fhi = _f(bjz, xi, lo), _f(bjz, xi, hi)
        if flo > fhi:
            edges = [-1.0, lo, hi, 1.0]
            values = [values[0], flo, fhi, values[1]]
            middle = 1

    roots = []
    for i in range(len(edges) - 1):
        flo, fhi = values[i], values[i + 1]
        if flo == 0.0:
            m = edges[i]
        elif fhi == 0.0:
            m = edges[i + 1]
        elif flo * fhi < 0.0:
            m = _bisect(bjz, xi, edges[i], edges[i + 1])
        else:
            continue
        if not roots or roots[-1].m != m:
            roots.append(Root(m, i != middle, massieu_per_site(m, c, p)))

    # roots ascend in m, so the last tied index breaks the symmetric tie at
    # xi=0 toward positive m
    best_psi = max([r.psi for r in roots if r.stable])
    selected = len(roots) - 1
    while not (roots[selected].stable and best_psi - roots[selected].psi < PSI_TIE):
        selected -= 1
    return RootSet(tuple(roots), selected)


def zero_field_branch(beta_min: float, beta_max: float, n: int,
                      p: ModelParams = ModelParams()) -> SimpleNamespace:
    """The h=0 solution family over a beta grid, as float64 columns.

    Returns a namespace of the columns beta, m, s and lam. Below the
    threshold beta*Jz = 1 the only root is m=0 with S=0; above it m is
    the equilibrium that solve selects at xi = 0, bit for bit, and
    lambda = k*beta exceeds k/Jz.
    """
    if beta_min <= 0 or beta_max <= 0:
        raise DomainError("beta range must be positive")
    if not beta_min < beta_max:
        raise DomainError(f"need beta_min < beta_max, got [{beta_min}, {beta_max}]")
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    # lambda = k beta must stay finite up to beta_max
    if not math.isfinite(p.k * beta_max):
        raise DomainError(f"k beta_max = {p.k * beta_max} is not a finite double")
    check_cells(n)
    beta = np.linspace(beta_min, beta_max, n)
    m = np.zeros(n)
    with np.errstate(over="ignore"):
        bjz = beta * p.jz
        ordered = (bjz > 1.0) & np.isfinite(bjz)
        b = bjz[ordered]

        def f(x):
            return x - MATH_EACH.tanh(b * x)

        # solve's brackets at xi = 0, where |m-+| < 0.45 needs no clamp. If
        # f(m-) > f(m+) holds in floating point, the equilibrium is the
        # root on the outer piece [m+, 1], whose f(m+) < 0 (f is odd);
        # otherwise the one bracket [-1, 1] bisects to m = 0 at once.
        lo, hi = _turning_points(b, 0.0, MATH_EACH)
        outer = np.where(f(1.0) == 0.0, 1.0, _bisect_each(f, hi, np.ones_like(hi)))
        m[ordered] = np.where(f(lo) > f(hi), outer, 0.0)
        bad = np.flatnonzero(np.isinf(bjz) | (m == 1.0))
        if bad.size:
            # the first row the scalar path rejects raises its error: beta Jz
            # overflowing in solve, or m rounding to 1 in s_of_m
            s_of_m(solve(ConjugateCoords(beta=float(beta[bad[0]]), xi=0.0), p).equilibrium.m, p)
        s = np.where(m == 0.0, 0.0, _s_closed(m, p, MATH_EACH))
    return SimpleNamespace(beta=beta, m=m, s=s, lam=p.k * beta)
