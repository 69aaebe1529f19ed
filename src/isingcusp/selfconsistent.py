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

import numpy as np

from .curve import s_of_m
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


@dataclass(frozen=True)
class Root:
    m: float
    stable: bool
    psi: float


@dataclass(frozen=True)
class RootSet:
    """Roots sorted ascending in m; selected indexes the equilibrium root."""

    roots: tuple[Root, ...]
    selected: int

    @property
    def equilibrium(self) -> Root:
        return self.roots[self.selected]


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def solve(c: ConjugateCoords, p: ModelParams = ModelParams()) -> RootSet:
    """Find every root of m - tanh(beta Jz m - xi) and pick the equilibrium."""
    if c.beta <= 0:
        raise DomainError(f"solver needs beta > 0, got {c.beta}")
    bjz = c.beta * p.jz
    # beta Jz m - xi spans +-(beta Jz + |xi|) over m in [-1, 1]
    if not math.isfinite(bjz + abs(c.xi)):
        raise DomainError(f"beta Jz m - xi overflows at beta = {c.beta}, "
                          f"xi = {c.xi}, Jz = {p.jz}")

    def f(m: float) -> float:
        return m - math.tanh(bjz * m - c.xi)

    # f(-1) <= 0 <= f(1), so whenever the middle piece decreases one of
    # the outer pieces changes sign and a stable root exists
    edges = [-1.0, 1.0]
    if bjz > 1.0:
        a = math.acosh(math.sqrt(bjz))
        lo, hi = (min(1.0, max(-1.0, (c.xi + s) / bjz)) for s in (-a, a))
        if f(lo) > f(hi):
            edges = [-1.0, lo, hi, 1.0]
    middle = 1 if len(edges) == 4 else None
    pts = [(e, f(e)) for e in edges]

    roots = []
    for i, ((lo, flo), (hi, fhi)) in enumerate(zip(pts, pts[1:])):
        if flo == 0.0:
            m = lo
        elif fhi == 0.0:
            m = hi
        elif flo * fhi < 0.0:
            m = _bisect(f, lo, hi)
        else:
            continue
        if not roots or roots[-1].m != m:
            roots.append(Root(m=m, stable=i != middle, psi=massieu_per_site(m, c, p)))

    best_psi = max(r.psi for r in roots if r.stable)
    # roots ascend in m, so the last tied index breaks the symmetric tie at
    # xi=0 toward positive m
    selected = max(i for i, r in enumerate(roots) if r.stable and best_psi - r.psi < PSI_TIE)
    return RootSet(roots=tuple(roots), selected=selected)


@dataclass(frozen=True)
class ZeroFieldPoint:
    beta: float
    m: float
    s: float
    lam: float


def zero_field_branch(beta_min: float, beta_max: float, n: int,
                      p: ModelParams = ModelParams()):
    """The h=0 solution family over a beta grid.

    Below the threshold beta*Jz = 1 the only root is m=0 with S=0; above
    it the positive stable root is reported together with lambda = k*beta,
    which then exceeds k/Jz.
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
    points = []
    for beta in np.linspace(beta_min, beta_max, n):
        beta = float(beta)
        m = 0.0
        if beta * p.jz > 1.0:
            m = solve(ConjugateCoords(beta=beta, xi=0.0), p).equilibrium.m
        points.append(ZeroFieldPoint(beta=beta, m=m, s=s_of_m(m, p), lam=p.k * beta))
    return points
