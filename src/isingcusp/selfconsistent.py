"""Roots of the self-consistent equation m = tanh(beta Jz m - xi).

f(m) = m - tanh(beta Jz m - xi) has f' = 1 - beta Jz sech^2(beta Jz m - xi),
which vanishes only for beta Jz > 1, at m = (xi +- asinh(sqrt(beta Jz - 1)))
/ (beta Jz). Those two points split [-1, 1] into at most three monotone
pieces with at most one root each. A piece whose end values differ in
sign is solved by Newton's method from the end where f f'' > 0, so the
iterates approach the root from one side; f'' = 2 (beta Jz)^2 t (1 - t^2)
with t = tanh(beta Jz m - xi) changes sign only at m = xi / (beta Jz).
Below |beta Jz m - xi| = SEAM, f is evaluated as
(m (1 - beta Jz) + xi) + (theta - tanh theta) with a series for the
last term, which keeps f accurate where m and tanh cancel, so every root
is as accurate as its conditioning allows. Roots on the outer,
increasing pieces are stable fixed points and a root on the middle,
decreasing piece is unstable. The equilibrium is the stable root on the
field's side, the first for xi > 0 and the last otherwise: it maximizes
the Massieu function per site psi, as psi_left - psi_right has the sign
of xi (d psi / d xi = -m along each root, and the two tie at xi = 0),
and it is positive at xi = 0. The zero-field branch is that equilibrium
at xi = 0, taken from solve one beta at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .curve import s_of_m
from .model import ConjugateCoords, DomainError, ModelParams, check_cells, check_index, finite

# Below |theta| = SEAM, theta - tanh(theta) is its series to theta^15, whose
# next term is about 1e-17 of the sum at the seam.
SEAM = 0.1


def _log2cosh(x: float) -> float:
    # log(2 cosh x) = |x| + log1p(exp(-2|x|)), without overflow: the same
    # arithmetic as np.logaddexp(x, -x), which overflows forming 2|x|
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax))


def _massieu(m: float, c: ConjugateCoords, p: ModelParams) -> float:
    # unchecked: solve passes its roots in [-1, 1], and log_partition_closed
    # checks m and its own result
    theta = c.beta * p.jz * m - c.xi
    return -0.5 * c.beta * p.jz * m * m + _log2cosh(theta)


def massieu_per_site(m: float, c: ConjugateCoords, p: ModelParams) -> float:
    """Grand Massieu function over kN at magnetization parameter m.

    Defined for beta >= 0 (beta = 0 is the infinite-temperature limit)
    and |m| <= 1 (solve can return a root at m = +-1); a result that is
    not a finite double is a DomainError.
    """
    if c.beta < 0.0:
        raise DomainError(f"massieu_per_site needs beta >= 0, got {c.beta}")
    if not -1.0 <= m <= 1.0:
        raise DomainError(f"massieu_per_site needs |m| <= 1, got {m}")
    return finite(_massieu(m, c, p), "Massieu function",
                  m=m, beta=c.beta, xi=c.xi, Jz=p.jz, k=p.k)


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


def _defect(theta):
    """theta - tanh(theta) for |theta| < SEAM, on floats or arrays."""
    s = theta * theta
    return theta * s * (1 / 3 - s * (2 / 15 - s * (17 / 315 - s * (62 / 2835 - s * (
        1382 / 155925 - s * (21844 / 6081075 - s * (929569 / 638512875)))))))


def _f(bjz: float, xi: float, m: float) -> float:
    """f(m) = m - tanh(beta Jz m - xi), zero exactly at the roots."""
    theta = bjz * m - xi
    if -SEAM < theta < SEAM:
        return (m * (1.0 - bjz) + xi) + _defect(theta)
    return m - math.tanh(theta)


def _newton(bjz: float, xi: float, m: float) -> float:
    """The root of f on a monotone piece, from its end m where f f'' > 0.

    Stops at f = 0 or once |step| stops shrinking: a strictly shrinking
    sequence of doubles ends, and near the root the rounded f' can
    overshoot, so the first sign change of f is not yet the root.
    """
    # f and f' are _f written out: a Python call per step was most of a
    # solve's time. Below the seam f' = (1 - bjz) + bjz t^2, whose 1 - bjz
    # is exact near bjz = 1; above it 1 - bjz (1 - t^2), which stays 1 where
    # t rounds to 1 at huge bjz, where the first form cancels to 0.
    tanh, omb, last = math.tanh, 1.0 - bjz, math.inf
    try:
        while True:
            theta = bjz * m - xi
            if -0.1 < theta < 0.1:  # SEAM
                s = theta * theta
                d = theta * s * (1 / 3 - s * (2 / 15 - s * (17 / 315 - s * (62 / 2835 - s * (
                    1382 / 155925 - s * (21844 / 6081075 - s * (929569 / 638512875)))))))
                f = (m * omb + xi) + d
                t = theta - d
                fp = omb + bjz * t * t
            else:
                t = tanh(theta)
                f = m - t
                fp = 1.0 - bjz * (1.0 - t * t)
            if f == 0.0:
                return m
            step = f / fp
            size = abs(step)
            if not size < last:
                return m
            last = size
            m -= step
    except ZeroDivisionError:  # f' rounded to 0: m is as close as f' can tell
        return m


def _turning_points(bjz: float, xi: float):
    """m-+ = (xi -+ asinh(sqrt(beta Jz - 1))) / (beta Jz), where f' = 0 (beta Jz > 1).

    asinh(sqrt(b - 1)) = acosh(sqrt(b)), but b - 1 is exact near b = 1,
    where sqrt(b) rounds to 1.
    """
    a = math.asinh(math.sqrt(bjz - 1.0))
    return (xi - a) / bjz, (xi + a) / bjz


def solve(c: ConjugateCoords, p: ModelParams = ModelParams()) -> RootSet:
    """Find every root of m - tanh(beta Jz m - xi) and pick the equilibrium."""
    beta, xi = c.beta, c.xi
    if beta <= 0:
        raise DomainError(f"solver needs beta > 0, got {beta}")
    bjz = beta * p.jz
    # beta Jz m - xi spans +-(beta Jz + |xi|) over m in [-1, 1]; no point
    # named, as each keyword costs about 2% of a solve
    finite(bjz + abs(xi), "beta Jz + |xi|")

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
        lo, hi = edges[i], edges[i + 1]
        flo, fhi = values[i], values[i + 1]
        if flo == 0.0:
            m = lo
        elif fhi == 0.0:
            m = hi
        elif flo * fhi < 0.0:
            # f'' has the sign of m - m_i, m_i = xi / (beta Jz): the outer
            # pieces start at -1 (concave, f < 0) and 1 (convex, f > 0), the
            # middle one at m_i, and a lone increasing piece at the end on
            # the side of m_i where the root lies. beta Jz = 0 by underflow
            # leaves f linear, where any start serves.
            if middle >= 0 and i != middle:
                m = lo if i == 0 else hi
            else:
                m = xi / bjz if bjz else 0.0
                m = lo if m < lo else hi if m > hi else m
                if middle < 0 and (fi := _f(bjz, xi, m)) != 0.0:
                    m = 1.0 if fi < 0.0 else -1.0
            m = _newton(bjz, xi, m)
            # the root lies in its piece; rounding must not reorder the roots
            m = lo if m < lo else hi if m > hi else m
        else:
            continue
        if not roots or roots[-1].m != m:
            roots.append(Root(m, i != middle, _massieu(m, c, p)))

    selected, step = (0, 1) if xi > 0.0 else (len(roots) - 1, -1)
    while not roots[selected].stable:
        selected += step
    return RootSet(tuple(roots), selected)


def zero_field_branch(beta_min: float, beta_max: float, n: int,
                      p: ModelParams = ModelParams()) -> SimpleNamespace:
    """The h=0 solution family over a beta grid, as float64 columns.

    Returns a namespace of the columns beta, m, s and lam: m is solve's
    equilibrium at xi = 0 for each beta and s is s_of_m(m). Below the
    threshold beta*Jz = 1 the only root is m=0 with S=0; above it
    lambda = k*beta exceeds k/Jz.
    """
    if beta_min <= 0 or beta_max <= 0:
        raise DomainError("beta range must be positive")
    if not beta_min < beta_max:
        raise DomainError(f"need beta_min < beta_max, got [{beta_min}, {beta_max}]")
    n = check_cells(check_index(n, "sample count", 2))
    # lambda = k beta must stay finite up to beta_max; an int beta_max too
    # large for a double would escape the product as OverflowError
    finite(beta_max, "beta_max")
    finite(p.k * beta_max, "k beta_max", beta_max=beta_max, k=p.k)
    beta = np.linspace(beta_min, beta_max, n)
    m, s = np.empty(n), np.empty(n)
    # row by row, so the first row that solve or s_of_m rejects raises its
    # error: beta Jz overflowing, or m rounding to 1
    for i, b in enumerate(beta.tolist()):
        x = solve(ConjugateCoords(beta=b, xi=0.0), p).equilibrium.m
        m[i], s[i] = x, s_of_m(x, p)
    return SimpleNamespace(beta=beta, m=m, s=s, lam=p.k * beta)
