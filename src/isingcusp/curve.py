"""Parametric solution curve of the mean-field Ising model.

The order parameter m parametrizes the curve

    beta(m) = -log(1 - m^2) / (Jz m^2)
    xi(m)   = -atanh(m) - log(1 - m^2) / m
    u(m)    = -Jz m^2 / 2
    s(m)    = -k m atanh(m) - (k/2) log(1 - m^2)

which satisfies beta*Jz*m - xi = atanh(m) identically. The closed forms
lose digits to cancellation as m -> 0 (log(1-m^2) ~ -m^2), so below
M_SWITCH both beta and xi are evaluated by their power series.

Each series and closed form is written once, on floats or float64
arrays. The scalar functions check their argument and pick a branch;
sample_curve evaluates whole columns and picks with np.where at the
seams. The closed forms take the module that supplies log1p and atanh:
math for a scalar, and model.MATH_EACH, math applied to each element, for
a column, so a column is bitwise equal to the scalar values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .model import (MATH_EACH, ConjugateCoords, DomainError, ModelParams, check_cells, check_index,
                    check_m, field_coords, finite, log_grid, to_field_coords)

# Series/closed-form seam. At 0.02 the two branches of xi agree to ~1e-13
# relative; at 1e-3 the closed form is already off by ~4e-10.
M_SWITCH = 0.02

# Grid values this close to zero are treated as the exact m=0 limit.
M_ZERO_SNAP = 1e-12


def _bjz_excess(y):
    # beta Jz - 1 = y/2 + y^2/3 + y^3/4 + y^4/5 with y = m^2
    return y * (0.5 + y * (1.0 / 3.0 + y * (0.25 + y * 0.2)))


def _beta_series(m, p: ModelParams):
    return (1.0 + _bjz_excess(m * m)) / p.jz


def _beta_closed(m, p: ModelParams, lib=math):
    return -lib.log1p(-m * m) / (p.jz * m * m)


def beta_of_m(m: float, p: ModelParams) -> float:
    """Inverse temperature along the curve; even in m, minimum 1/Jz at m=0."""
    check_m(m)
    if abs(m) < M_SWITCH:
        return finite(_beta_series(m, p), "beta", m=m)
    return finite(_beta_closed(m, p), "beta", m=m)


def _xi_series(m):
    # Coefficient of m^(2j+1) is j/((j+1)(2j+1)), from subtracting the
    # atanh series from the series of -log(1-m^2)/m.
    y = m * m
    return m * y * (1.0 / 6.0 + y * (2.0 / 15.0 + y * (3.0 / 28.0 + y * (4.0 / 45.0 + y * (5.0 / 66.0)))))


def _xi_closed(m, lib=math):
    return -lib.atanh(m) - lib.log1p(-m * m) / m


def xi_of_m(m: float, p: ModelParams) -> float:
    """Field parameter along the curve; odd in m, same sign as m."""
    check_m(m)
    if abs(m) < M_SWITCH:
        return _xi_series(m)
    return _xi_closed(m)


def _beta_xi(m, p: ModelParams):
    """beta and xi over a float64 array of |m| < 1; run under np.errstate."""
    small = np.abs(m) < M_SWITCH
    return (np.where(small, _beta_series(m, p), _beta_closed(m, p, MATH_EACH)),
            np.where(small, _xi_series(m), _xi_closed(m, MATH_EACH)))


def _u(m, p: ModelParams):
    return -0.5 * p.jz * m * m


def u_of_m(m: float, p: ModelParams) -> float:
    """Energy per site, -Jz m^2 / 2."""
    check_m(m)
    return _u(m, p)


def _s_closed(m, p: ModelParams, lib=math):
    return -p.k * (m * lib.atanh(m) + 0.5 * lib.log1p(-m * m))


def s_of_m(m: float, p: ModelParams) -> float:
    """Entropy per site; nonpositive, zero only at m=0.

    This is the curve normalization without the k log 2 constant; the
    finite oracle owns the offset reconciliation.
    """
    check_m(m)
    if m == 0.0:
        return 0.0
    return _s_closed(m, p)


@dataclass(frozen=True)
class CurveSample:
    """One point of the solution curve with all derived quantities.

    chi is None at m=0 where the susceptibility diverges; c takes its
    finite m->0 limit k there.
    """

    m: float
    beta: float
    xi: float
    t: float
    h: float
    u: float
    s: float
    chi: float | None
    c: float


_FIELDS = tuple(f.name for f in fields(CurveSample))


class CurveTable(SimpleNamespace):
    """The sampled curve as float64 columns named like CurveSample's fields.

    chi is NaN on the m = 0 row. Indexing or iterating gives CurveSample
    rows, with chi None there. A plain namespace, not a dataclass, keeps
    `import isingcusp` about a millisecond shorter.
    """

    def __len__(self) -> int:
        return len(self.m)

    @staticmethod
    def _sample(m, beta, xi, t, h, u, s, chi, c) -> CurveSample:
        return CurveSample(m, beta, xi, t, h, u, s, None if math.isnan(chi) else chi, c)

    def __getitem__(self, i: int) -> CurveSample:
        return self._sample(*(float(getattr(self, name)[i]) for name in _FIELDS))

    def __iter__(self):
        return map(self._sample, *(getattr(self, name).tolist() for name in _FIELDS))


def curve_point(m: float, p: ModelParams) -> CurveSample:
    """Evaluate every CurveSample field at one m."""
    # local import, criticality also imports this module
    from .criticality import _chi, _denominator, _heat

    check_m(m)
    if abs(m) < M_ZERO_SNAP:
        beta = 1.0 / p.jz
        t, h = to_field_coords(ConjugateCoords(beta=beta, xi=0.0), p)
        return CurveSample(m=0.0, beta=beta, xi=0.0, t=t, h=h,
                           u=0.0, s=0.0, chi=None, c=p.k)
    beta = beta_of_m(m, p)
    xi = xi_of_m(m, p)
    t, h = to_field_coords(ConjugateCoords(beta=beta, xi=xi), p)
    # susceptibility and specific_heat at this m, sharing beta and D/y^2
    d = _denominator(m)
    return CurveSample(m=m, beta=beta, xi=xi, t=t, h=h, u=u_of_m(m, p), s=s_of_m(m, p),
                       chi=finite(_chi(beta, m, d), "susceptibility", m=m),
                       c=finite(_heat(beta * p.jz, m, d, p), "specific heat", m=m))


def sample_curve(m_min: float, m_max: float, n_samples: int,
                 spacing: str = "linear", p: ModelParams = ModelParams()) -> CurveTable:
    """Sample the curve on [m_min, m_max]; spacing is 'linear' or 'log'.

    Rows are the curve_point values at each grid m, computed as columns;
    a grid m within M_ZERO_SNAP of 0 gives the exact m = 0 row.
    """
    from .criticality import _response  # local import, as in curve_point

    if not (-1.0 < m_min < m_max < 1.0):
        raise DomainError(f"need -1 < m_min < m_max < 1, got [{m_min}, {m_max}]")
    n_samples = check_cells(check_index(n_samples, "sample count", 2))
    if spacing == "linear":
        grid = np.linspace(m_min, m_max, n_samples)
    elif spacing == "log":
        if m_min <= 0:
            raise DomainError("log spacing requires m_min > 0")
        grid = log_grid(m_min, m_max, n_samples)
    else:
        raise DomainError(f"unknown spacing {spacing!r}")
    with np.errstate(all="ignore"):
        zero = np.abs(grid) < M_ZERO_SNAP
        m = np.where(zero, 0.0, grid)
        beta, xi = _beta_xi(m, p)
        t, h = field_coords(beta, xi, p)
        chi, c = _response(m, beta, p)
        # the m = 0 row carries curve_point's limits: chi NaN, C = k, u = s = +0.0
        chi[zero], c[zero] = np.nan, p.k
        table = CurveTable(m=m, beta=beta, xi=xi, t=t, h=h, u=np.where(zero, 0.0, _u(m, p)),
                           s=np.where(zero, 0.0, _s_closed(m, p, MATH_EACH)), chi=chi, c=c)
        for name in _FIELDS:
            masked = zero if name == "chi" else False
            if not (np.isfinite(getattr(table, name)) | masked).all():
                raise DomainError(f"curve {name} is not representable on [{m_min}, {m_max}] "
                                  f"at Jz = {p.jz}, k = {p.k}")
    return table
