"""Entropy S(U, M) on thermodynamic state space and its PDE certificate.

With x = 2U/(Jz M) the entropy is

    S = k M atanh(x) + (k Jz M^2 / 4U) log(1 - x^2) + a M^2 / U

for an arbitrary constant a (a=0 is the physical branch). Its analytic
gradient gives the conjugate momenta (k beta, k xi), and

    (2U/(kM)) dS/dU + (1/k) dS/dM - atanh(x)

vanishes identically for every a.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .model import MATH_EACH, DomainError, ModelParams, check_cells, check_index, finite

# Strict interior guard for the atanh argument.
EPS_DOM = 1e-12


def _x(u, m, p: ModelParams):
    return 2.0 * u / (p.jz * m)


def _x_of(u: float, m: float, p: ModelParams) -> float:
    # an int too large for a double would escape the arithmetic as OverflowError
    finite(u, "U")
    finite(m, "M")
    # Jz M is 0 at M = 0 and where the product underflows
    if p.jz * m == 0.0:
        raise DomainError(f"Jz M = 0 is outside the entropy domain (M = {m})")
    if u == 0.0:
        raise DomainError("U = 0 is outside the entropy domain")
    x = _x(u, m, p)
    if not abs(x) < 1.0 - EPS_DOM:
        raise DomainError(f"atanh argument 2U/(JzM) = {x} lies outside (-1, 1)")
    return x


def in_domain(u: float, m: float, p: ModelParams) -> bool:
    """True when (U, M) is a valid argument of the entropy."""
    try:
        _x_of(u, m, p)
    except DomainError:
        return False
    return True


# The formulas below take lg = log1p(-x^2) and at = atanh(x) of
# x = 2U/(Jz M) and work on floats or arrays. _logs takes them from math on
# a float and from MATH_EACH on a column, so a column equals the scalar
# values bit for bit; the scalar entry points check the domain, and the
# column callers evaluate only states inside it, where math.atanh is defined.

def _logs(x, lib=math):
    return lib.log1p(-x * x), lib.atanh(x)


def _entropy(u, m, lg, at, p: ModelParams, a):
    return p.k * m * at + p.k * p.jz * m * m / (4.0 * u) * lg + a * m * m / u


def _gradient(u, m, lg, at, p: ModelParams, a):
    ds_du = -p.k * p.jz * m * m / (4.0 * u * u) * lg - a * m * m / (u * u)
    ds_dm = p.k * at + p.k * p.jz * m / (2.0 * u) * lg + 2.0 * a * m / u
    return ds_du, ds_dm


def _hj(u, m, at, ds_du, ds_dm, p: ModelParams):
    return 2.0 * u / (p.k * m) * ds_du + ds_dm / p.k - at


def entropy(u: float, m: float, p: ModelParams, a: float = 0.0) -> float:
    """Entropy at state (U, M) on the branch labeled by a."""
    lg, at = _logs(_x_of(u, m, p))
    # extreme (U, M, k, Jz) overflow the products, or meet inf * 0
    return finite(_entropy(u, m, lg, at, p, a), "entropy", U=u, M=m)


def gradient(u: float, m: float, p: ModelParams, a: float = 0.0):
    """Analytic (dS/dU, dS/dM); equals (k beta, k xi) on the solution curve."""
    lg, at = _logs(_x_of(u, m, p))
    try:
        ds_du, ds_dm = _gradient(u, m, lg, at, p, a)
    except ZeroDivisionError:  # U^2 underflows to 0
        ds_du = ds_dm = math.inf
    return finite(ds_du, "dS/dU", U=u, M=m), finite(ds_dm, "dS/dM", U=u, M=m)


def hj_residual(u: float, m: float, p: ModelParams, a: float = 0.0) -> float:
    """Residual of the Hamilton-Jacobi equation at (U, M); zero to round-off."""
    lg, at = _logs(_x_of(u, m, p))
    try:
        # a non-finite derivative leaves the residual non-finite
        r = _hj(u, m, at, *_gradient(u, m, lg, at, p, a), p)
    except ZeroDivisionError:  # U^2 or k M underflows to 0
        r = math.inf
    return finite(r, "HJ residual", U=u, M=m)


def state_columns(u, m, p: ModelParams, a=0.0):
    """S, dS/dU, dS/dM and the HJ residual over arrays of states (U, M).

    a may be a float or an array. Like the scalar entry points it raises
    DomainError unless every state lies in the domain and every value is
    finite.
    """
    with np.errstate(all="ignore"):
        x = _x(u, m, p)
        if not (np.abs(x) < 1.0 - EPS_DOM).all():
            raise DomainError("a state lies outside the entropy domain |2U/(JzM)| < 1")
        lg, at = _logs(x, MATH_EACH)
        ds_du, ds_dm = _gradient(u, m, lg, at, p, a)
        cols = (_entropy(u, m, lg, at, p, a), ds_du, ds_dm, _hj(u, m, at, ds_du, ds_dm, p))
    if not all(np.isfinite(c).all() for c in cols):
        raise DomainError("a state's entropy or gradient is not representable")
    return cols


@dataclass(frozen=True)
class GridCell:
    u: float
    m: float
    s: float | None
    valid: bool


class SurfaceGrid(SimpleNamespace):
    """S over a (U, M) grid as flat float64 columns u, m, s and bool valid,
    U-major; s is NaN where masked.

    Indexing or iterating gives GridCell rows, with s None where masked.
    """

    def __len__(self) -> int:
        return len(self.u)

    @staticmethod
    def _cell(u, m, s, valid) -> GridCell:
        return GridCell(u, m, s if valid else None, valid)

    def __getitem__(self, i: int) -> GridCell:
        return self._cell(float(self.u[i]), float(self.m[i]), float(self.s[i]), bool(self.valid[i]))

    def __iter__(self):
        return map(self._cell, self.u.tolist(), self.m.tolist(), self.s.tolist(),
                   self.valid.tolist())


def surface_grid(u_range, m_range, nu: int, nm: int,
                 p: ModelParams = ModelParams(), a: float = 0.0) -> SurfaceGrid:
    """Evaluate S on a rectangular grid.

    Cells outside the domain, or whose S is not representable, are
    masked, not dropped.
    """
    nu, nm = check_index(nu, "U grid points", 2), check_index(nm, "M grid points", 2)
    # a finite span needs finite ends and keeps every grid point finite
    for name, (lo, hi) in (("U", u_range), ("M", m_range)):
        finite(hi - lo, f"{name} span", U=u_range, M=m_range)
    check_cells(nu * nm)
    with np.errstate(all="ignore"):
        u = np.repeat(np.linspace(u_range[0], u_range[1], nu), nm)
        m = np.tile(np.linspace(m_range[0], m_range[1], nm), nu)
        x = _x(u, m, p)
        inside = (p.jz * m != 0.0) & (u != 0.0) & (np.abs(x) < 1.0 - EPS_DOM)
        s = np.full(u.size, np.nan)
        s[inside] = _entropy(u[inside], m[inside], *_logs(x[inside], MATH_EACH), p, a)
    valid = np.isfinite(s)
    s[~valid] = np.nan
    return SurfaceGrid(u=u, m=m, s=s, valid=valid)
