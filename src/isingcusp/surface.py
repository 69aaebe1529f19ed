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

from .model import DomainError, ModelParams, check_cells

# Strict interior guard for the atanh argument.
EPS_DOM = 1e-12


def _x(u, m, p: ModelParams):
    return 2.0 * u / (p.jz * m)


def _x_of(u: float, m: float, p: ModelParams) -> float:
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


def _unrepresentable(u: float, m: float) -> DomainError:
    # extreme (U, M, k, Jz) overflow the products, or meet inf * 0
    return DomainError(f"result is not representable at (U, M) = ({u}, {m})")


# The formulas below take x = 2U/(Jz M) and work on floats or arrays; the
# scalar entry points check the domain first, the column callers mask it.

def _entropy(u, m, x, p: ModelParams, a):
    lg = np.log1p(-x * x)
    return p.k * m * np.arctanh(x) + p.k * p.jz * m * m / (4.0 * u) * lg + a * m * m / u


def _gradient(u, m, x, p: ModelParams, a):
    lg = np.log1p(-x * x)
    ds_du = -p.k * p.jz * m * m / (4.0 * u * u) * lg - a * m * m / (u * u)
    ds_dm = p.k * np.arctanh(x) + p.k * p.jz * m / (2.0 * u) * lg + 2.0 * a * m / u
    return ds_du, ds_dm


def _hj(u, m, x, ds_du, ds_dm, p: ModelParams):
    return 2.0 * u / (p.k * m) * ds_du + ds_dm / p.k - np.arctanh(x)


def entropy(u: float, m: float, p: ModelParams, a: float = 0.0) -> float:
    """Entropy at state (U, M) on the branch labeled by a."""
    s = _entropy(u, m, _x_of(u, m, p), p, a)
    if not math.isfinite(s):
        raise _unrepresentable(u, m)
    return s


def gradient(u: float, m: float, p: ModelParams, a: float = 0.0):
    """Analytic (dS/dU, dS/dM); equals (k beta, k xi) on the solution curve."""
    x = _x_of(u, m, p)
    try:
        ds_du, ds_dm = _gradient(u, m, x, p, a)
    except ZeroDivisionError:  # U^2 underflows to 0
        raise _unrepresentable(u, m) from None
    ds_du, ds_dm = float(ds_du), float(ds_dm)
    if not (math.isfinite(ds_du) and math.isfinite(ds_dm)):
        raise _unrepresentable(u, m)
    return ds_du, ds_dm


def hj_residual(u: float, m: float, p: ModelParams, a: float = 0.0) -> float:
    """Residual of the Hamilton-Jacobi equation at (U, M); zero to round-off."""
    x = _x_of(u, m, p)
    try:
        ds_du, ds_dm = _gradient(u, m, x, p, a)
        # a non-finite derivative leaves the residual non-finite
        r = float(_hj(u, m, x, float(ds_du), float(ds_dm), p))
    except ZeroDivisionError:  # U^2 or k M underflows to 0
        raise _unrepresentable(u, m) from None
    if not math.isfinite(r):
        raise _unrepresentable(u, m)
    return r


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
        ds_du, ds_dm = _gradient(u, m, x, p, a)
        cols = (_entropy(u, m, x, p, a), ds_du, ds_dm, _hj(u, m, x, ds_du, ds_dm, p))
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
    if nu < 2 or nm < 2:
        raise DomainError(f"grid needs at least 2 points per axis, got {nu}x{nm}")
    if not all(math.isfinite(v) for v in (*u_range, *m_range)):
        raise DomainError(f"grid ranges must be finite, got U {u_range}, M {m_range}")
    check_cells(nu * nm)
    with np.errstate(all="ignore"):
        # a span that overflows a double gives NaN and inf points, which are masked
        u = np.repeat(np.linspace(u_range[0], u_range[1], nu), nm)
        m = np.tile(np.linspace(m_range[0], m_range[1], nm), nu)
        x = _x(u, m, p)
        s = _entropy(u, m, x, p, a)
        valid = (p.jz * m != 0.0) & (u != 0.0) & (np.abs(x) < 1.0 - EPS_DOM) & np.isfinite(s)
    return SurfaceGrid(u=u, m=m, s=np.where(valid, s, np.nan), valid=valid)
