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

import numpy as np

from .model import DomainError, ModelParams

# Strict interior guard for the atanh argument.
EPS_DOM = 1e-12


def _x_of(u: float, m: float, p: ModelParams) -> float:
    # Jz M is 0 at M = 0 and where the product underflows
    if p.jz * m == 0.0:
        raise DomainError(f"Jz M = 0 is outside the entropy domain (M = {m})")
    if u == 0.0:
        raise DomainError("U = 0 is outside the entropy domain")
    x = 2.0 * u / (p.jz * m)
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


def _finite(value, u: float, m: float):
    # extreme (U, M, k, Jz) overflow the products, or meet inf * 0
    if not math.isfinite(value):
        raise DomainError(f"result is not representable at (U, M) = ({u}, {m})")
    return value


def entropy(u: float, m: float, p: ModelParams, a: float = 0.0) -> float:
    """Entropy at state (U, M) on the branch labeled by a."""
    x = _x_of(u, m, p)
    lg = np.log1p(-x * x)
    return _finite(p.k * m * np.arctanh(x) + p.k * p.jz * m * m / (4.0 * u) * lg
                   + a * m * m / u, u, m)


def gradient(u: float, m: float, p: ModelParams, a: float = 0.0):
    """Analytic (dS/dU, dS/dM); equals (k beta, k xi) on the solution curve."""
    x = _x_of(u, m, p)
    lg = np.log1p(-x * x)
    ds_du = -p.k * p.jz * m * m / (4.0 * u * u) * lg - a * m * m / (u * u)
    ds_dm = p.k * np.arctanh(x) + p.k * p.jz * m / (2.0 * u) * lg + 2.0 * a * m / u
    return _finite(float(ds_du), u, m), _finite(float(ds_dm), u, m)


def hj_residual(u: float, m: float, p: ModelParams, a: float = 0.0) -> float:
    """Residual of the Hamilton-Jacobi equation at (U, M); zero to round-off."""
    x = _x_of(u, m, p)
    ds_du, ds_dm = gradient(u, m, p, a)
    return _finite(float(2.0 * u / (p.k * m) * ds_du + ds_dm / p.k - np.arctanh(x)), u, m)


@dataclass(frozen=True)
class GridCell:
    u: float
    m: float
    s: float | None
    valid: bool


def surface_grid(u_range, m_range, nu: int, nm: int,
                 p: ModelParams = ModelParams(), a: float = 0.0):
    """Evaluate S on a rectangular grid.

    Cells outside the domain, or whose S is not representable, are
    masked, not dropped.
    """
    if nu < 2 or nm < 2:
        raise DomainError(f"grid needs at least 2 points per axis, got {nu}x{nm}")
    if not all(math.isfinite(v) for v in (*u_range, *m_range)):
        raise DomainError(f"grid ranges must be finite, got U {u_range}, M {m_range}")
    us = np.linspace(u_range[0], u_range[1], nu)
    ms = np.linspace(m_range[0], m_range[1], nm)
    cells = []
    for u in us.tolist():
        for m in ms.tolist():
            try:
                cells.append(GridCell(u, m, entropy(u, m, p, a), True))
            except DomainError:
                cells.append(GridCell(u, m, None, False))
    return cells
