"""Ideal-gas worked example of the Hamilton-Jacobi formalism.

The entropy S = (3/2) r log U + r log V + S0 solves

    U dS/dU - (3V/2) dS/dV = 0

and its gradient alone recovers the caloric and state equations,
U = (3/2) r T and p V = r T. The constant r absorbs the particle count;
no N appears anywhere. A result that is not a finite double, at extreme
U, V or r, is a DomainError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import DomainError, _check_finite


@dataclass(frozen=True)
class GasState:
    u: float
    v: float
    r: float = 1.0
    s0: float = 0.0

    def __post_init__(self):
        _check_finite(self, ("u", "v", "r", "s0"))
        if self.u <= 0:
            raise DomainError(f"internal energy must be positive, got {self.u}")
        if self.v <= 0:
            raise DomainError(f"volume must be positive, got {self.v}")
        if self.r <= 0:
            raise DomainError(f"entropy scale r must be positive, got {self.r}")


def _finite(g: GasState, name: str, x: float) -> float:
    """x, the quantity name at g, unless it left the finite doubles."""
    if not math.isfinite(x):
        raise DomainError(f"{name} is not a finite double at U = {g.u}, V = {g.v}, r = {g.r}")
    return x


def gas_entropy(g: GasState) -> float:
    return _finite(g, "entropy", 1.5 * g.r * math.log(g.u) + g.r * math.log(g.v) + g.s0)


def gas_gradient(g: GasState):
    """Conjugate momenta (p_U, p_V) = (3r/2U, r/V) = (1/T, p/T)."""
    return _finite(g, "p_U", 1.5 * g.r / g.u), _finite(g, "p_V", g.r / g.v)


def gas_hj_residual(g: GasState) -> float:
    """U p_U - (3V/2) p_V, identically zero on the solution."""
    p_u, p_v = gas_gradient(g)
    return _finite(g, "HJ residual", g.u * p_u - 1.5 * g.v * p_v)


def gas_recover_eos(g: GasState):
    """Temperature T = 1/p_U and pressure p = T p_V from the gradient."""
    p_u, p_v = gas_gradient(g)
    # p_U underflows to 0 where T overflows
    t = _finite(g, "temperature", 1.0 / p_u if p_u else math.inf)
    return t, _finite(g, "pressure", p_v * t)
