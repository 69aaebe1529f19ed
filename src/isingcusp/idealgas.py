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

from .model import DomainError, finite


@dataclass(frozen=True)
class GasState:
    u: float
    v: float
    r: float = 1.0
    s0: float = 0.0

    def __post_init__(self):
        finite(self.u, "U", U=self.u)
        finite(self.v, "V", V=self.v)
        finite(self.r, "r", r=self.r)
        finite(self.s0, "s0", s0=self.s0)
        if self.u <= 0:
            raise DomainError(f"internal energy must be positive, got {self.u}")
        if self.v <= 0:
            raise DomainError(f"volume must be positive, got {self.v}")
        if self.r <= 0:
            raise DomainError(f"entropy scale r must be positive, got {self.r}")


def gas_entropy(g: GasState) -> float:
    return finite(1.5 * g.r * math.log(g.u) + g.r * math.log(g.v) + g.s0, "entropy",
                  U=g.u, V=g.v, r=g.r)


def gas_gradient(g: GasState):
    """Conjugate momenta (p_U, p_V) = (3r/2U, r/V) = (1/T, p/T)."""
    return (finite(1.5 * g.r / g.u, "p_U", U=g.u, V=g.v, r=g.r),
            finite(g.r / g.v, "p_V", U=g.u, V=g.v, r=g.r))


def gas_hj_residual(g: GasState) -> float:
    """U p_U - (3V/2) p_V, identically zero on the solution."""
    p_u, p_v = gas_gradient(g)
    return finite(g.u * p_u - 1.5 * g.v * p_v, "HJ residual", U=g.u, V=g.v, r=g.r)


def gas_recover_eos(g: GasState):
    """Temperature T = 1/p_U and pressure p = T p_V from the gradient."""
    p_u, p_v = gas_gradient(g)
    # p_U underflows to 0 where T overflows
    t = finite(1.0 / p_u if p_u else math.inf, "temperature", U=g.u, V=g.v, r=g.r)
    return t, finite(p_v * t, "pressure", U=g.u, V=g.v, r=g.r)
