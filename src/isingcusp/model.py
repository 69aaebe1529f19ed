"""Model parameters, domain errors, and coordinate transforms.

Everything downstream works with the coupling product J*z, the Boltzmann
constant k, and (for the exact oracle) the site count N. The conjugate
coordinates are the inverse temperature beta and the field parameter xi,
related to the magnetic field by xi = beta*h.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields


class DomainError(ValueError):
    """An argument left the domain of a thermodynamic formula."""


class SizeError(ValueError):
    """A requested system size exceeds what a method can handle."""


def _check_finite(obj) -> None:
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Coupling J, coordination number z, Boltzmann k, site count N.

    Only the product J*z enters the mean-field formulas; it is exposed
    as the ``jz`` property. N matters only to the finite oracle and to
    extensive quantities.
    """

    j: float = 1.0
    z: int = 1
    k: float = 1.0
    n: int = 12

    def __post_init__(self):
        _check_finite(self)
        if self.j <= 0:
            raise DomainError(f"coupling J must be positive, got {self.j}")
        if self.z < 1:
            raise DomainError(f"coordination number z must be >= 1, got {self.z}")
        if self.k <= 0:
            raise DomainError(f"Boltzmann constant k must be positive, got {self.k}")
        if self.n < 1:
            raise DomainError(f"site count N must be >= 1, got {self.n}")

    @property
    def jz(self) -> float:
        return self.j * self.z


@dataclass(frozen=True)
class ConjugateCoords:
    """Momenta conjugate to (U, M): inverse temperature and field parameter.

    beta = 0 is representable so the infinite-temperature limit of the
    oracle stays reachable; operations that need beta > 0 enforce it.
    """

    beta: float
    xi: float = 0.0

    def __post_init__(self):
        _check_finite(self)


def to_field_coords(c: ConjugateCoords, p: ModelParams):
    """Map (beta, xi) to (T, h) via T = 1/(k beta) and h = xi/beta."""
    if c.beta <= 0:
        raise DomainError(f"field coordinates need beta > 0, got {c.beta}")
    return 1.0 / (p.k * c.beta), c.xi / c.beta


def from_field_coords(t: float, h: float, p: ModelParams) -> ConjugateCoords:
    """Inverse of to_field_coords."""
    if t <= 0:
        raise DomainError(f"temperature must be positive, got {t}")
    beta = 1.0 / (p.k * t)
    return ConjugateCoords(beta=beta, xi=beta * h)
