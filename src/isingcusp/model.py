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


# Largest table (curve rows or surface cells) evaluated as columns; each
# column of this length is 32 MiB of float64.
MAX_CELLS = 1 << 22


def check_cells(count: int) -> None:
    """SizeError for a table of more than MAX_CELLS rows, before any allocation."""
    if count > MAX_CELLS:
        raise SizeError(f"{count} cells exceed the table cap of {MAX_CELLS}")


def _check_finite(obj) -> None:
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Coupling product J*z, Boltzmann k, site count N.

    Only the product J*z enters the mean-field formulas. N matters only
    to the finite oracle and to extensive quantities.
    """

    jz: float = 1.0
    k: float = 1.0
    n: int = 12

    def __post_init__(self):
        _check_finite(self)
        # beta = 1/Jz at the critical point must be a finite double
        if self.jz <= 0 or math.isinf(1.0 / self.jz):
            raise DomainError(f"coupling Jz must be positive with a finite 1/Jz, got {self.jz}")
        if self.k <= 0:
            raise DomainError(f"Boltzmann constant k must be positive, got {self.k}")
        if self.n < 1:
            raise DomainError(f"site count N must be >= 1, got {self.n}")


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


def field_coords(beta, xi, p: ModelParams):
    """(T, h) = (1/(k beta), xi/beta) for k beta > 0, on floats or arrays.

    Unchecked: to_field_coords checks a scalar argument and its result.
    """
    return 1.0 / (p.k * beta), xi / beta


def to_field_coords(c: ConjugateCoords, p: ModelParams):
    """Map (beta, xi) to (T, h) via T = 1/(k beta) and h = xi/beta."""
    if c.beta <= 0:
        raise DomainError(f"field coordinates need beta > 0, got {c.beta}")
    kbeta = p.k * c.beta
    if kbeta > 0.0:
        t, h = field_coords(c.beta, c.xi, p)
        if not (math.isinf(t) or math.isinf(h)):
            return t, h
    raise DomainError(f"field coordinates overflow at k beta = {kbeta}, xi = {c.xi}")
