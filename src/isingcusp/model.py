"""Model parameters, domain errors, and coordinate transforms.

Everything downstream works with the coupling product J*z, the Boltzmann
constant k, and (for the exact oracle) the site count N. The conjugate
coordinates are the inverse temperature beta and the field parameter xi,
related to the magnetic field by xi = -beta h.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """An argument left the domain of a thermodynamic formula."""


class SizeError(ValueError):
    """A requested system size exceeds what a method can handle."""


# Largest table (curve rows or surface cells) evaluated as columns; each
# column of this length is 32 MiB of float64.
MAX_CELLS = 1 << 22


def check_cells(count: int) -> int:
    """count, or a SizeError for a table of more than MAX_CELLS rows, before any allocation."""
    if count > MAX_CELLS:
        raise SizeError(f"{count} cells exceed the table cap of {MAX_CELLS}")
    return count


def check_index(value, name: str, least: int) -> int:
    """value as an int of at least least; DomainError for a bool or a non-integer."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if index < least:
        raise DomainError(f"{name} must be >= {least}, got {index}")
    return index


def _named(value) -> str:
    # str() raises ValueError past 4300 digits: name an int past the doubles by its power of ten
    if isinstance(value, int) and value.bit_length() > 1024:
        return f"{'-' if value < 0 else ''}10**{math.log10(abs(value)):.1f}"
    return str(value)


def finite(x, what: str, **where):
    """x, unless it is not a finite double: then a DomainError naming what and the point where.

    An int too large for a double is not a finite double either.
    """
    try:
        if math.isfinite(x):
            return x
    except OverflowError:
        pass
    at = ", ".join(f"{name} = {_named(value)}" for name, value in where.items())
    raise DomainError(f"{what} is not a finite double" + (f" at {at}" if at else ""))


def _each(f):
    return lambda x: np.fromiter(map(f, x.tolist()), float, x.size)


def logs(x):
    """(log1p(-x^2), atanh(x)) from libm for |x| < 1: math on a float or on each element.

    numpy picks its vector kernels by CPU at run time; they differ from libm by 1-3 ulps on
    many inputs, which the cancellation in xi near the m = 0.02 seam magnifies ~1e4 times.
    Per element math costs ~0.1 us, small beside the ~0.5 us of formatting an output cell.
    """
    if isinstance(x, np.ndarray):
        return _each(math.log1p)(-x * x), _each(math.atanh)(x)
    return math.log1p(-x * x), math.atanh(x)


def log_grid(lo: float, hi: float, n: int):
    """n points from lo to hi, evenly spaced in log10, ends exact; lo, hi > 0.

    np.geomspace's formula, 10**v over a linspace of log10 values, with
    libm's log10 and pow in place of numpy's vector kernels.
    """
    grid = _each(lambda v: 10.0 ** v)(np.linspace(math.log10(lo), math.log10(hi), n))
    grid[0], grid[-1] = lo, hi
    return grid


def check_m(m: float) -> float:
    """m, or a DomainError unless the order parameter satisfies |m| < 1."""
    if not -1.0 < m < 1.0:
        raise DomainError(f"order parameter must satisfy |m| < 1, got {m}")
    return m


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
        finite(self.jz, "Jz", Jz=self.jz)
        finite(self.k, "k", k=self.k)
        if self.jz <= 0:
            raise DomainError(f"coupling Jz must be positive, got {self.jz}")
        # beta = 1/Jz at the critical point must be a finite double
        finite(1.0 / self.jz, "1/Jz", Jz=self.jz)
        if self.k <= 0:
            raise DomainError(f"Boltzmann constant k must be positive, got {self.k}")
        object.__setattr__(self, "n", check_index(self.n, "site count N", 1))


@dataclass(frozen=True)
class ConjugateCoords:
    """Momenta conjugate to (U, M): inverse temperature and field parameter.

    beta = 0 is representable so the infinite-temperature limit of the
    oracle stays reachable; operations that need beta > 0 enforce it.
    """

    beta: float
    xi: float = 0.0

    def __post_init__(self):
        finite(self.beta, "beta", beta=self.beta)
        finite(self.xi, "xi", xi=self.xi)


def field_coords(beta, xi, p: ModelParams):
    """(T, h) = (1/(k beta), -xi/beta) for k beta > 0, on floats or arrays.

    Unchecked: to_field_coords checks a scalar argument and its result.
    """
    # 0.0 - xi is -xi, but +0.0 at xi = 0
    return 1.0 / (p.k * beta), (0.0 - xi) / beta


def to_field_coords(c: ConjugateCoords, p: ModelParams):
    """Map (beta, xi) to (T, h) via T = 1/(k beta) and h = -xi/beta."""
    if c.beta <= 0:
        raise DomainError(f"field coordinates need beta > 0, got {c.beta}")
    # T = 1/(k beta) overflows where k beta underflows to 0
    t, h = field_coords(c.beta, c.xi, p) if p.k * c.beta else (math.inf, 0.0)
    return finite(t, "T", beta=c.beta, k=p.k), finite(h, "h", beta=c.beta, xi=c.xi)
