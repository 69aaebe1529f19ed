"""The three workloads, built from a seed.

A workload is a fixed list of operations; one pass runs the list once.
The list and its sizes (rows, grid points, calls) are the same for every
seed; the seed draws the ranges, couplings and states. How often inner
functions run depends on those inputs (surface.entropy once per valid
cell, one solve per zero-field beta above 1, the curve's series or closed
form by side of the seam), so per-pass call counts repeat exactly for
one seed and code, and differ a little between seeds. CLI operations are
argv lists for one `python -m isingcusp` child each; library operations
are calls into the package made in the benchmark's own process.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import checks


@dataclass
class Op:
    kind: str
    check: Callable          # (result) -> reason it is wrong, or None
    argv: list | None = None  # CLI operation
    call: Callable | None = None  # library operation
    records: int = 1          # rows or records the operation returns
    # The input lies where the package is known to raise this exception;
    # the failure still counts, but is reported as that defect.
    known_raise: type | None = None


@dataclass
class Workload:
    ops: list
    headline: str  # op kind behind op_p50_s and op_tail_s
    heavy: str     # op kind behind heavy_p50_s


def _f(x: float) -> str:
    return repr(float(x))


def tables(seed: int, smoke: bool = False, pkg=None) -> Workload:
    rng = random.Random(f"tables/{seed}")
    n_lin, n_log, n_side, n_beta = (201, 101, 21, 50) if smoke else (20001, 10001, 301, 2000)
    ops = []

    # A symmetric grid with an odd count puts its middle point within
    # round-off of 0, where the CLI emits the exact m = 0 row. The package's
    # specific heat divides by zero for 1e-12 < |m| < ~1e-5, so a grid point
    # there stops the emission halfway; library probes that defect instead.
    jz, k = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    hi = rng.uniform(0.6, 0.95)
    lo = -hi
    ops.append(Op("curve-linear", records=n_lin,
                  argv=["curve", "--jz", _f(jz), "--k", _f(k), "--m-min", _f(lo), "--m-max", _f(hi),
                        "--samples", str(n_lin)],
                  check=partial(checks.check_curve, fmt="csv", rows=n_lin, jz=jz, k=k)))

    # log spacing from below to above the |m| = 0.02 series seam
    jz, k = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    lo, hi = rng.uniform(0.002, 0.01), rng.uniform(0.3, 0.9)
    ops.append(Op("curve-log", records=n_log,
                  argv=["curve", "--jz", _f(jz), "--k", _f(k), "--m-min", _f(lo), "--m-max", _f(hi),
                        "--samples", str(n_log), "--spacing", "log", "--format", "json"],
                  check=partial(checks.check_curve, fmt="json", rows=n_log, jz=jz, k=k)))

    # |U| < Jz |M| / 2 is the domain; u_max = c Jz m_max / 2 with c near 1
    # keeps the valid share of the grid near 1/(2c) on every seed.
    jz, m_max = rng.uniform(0.5, 2.0), rng.uniform(1.0, 2.0)
    u_max = rng.uniform(1.0, 1.1) * jz * m_max / 2.0
    u = (-u_max * rng.uniform(0.95, 1.05), u_max)
    m = (-m_max * rng.uniform(0.95, 1.05), m_max)
    ops.append(Op("surface", records=n_side * n_side,
                  argv=["surface", "--jz", _f(jz), "--u-min", _f(u[0]), "--u-max", _f(u[1]),
                        "--m-min", _f(m[0]), "--m-max", _f(m[1]), "--samples", str(n_side)],
                  check=partial(checks.check_surface, rows=n_side * n_side, jz=jz, k=1.0)))

    # beta grid spanning beta Jz = 1, about two thirds of it above, where
    # each point costs a solve
    jz = rng.uniform(0.5, 2.0)
    b_lo, b_hi = rng.uniform(0.65, 0.75) / jz, rng.uniform(1.55, 1.65) / jz
    ops.append(Op("zero-field", records=n_beta,
                  argv=["zero-field", "--jz", _f(jz), "--beta-min", _f(b_lo), "--beta-max", _f(b_hi),
                        "--samples", str(n_beta)],
                  check=partial(checks.check_zero_field, rows=n_beta, jz=jz)))
    return Workload(ops, headline="curve-linear", heavy="surface")


def verify(seed: int, smoke: bool = False, pkg=None) -> Workload:
    # verify --n 21 and above exits 2 because check_oracle always
    # enumerates, so N = 20 is the largest size this workload can run.
    s = random.Random(f"verify/{seed}").randrange(2 ** 31)
    sizes = (8, 6) if smoke else (20, 12)
    ops = [Op(f"verify-{n}", records=9, argv=["verify", "--n", str(n), "--seed", str(s)],
              check=checks.check_verify) for n in sizes]
    # verify-12 is mostly interpreter start and import, whose run-to-run
    # spread on a shared machine exceeded the bound (0.31 in one ten-seed
    # set); setup_s already reports import time, so both op metrics follow
    # verify-20.
    return Workload(ops, headline=f"verify-{sizes[0]}", heavy=f"verify-{sizes[0]}")


def library(seed: int, smoke: bool = False, pkg=None) -> Workload:
    """Scalar API calls; pkg is the imported isingcusp package.

    Calls go through the module attributes at call time, so a traced run
    sees them.
    """
    rng = random.Random(f"library/{seed}")
    n_solve, n_state, n_m, n_eval, big_n = (20, 10, 10, 1, 10 ** 4) if smoke else (291, 100, 100, 2, 10 ** 6)
    sc, surface, curve, oracle = pkg.selfconsistent, pkg.surface, pkg.curve, pkg.oracle
    p = pkg.ModelParams()
    jz, k = p.jz, p.k
    ops = []

    def solve_op(beta, xi):
        c = pkg.ConjugateCoords(beta=beta, xi=xi)
        return Op("solve", call=lambda: sc.solve(c, p),
                  check=partial(checks.check_solve, beta=beta, xi=xi, jz=jz))

    ops += [solve_op(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0)) for _ in range(n_solve)]
    # just above the critical point the outer roots are +-sqrt(3 eps)
    ops += [solve_op((1.0 + 10.0 ** -e) / jz, 0.0) for e in range(2, 11)]

    for _ in range(n_state):
        x = rng.uniform(0.05, 0.95) * rng.choice((-1.0, 1.0))
        m = rng.uniform(0.1, 2.0) * rng.choice((-1.0, 1.0))
        u = 0.5 * x * jz * m
        ops += [
            Op("entropy", call=partial(lambda u, m: surface.entropy(u, m, p), u, m),
               check=partial(checks.check_entropy, u=u, m=m, jz=jz, k=k)),
            Op("gradient", call=partial(lambda u, m: surface.gradient(u, m, p), u, m),
               check=partial(checks.check_gradient, u=u, m=m, jz=jz, k=k)),
            Op("hj_residual", call=partial(lambda u, m: surface.hj_residual(u, m, p), u, m),
               check=partial(checks.check_hj_residual, u=u, m=m, jz=jz)),
        ]

    def curve_ops(m, known_raise=None):
        return [
            Op("beta_of_m", call=partial(lambda m: curve.beta_of_m(m, p), m),
               check=partial(checks.check_beta, m=m, jz=jz)),
            Op("xi_of_m", call=partial(lambda m: curve.xi_of_m(m, p), m),
               check=partial(checks.check_xi, m=m, jz=jz)),
            Op("curve_point", call=partial(lambda m: curve.curve_point(m, p), m),
               check=partial(checks.check_curve_point, m=m, jz=jz, k=k), known_raise=known_raise),
        ]

    for i in range(n_m):
        # alternate sides of the |m| = 0.02 seam, both signs
        mag = rng.uniform(1e-3, 0.02) if i % 2 else rng.uniform(0.02, 0.95)
        ops += curve_ops(mag * rng.choice((-1.0, 1.0)))
    # the specific heat's finite difference vanishes at these m: ZeroDivisionError
    for m in (1e-6, -1e-9):
        ops += curve_ops(m, known_raise=ZeroDivisionError)

    big = pkg.ModelParams(n=big_n)
    for _ in range(n_eval):
        m = rng.uniform(0.1, 0.9) * rng.choice((-1.0, 1.0))
        beta = -math.log1p(-m * m) / (jz * m * m)
        xi = beta * jz * m - math.atanh(m)
        c = pkg.ConjugateCoords(beta=beta, xi=xi)
        for method in ("binom", "closed"):
            ops.append(Op(f"evaluate-{method}",
                          call=partial(lambda c, m, method: oracle.evaluate(m, c, big, method=method),
                                       c, m, method),
                          check=partial(checks.check_evaluate, m=m, beta=beta, xi=xi, jz=jz, n=big_n)))
    return Workload(ops, headline="solve", heavy="evaluate-binom")


WORKLOADS = {"tables": tables, "verify": verify, "library": library}
CLI_WORKLOADS = ("tables", "verify")
