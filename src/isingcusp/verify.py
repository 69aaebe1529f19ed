"""Aggregated verification suite behind the `verify` CLI subcommand.

Every check re-derives its expected values independently (random state
grids, the finite oracle, closed-form limits) so a pass certifies the
formulas rather than echoing them.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import criticality, idealgas, oracle, surface
from .curve import beta_of_m, xi_of_m
from .model import ConjugateCoords, ModelParams, check_index, log_grid, logs


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _seeded(seed: int) -> random.Random:
    """The generator of a randomized check, whose random() stream Python
    keeps the same for a seed across versions."""
    return random.Random(check_index(seed, "seed", 0))


def _between(lo: float, hi: float, r):
    """A draw r in [0, 1) taken to [lo, hi), on floats or arrays."""
    return lo + (hi - lo) * r


def _signed(rng: random.Random, lo: float, hi: float, count: int) -> np.ndarray:
    """count draws in [lo, hi), each negated where a further random() < 0.5."""
    r = np.array([rng.random() for _ in range(2 * count)]).reshape(count, 2)
    return np.where(r[:, 1] < 0.5, -1.0, 1.0) * _between(lo, hi, r[:, 0])


def random_states(rng: random.Random, count: int, p: ModelParams):
    """Valid (U, M) states drawn by sampling the atanh argument directly."""
    x = _signed(rng, 0.05, 0.95, count)
    m = _signed(rng, 0.1, 2.0, count)
    u = 0.5 * x * p.jz * m
    return u, m


def check_hj_residual(p: ModelParams, us: np.ndarray, ms: np.ndarray) -> CheckResult:
    count = len(us)
    # every state under each a in (0, 1, -3), scored in one array call
    branches = (0.0, 1.0, -3.0)
    u, m = np.tile(us, len(branches)), np.tile(ms, len(branches))
    *_, res = surface.state_columns(u, m, p, np.repeat(branches, count))
    _, rhs = logs(2.0 * us / (p.jz * ms))  # once per state, not per branch
    worst = float(np.max(np.abs(res) / (1.0 + np.abs(np.tile(rhs, len(branches))))))
    return CheckResult("hj-residual", worst < 1e-10,
                       f"max scaled residual {worst:.3e} over {count} states, a in (0, 1, -3)")


def check_gradient_fd(p: ModelParams, us: np.ndarray, ms: np.ndarray) -> CheckResult:
    count = len(us)
    hu, hm = 1e-6 * np.abs(us), 1e-6 * np.abs(ms)
    # the states and their four central-difference neighbours, in one array call
    s, du, dm, _ = surface.state_columns(np.concatenate((us, us + hu, us - hu, us, us)),
                                         np.concatenate((ms, ms, ms, ms + hm, ms - hm)), p)
    s_up, s_un, s_mp, s_mn = np.split(s[count:], 4)
    du, dm = du[:count], dm[:count]
    fd_u = (s_up - s_un) / (2.0 * hu)
    fd_m = (s_mp - s_mn) / (2.0 * hm)
    worst = float(max(np.max(np.abs(fd_u - du) / np.maximum(np.abs(du), 1e-300)),
                      np.max(np.abs(fd_m - dm) / np.maximum(np.abs(dm), 1e-300))))
    return CheckResult("surface-gradient-fd", worst < 1e-6,
                       f"max relative disagreement {worst:.3e} over {count} states")


def check_curve_identity(p: ModelParams) -> CheckResult:
    worst = 0.0
    for m in (0.01, 0.1, 0.3, 0.5, 0.8, 0.95):
        for mm in (m, -m):
            lhs = beta_of_m(mm, p) * p.jz * mm - xi_of_m(mm, p)
            worst = max(worst, abs(lhs - math.atanh(mm)))
    return CheckResult("curve-identity", worst < 1e-10,
                       f"max |beta Jz m - xi - atanh(m)| = {worst:.3e}")


def check_oracle(p: ModelParams) -> CheckResult:
    m = 0.5
    c = ConjugateCoords(beta=beta_of_m(m, p), xi=xi_of_m(m, p))
    le = oracle.log_partition_enum(m, c, p)
    lb = oracle.log_partition_binom(m, c, p)
    method_gap = abs(le - lb) / abs(le)
    # on the curve the moments are M = N m and U = -Jz N m^2 / 2
    res = oracle.evaluate(m, c, p)
    m_residual = res.m_numeric - p.n * m
    u_residual = res.u_numeric + 0.5 * p.jz * p.n * m * m
    ok = method_gap < 1e-12 and abs(m_residual) < 1e-4 and abs(u_residual) < 1e-4
    return CheckResult("oracle-consistency", ok,
                       f"enum/binom gap {method_gap:.3e}, M residual {m_residual:.3e}, "
                       f"U residual {u_residual:.3e} at N={p.n}")


def check_entropy_offset(p: ModelParams) -> CheckResult:
    target = p.k * p.n * math.log(2.0)
    offsets = [oracle.check_entropy_offset(m, p) for m in
               (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)]
    err = abs(offsets[4] - target)
    spread = max(offsets) - min(offsets)
    ok = err < 1e-6 and spread < 1e-8
    return CheckResult("entropy-offset", ok,
                       f"offset - kN log2 = {err:.3e} at m=0.5, spread {spread:.3e} over m grid")


def check_exponents(p: ModelParams) -> CheckResult:
    rep = criticality.fit_exponents(p)
    ok = (abs(rep.delta.value - 3.0) < 0.01
          and abs(rep.beta_exp.value - 0.5) < 0.005
          and abs(rep.gamma.value - 1.0) < 0.02
          and rep.alpha.flag)
    return CheckResult("critical-exponents", ok,
                       f"delta {rep.delta.value:.4f}, beta {rep.beta_exp.value:.4f}, "
                       f"gamma {rep.gamma.value:.4f}, alpha flat to {rep.alpha.max_deviation:.3e}")


def check_cusp(p: ModelParams) -> CheckResult:
    jn = criticality.jacobian_norm(1e-3, p)
    scale_ok = abs(jn - 1e-3 / p.jz) < 0.05e-3 / p.jz
    grid = log_grid(1e-4, 1e-1, 25)
    norms = [criticality.jacobian_norm(float(m), p) for m in grid]
    monotone = all(a < b for a, b in zip(norms, norms[1:]))
    upper = min(0.99e-2 * p.jz, 0.9)
    small = all(criticality.jacobian_norm(float(m), p) < 1e-2
                for m in log_grid(1.1e-4, upper, 10))
    ok = scale_ok and monotone and small
    return CheckResult("cusp-jacobian", ok,
                       f"norm(1e-3) = {jn:.6e}, monotone on [1e-4, 1e-1]: {monotone}")


def check_ideal_gas(seed: int) -> CheckResult:
    rng, count = _seeded(seed), 100
    worst = 0.0
    for _ in range(count):
        g = idealgas.GasState(u=_between(0.1, 10.0, rng.random()),
                              v=_between(0.1, 10.0, rng.random()),
                              r=_between(0.5, 3.0, rng.random()))
        worst = max(worst, abs(idealgas.gas_hj_residual(g)))
        t, pressure = idealgas.gas_recover_eos(g)
        worst = max(worst, abs(g.u - 1.5 * g.r * t) / g.u,
                    abs(pressure * g.v - g.r * t) / (g.r * t))
    return CheckResult("ideal-gas", worst < 1e-13,
                       f"max residual {worst:.3e} over {count} random states")


def run_all(p: ModelParams, seed: int = 0) -> list[CheckResult]:
    # the two surface checks score the same 1000 states
    states = random_states(_seeded(seed), 1000, p)
    return [
        check_hj_residual(p, *states),
        check_gradient_fd(p, *states),
        check_curve_identity(p),
        check_oracle(p),
        check_entropy_offset(p),
        check_exponents(p),
        check_cusp(p),
        check_ideal_gas(seed),
    ]
