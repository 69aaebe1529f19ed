"""Acceptance checks. Each test prints a single PASS line with the
measured figures once its assertions hold; a failure surfaces through
pytest as usual. Expected values are recomputed in-test (own sampler,
own finite differences, own bisection) rather than trusting the library
under test.
"""
import json
import math

import numpy as np
import pytest

from isingcusp import (GasState, ModelParams, beta_of_m, entropy, fit_exponents,
                       gas_hj_residual, gas_recover_eos, gradient, hj_residual,
                       jacobian_norm, s_of_m, sample_curve, solve,
                       specific_heat, u_of_m, xi_of_m, zero_field_branch)
from isingcusp.model import ConjugateCoords
from isingcusp.oracle import (check_entropy_offset, evaluate,
                              log_partition_binom, log_partition_enum)
from isingcusp.cli import main

P = ModelParams()   # k = Jz = 1, N = 12


def random_states(seed=0, count=1000):
    """Valid (U, M) pairs with 2U/(JzM) in +-[0.05, 0.95]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        x = float(rng.uniform(0.05, 0.95)) * float(rng.choice([-1.0, 1.0]))
        m = float(rng.uniform(0.1, 2.0)) * float(rng.choice([-1.0, 1.0]))
        out.append((0.5 * x * P.jz * m, m, x))
    return out


def test_ac01_hamilton_jacobi_certificate():
    worst = 0.0
    for u, m, x in random_states():
        rhs = math.atanh(x)
        for a in (0.0, 1.0, -3.0):
            scaled = abs(hj_residual(u, m, P, a)) / (1.0 + abs(rhs))
            worst = max(worst, scaled)
            assert scaled < 1e-10
    print(f"AC1 PASS: max scaled HJ residual {worst:.3e} over 1000 states, "
          "a in {0, 1, -3}")


def test_ac02_gradient_matches_finite_differences():
    worst = 0.0
    for u, m, _ in random_states():
        ds_du, ds_dm = gradient(u, m, P)
        hu, hm = 1e-6 * abs(u), 1e-6 * abs(m)
        fd_u = (entropy(u + hu, m, P) - entropy(u - hu, m, P)) / (2 * hu)
        fd_m = (entropy(u, m + hm, P) - entropy(u, m - hm, P)) / (2 * hm)
        rel_u = abs(fd_u - ds_du) / abs(ds_du)
        rel_m = abs(fd_m - ds_dm) / abs(ds_dm)
        worst = max(worst, rel_u, rel_m)
        assert rel_u < 1e-6 and rel_m < 1e-6
    print(f"AC2 PASS: analytic gradient vs central differences, "
          f"worst relative error {worst:.3e} on the same 1000 states")


def test_ac03_curve_identity():
    worst = 0.0
    for m in (0.01, 0.1, 0.3, 0.5, 0.8, 0.95):
        for sign in (1.0, -1.0):
            mm = sign * m
            err = abs(beta_of_m(mm, P) * P.jz * mm - xi_of_m(mm, P)
                      - math.atanh(mm))
            worst = max(worst, err)
            assert err < 1e-10
    print(f"AC3 PASS: beta*Jz*m - xi = atanh(m) to {worst:.3e} "
          "on m in {+-0.01, +-0.1, +-0.3, +-0.5, +-0.8, +-0.95}")


def test_ac04_pullback_equality():
    worst = 0.0
    for m in (0.1, 0.3, 0.5, 0.8, 0.9, -0.1, -0.3, -0.5, -0.8, -0.9):
        for n in (1, 12):
            expected = n * s_of_m(m, P)
            got = entropy(n * u_of_m(m, P), n * m, P, a=0.0)
            rel = abs(got - expected) / abs(expected)
            worst = max(worst, rel)
            assert rel < 1e-12
    print(f"AC4 PASS: surface pullback equals N*s(m), worst relative "
          f"difference {worst:.3e} over m grid x N in {{1, 12}}")


def test_ac05_oracle_agreement():
    p = ModelParams(n=12)
    c = ConjugateCoords(1.1507282897, 0.0260580006)
    le = log_partition_enum(0.5, c, p)
    lb = log_partition_binom(0.5, c, p)
    assert abs(le - lb) / abs(le) < 1e-12
    res = evaluate(0.5, c, p)
    assert abs(res.m_numeric - 6.0) < 1e-4
    assert abs(res.u_numeric - (-1.5)) < 1e-4
    offset = res.s_entropy1 - p.n * s_of_m(0.5, p)
    assert abs(offset - 12 * math.log(2.0)) < 1e-6
    offs = [check_entropy_offset(m, p)
            for m in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)]
    spread = max(offs) - min(offs)
    assert spread < 1e-8
    print(f"AC5 PASS: enum/binom log Xi agree to {abs(le - lb) / abs(le):.3e}, "
          f"M={res.m_numeric:.6f}, U={res.u_numeric:.6f}, offset "
          f"{offset:.10f} = 12 log 2 (spread {spread:.3e} across m)")


def test_ac06_cusp_location():
    # odd sample count puts a row exactly at m=0; an even count leaves the
    # nearest row at |m| ~ 4.8e-3 and the bound must still hold
    for n_samples in (201, 200):
        samples = sample_curve(-0.95, 0.95, n_samples, "linear", P)
        row = min(samples, key=lambda s: abs(s.m))
        assert abs(row.beta - 1.0) < 1e-4
        assert abs(row.xi) < 1e-6
    jn = jacobian_norm(1e-3, P)
    assert jn == pytest.approx(1e-3, rel=0.05)
    ms = np.geomspace(1e-4, 1e-1, 25)
    norms = [jacobian_norm(float(m), P) for m in ms]
    assert all(b > a for a, b in zip(norms, norms[1:]))
    print(f"AC6 PASS: row nearest m=0 has (beta, xi) within (1e-4, 1e-6) of "
          f"(1, 0); jacobian_norm(1e-3) = {jn:.6e}, monotone toward zero")


def test_ac07_critical_exponents():
    rep = fit_exponents(P, 1e-3, 1e-2, 20)
    assert rep.delta.value == pytest.approx(3.0, abs=0.01)
    assert rep.beta_exp.value == pytest.approx(0.5, abs=0.005)
    assert rep.gamma.value == pytest.approx(1.0, abs=0.02)
    c_dev = abs(specific_heat(1e-3, P) / P.k - 1.0)
    assert c_dev < 1e-3
    print(f"AC7 PASS: delta={rep.delta.value:.4f}, beta={rep.beta_exp.value:.4f}, "
          f"gamma={rep.gamma.value:.4f}, |C/k - 1| = {c_dev:.3e} at m=1e-3")


def test_ac08_series_fidelity():
    m = 1e-2
    err_beta = abs(beta_of_m(m, P) * P.jz - (1 + m**2 / 2 + m**4 / 3))
    err_xi = abs(xi_of_m(m, P) - (m**3 / 6 + 2 * m**5 / 15))
    assert err_beta < 1e-11
    assert err_xi < 1e-13
    print(f"AC8 PASS: at m=1e-2 the stated expansions hold to "
          f"{err_beta:.3e} (beta*Jz) and {err_xi:.3e} (xi)")


def test_ac09_zero_field_branch():
    for beta in (0.3, 0.7, 1.0):
        rs = solve(ConjugateCoords(beta, 0.0), P)
        assert len(rs.roots) == 1 and rs.roots[0].m == 0.0
    z = zero_field_branch(0.5, 2.0, 61, P)
    below = z.s[z.beta * P.jz <= 1.0]
    assert below.size and all(below == 0.0)

    rs = solve(ConjugateCoords(1.2, 0.0), P)
    stable_ms = sorted(r.m for r in rs.roots if r.stable)
    assert len(stable_ms) == 2
    assert stable_ms[0] == pytest.approx(-stable_ms[1], abs=1e-12)

    # independent bisection of m = tanh(1.2 m) on (0, 1)
    f = lambda m: m - math.tanh(1.2 * m)
    lo, hi = 1e-6, 0.999999
    assert f(lo) < 0 < f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    m_bisect = 0.5 * (lo + hi)
    gap = abs(stable_ms[1] - m_bisect)
    assert gap < 1e-10
    lam = P.k * 1.2
    assert lam > P.k / P.jz
    print(f"AC9 PASS: single root with S=0 for beta*Jz <= 1; at beta=1.2 "
          f"stable roots +-{stable_ms[1]:.12f} match bisection to {gap:.1e}, "
          f"lambda = {lam} > k/Jz = {P.k / P.jz}")


def test_ac10_ideal_gas():
    rng = np.random.default_rng(3)
    worst_res, worst_eos = 0.0, 0.0
    for _ in range(100):
        g = GasState(u=float(rng.uniform(0.1, 10.0)),
                     v=float(rng.uniform(0.1, 10.0)),
                     r=float(rng.uniform(0.5, 3.0)))
        res = abs(gas_hj_residual(g))
        worst_res = max(worst_res, res)
        assert res < 1e-13
        t, pressure = gas_recover_eos(g)
        eos1 = abs(g.u - 1.5 * g.r * t) / g.u
        eos2 = abs(pressure * g.v - g.r * t) / (g.r * t)
        worst_eos = max(worst_eos, eos1, eos2)
        assert eos1 < 1e-13 and eos2 < 1e-13
    print(f"AC10 PASS: gas residual <= {worst_res:.3e} and equation-of-state "
          f"relations to {worst_eos:.3e} over 100 random states")


def test_ac11_determinism_and_figure_parity(tmp_path):
    argv = ["curve", "--m-min", "-0.95", "--m-max", "0.95", "--samples", "201"]
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    data = out1.read_bytes()
    assert data == out2.read_bytes()

    lines = data.decode().splitlines()
    header = lines[0].split(",")
    i_m, i_b, i_x = header.index("m"), header.index("beta"), header.index("xi")
    rows = [ln.split(",") for ln in lines[1:]]
    ms = [float(r[i_m]) for r in rows]
    betas = [float(r[i_b]) for r in rows]
    xis = [float(r[i_x]) for r in rows]
    zero = min(range(len(ms)), key=lambda i: abs(ms[i]))

    def diffs(col):
        return [abs(b - a) for a, b in zip(col, col[1:])]

    for col in (betas, xis):
        d = diffs(col)
        left, right = d[:zero], d[zero:]
        # shrink approaching the m=0 row from the left, grow leaving it
        assert all(b < a for a, b in zip(left, left[1:]))
        assert all(b > a for a, b in zip(right, right[1:]))
    print("AC11 PASS: identical flags give byte-identical files; (beta, xi) "
          "consecutive differences vanish toward the m=0 row from both sides")
