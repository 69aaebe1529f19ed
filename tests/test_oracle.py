"""Finite-size ensemble oracle: enumeration vs binomial vs closed form."""
import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from isingcusp import (ConjugateCoords, ModelParams, SizeError, beta_of_m,
                       check_entropy_offset, check_self_consistency, evaluate,
                       log_partition, log_partition_binom, log_partition_closed,
                       log_partition_enum, s_of_m, xi_of_m)

LOG2 = math.log(2.0)


def on_curve_coords(m, p):
    return ConjugateCoords(beta_of_m(m, p), xi_of_m(m, p))


def test_single_site_infinite_temperature():
    p = ModelParams(n=1)
    assert log_partition_enum(0.3, ConjugateCoords(0.0, 0.0), p) == pytest.approx(
        LOG2, rel=1e-15)


def test_two_sites_zero_magnetization():
    # at m = 0 the quadratic term drops; with xi = 0 every config weighs 1
    p = ModelParams(n=2)
    assert log_partition_enum(0.0, ConjugateCoords(1.0, 0.0), p) == pytest.approx(
        math.log(4.0), rel=1e-15)


def lse_product(m, c, p):
    """log Xi by math.fsum over itertools.product of the N spins."""
    theta = c.beta * p.jz * m - c.xi
    const = -0.5 * c.beta * p.n * p.jz * m * m
    expo = [const + theta * sum(s) for s in itertools.product((-1, 1), repeat=p.n)]
    mx = max(expo)
    return mx + math.log(math.fsum(math.exp(e - mx) for e in expo))


def test_enum_binom_closed_agree_at_reference_point():
    p = ModelParams(n=12)
    c = ConjugateCoords(1.1507282897, 0.0260580006)
    le = log_partition_enum(0.5, c, p)
    lb = log_partition_binom(0.5, c, p)
    lc = log_partition_closed(0.5, c, p)
    assert le == pytest.approx(lb, rel=1e-12)
    assert le == pytest.approx(lc, rel=1e-12)


def test_enum_binom_agree_randomized():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 17))
        p = ModelParams(n=n)
        beta = float(rng.uniform(0.1, 2.0))
        xi = float(rng.uniform(-0.5, 0.5))
        m = float(rng.uniform(-0.9, 0.9))
        c = ConjugateCoords(beta, xi)
        le = log_partition_enum(m, c, p)
        lb = log_partition_binom(m, c, p)
        assert abs(le - lb) <= 1e-12 * max(1.0, abs(le))
        assert abs(le - lse_product(m, c, p)) <= 1e-13 * max(1.0, abs(le))


def test_binom_large_n_matches_closed_form():
    p = ModelParams(n=10**4)
    c = on_curve_coords(0.5, p)
    lb = log_partition_binom(0.5, c, p)
    lc = log_partition_closed(0.5, c, p)
    assert lb == pytest.approx(lc, rel=1e-11)


def test_import_leaves_scipy_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, isingcusp; print('scipy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_size_caps():
    with pytest.raises(SizeError):
        log_partition_enum(0.5, ConjugateCoords(1.0, 0.0), ModelParams(n=21))
    with pytest.raises(SizeError):
        log_partition_binom(0.5, ConjugateCoords(1.0, 0.0),
                            ModelParams(n=10**6 + 1))
    # dispatcher picks enum for small n, binom beyond the enum cap
    p_small, p_big = ModelParams(n=10), ModelParams(n=100)
    c = ConjugateCoords(1.0, 0.1)
    assert log_partition(0.3, c, p_small) == pytest.approx(
        log_partition_enum(0.3, c, p_small), rel=1e-15)
    assert log_partition(0.3, c, p_big) == pytest.approx(
        log_partition_binom(0.3, c, p_big), rel=1e-15)


def test_extensivity():
    c = ConjugateCoords(1.3, 0.07)
    l8 = log_partition_enum(0.4, c, ModelParams(n=8))
    l16 = log_partition_enum(0.4, c, ModelParams(n=16))
    assert l16 == pytest.approx(2.0 * l8, rel=1e-13)


def test_moments_match_closed_derivatives():
    p = ModelParams(n=12)
    c = on_curve_coords(0.5, p)
    res = evaluate(0.5, c, p)
    theta = c.beta * p.jz * 0.5 - c.xi
    m_exact = p.n * math.tanh(theta)
    u_exact = 0.5 * p.n * p.jz * 0.25 - p.n * p.jz * 0.5 * math.tanh(theta)
    assert res.m_numeric == pytest.approx(m_exact, rel=1e-6)
    assert res.u_numeric == pytest.approx(u_exact, rel=1e-6, abs=1e-6)


def test_self_consistency_on_curve():
    p = ModelParams(n=12)
    rep = check_self_consistency(0.5, on_curve_coords(0.5, p), p)
    assert rep.consistent
    assert rep.m_numeric == pytest.approx(6.0, abs=1e-4)
    assert rep.u_numeric == pytest.approx(-1.5, abs=1e-4)
    assert rep.m_expected == 6.0
    assert rep.u_expected == -1.5


def test_self_consistency_flags_off_curve():
    # wrong xi for this m: the measured moments drift off the targets
    p = ModelParams(n=12)
    c = ConjugateCoords(beta_of_m(0.5, p), xi_of_m(0.5, p) + 0.3)
    rep = check_self_consistency(0.5, c, p)
    assert not rep.consistent
    assert abs(rep.m_residual) > 1e-3


def test_entropy_offset_is_n_log2():
    p = ModelParams(n=12)
    off = check_entropy_offset(0.5, p)
    assert off == pytest.approx(p.n * LOG2, abs=1e-6)


def test_entropy_offset_constant_in_m():
    p = ModelParams(n=12)
    offs = [check_entropy_offset(m, p)
            for m in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)]
    assert max(offs) - min(offs) < 1e-8


def test_entropy_offset_single_site():
    p = ModelParams(n=1)
    assert check_entropy_offset(0.5, p) == pytest.approx(LOG2, abs=1e-6)


def test_entropy1_equals_site_entropy_plus_offset():
    p = ModelParams(n=12)
    res = evaluate(0.3, on_curve_coords(0.3, p), p)
    assert res.s_entropy1 == pytest.approx(
        p.n * s_of_m(0.3, p) + p.n * LOG2, abs=1e-6)
