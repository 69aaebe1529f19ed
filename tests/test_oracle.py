"""Finite-size ensemble oracle: enumeration vs binomial vs closed form."""
import itertools
import math
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from isingcusp import (ConjugateCoords, DomainError, ModelParams, SizeError, beta_of_m,
                       check_entropy_offset, evaluate, log_partition,
                       log_partition_binom, log_partition_closed,
                       log_partition_enum, s_of_m, xi_of_m)
from isingcusp.oracle import BINOM_CAP, BLOCK, ENUM_CAP, STIRLING_FROM

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
    c = ConjugateCoords(1.1507282897, 0.0260580006)
    for n in (12, ENUM_CAP):
        p = ModelParams(n=n)
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
    for n, ms in ((10**4, (0.5,)), (BINOM_CAP, (0.1, 0.5, 0.9))):
        p = ModelParams(n=n)
        for m in ms:
            c = on_curve_coords(m, p)
            lb = log_partition_binom(m, c, p)
            lc = log_partition_closed(m, c, p)
            assert lb == pytest.approx(lc, rel=1e-11)


def binom_one_expression(m, c, p):
    """The binomial sum as one expression over one whole table, the form the
    in-place blocks must reproduce bit for bit."""
    small = min(p.n, STIRLING_FROM)
    x = np.arange(small + 2.0, p.n + 2.0)
    r = 1.0 / (x * x)
    tail = ((x - 0.5) * np.log(x) - x + 0.5 * math.log(2.0 * math.pi)
            + (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / x)
    lf = np.concatenate(([math.lgamma(j + 1.0) for j in range(small + 1)], tail))
    spin_sum = 2.0 * np.arange(p.n + 1, dtype=np.float64) - p.n
    theta = c.beta * p.jz * m - c.xi
    expo = (lf[p.n] - lf - lf[::-1]
            - 0.5 * c.beta * p.n * p.jz * m * m + theta * spin_sum)
    mx = expo.max()
    return float(mx + np.log(np.exp(expo - mx).sum()))


@pytest.mark.parametrize("n", [1, 2, 3, 5, STIRLING_FROM - 1, STIRLING_FROM, STIRLING_FROM + 1,
                               STIRLING_FROM + 2, BLOCK - 1, BLOCK, STIRLING_FROM + BLOCK,
                               STIRLING_FROM + BLOCK + 1, STIRLING_FROM + BLOCK + 2,
                               2 * BLOCK - 2, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1,
                               BINOM_CAP - 1, BINOM_CAP])
def test_binom_blocks_equal_one_expression(n):
    # the first Stirling block ends at j = STIRLING_FROM + BLOCK, so
    # 65569 and 65570 put one and two entries in a second block. The fold of
    # log C runs over j = 0..N // 2 in blocks of BLOCK: 2 BLOCK - 2 and
    # 2 BLOCK - 1 fill one block, 2 BLOCK and 2 BLOCK + 1 leave a one-element
    # last block, and an even N pairs its middle j = N / 2 with itself
    p = ModelParams(n=n)
    for m, c in [(0.3, ConjugateCoords(1.3, 0.1)), (-0.7, ConjugateCoords(0.4, -0.9))]:
        assert log_partition_binom(m, c, p).hex() == binom_one_expression(m, c, p).hex()


def test_binom_sum_holds_one_table():
    # log C(N, j) is folded into the log-factorial table and the spin term
    # added in blocks, so the sum's traced peak is one (N + 1)-float table
    # plus O(BLOCK) temporaries, below two tables
    p = ModelParams(n=BINOM_CAP)
    c = ConjugateCoords(1.3, 0.1)
    tracemalloc.start()
    try:
        log_partition_binom(0.3, c, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * (BINOM_CAP + 1)


def enum_one_array(m, c, p):
    """The enumeration as one 2^N exponent array, the form the blocks must
    reproduce bit for bit."""
    expo = 2.0 * np.bitwise_count(np.arange(2 ** p.n, dtype=np.uint32)) - p.n
    expo *= c.beta * p.jz * m - c.xi
    expo += -0.5 * c.beta * p.n * p.jz * m * m
    mx = expo.max()
    return float(mx + np.log(np.exp(expo - mx).sum()))


@pytest.mark.parametrize("n", [1, 15, 16, 17, ENUM_CAP])
def test_enum_blocks_equal_one_array(n):
    # 2^16 = BLOCK configurations fill one block, 2^17 two, 2^20 sixteen
    rng = random.Random(n)
    for _ in range(6):
        m = rng.uniform(-0.99, 0.99)
        c = ConjugateCoords(rng.uniform(0.0, 3.0), rng.uniform(-2.0, 2.0))
        p = ModelParams(jz=rng.uniform(0.1, 5.0), n=n)
        assert log_partition_enum(m, c, p).hex() == enum_one_array(m, c, p).hex()


def test_enum_holds_one_block():
    # the 2^20 configurations stream through one BLOCK-float buffer, where one
    # whole float64 array of them would be 8 MiB
    p = ModelParams(n=ENUM_CAP)
    c = ConjugateCoords(1.3, 0.1)
    tracemalloc.start()
    try:
        log_partition_enum(0.3, c, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


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


HOT = (0.5, ConjugateCoords(1e308, 0.0), ModelParams(jz=1.0))


@pytest.mark.parametrize("f, args", [
    (log_partition_enum, HOT),    # theta (2 j - N) overflows to +-inf in the sum
    (log_partition_binom, HOT),
    (evaluate, HOT),
    (log_partition_closed, (0.9999999999999999, ConjugateCoords(1e308, 1.0000000000000002),
                            ModelParams(jz=1.4618835382270908e243))),  # -inf + inf
    (evaluate, (0.5, ConjugateCoords(1.0, 0.0), ModelParams(k=1e308))),  # k log Xi overflows
], ids=["enum", "binom", "evaluate", "closed", "evaluate-k"])
def test_non_finite_sums_are_domain_errors(f, args):
    # a DomainError, not nan or inf, and no numpy RuntimeWarning on the way
    with pytest.raises(DomainError, match="not a finite double"):
        f(*args)


def test_binomial_sum_is_the_default_route():
    # enumeration runs only where a caller names it
    c = ConjugateCoords(1.0, 0.1)
    for n in (10, 100):
        p = ModelParams(n=n)
        assert log_partition(0.3, c, p) == log_partition_binom(0.3, c, p)
        assert evaluate(0.3, c, p) == evaluate(0.3, c, p, method="binom")


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
