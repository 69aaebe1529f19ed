"""Every public callable gives a finite result or raises DomainError or SizeError.

Each export in isingcusp.__all__ is called with arguments drawn from
EXTREME, any finite double and log-uniform magnitudes, and the result is
walked: every float in it, in arrays, records and namespaces too, must
be finite. NaN is allowed where it is documented: a surface cell's s
where the cell is not valid, and chi on the m = 0 row of a curve table.
"""
import dataclasses
import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_surface import EXTREME

import isingcusp
from isingcusp import ConjugateCoords, DomainError, GasState, ModelParams, SizeError, verify
from isingcusp.model import MAX_CELLS

# Constants, error classes and records that hold what they are given.
PLAIN = {"ALPHA_TOL", "M_SWITCH", "DomainError", "SizeError", "CheckResult", "CurveSample",
         "ExponentReport", "OracleResult", "Root", "RootSet"}

# table sizes: small, degenerate, over the cap (raised before allocating), and
# not integers
COUNT = st.integers(-1, 6) | st.integers(MAX_CELLS + 1, 2 ** 62) | st.sampled_from([2.5, 2.0, True])
# oracle sizes: small, just over the enumeration cap, over the binomial cap,
# and not integers
SITES = st.integers(1, 8) | st.sampled_from([21, 10 ** 6 + 1, 1.5, 2.0, True])
# oracle routes, known and unknown
METHODS = st.sampled_from(["binom", "enum", "closed", "fast", "", "Binom"])
# seeds of the randomized checks: valid, negative, and not integers
SEEDS = st.integers(0, 2 ** 32) | st.sampled_from([-1, -2 ** 40, True, 2.0, 1.5])


POSITIVE = EXTREME.map(abs)


def params(draw):
    return ModelParams(jz=draw(POSITIVE), k=draw(POSITIVE), n=draw(SITES))


def coords(draw):
    return ConjugateCoords(beta=draw(POSITIVE), xi=draw(EXTREME))


def gas(draw):
    return GasState(draw(POSITIVE), draw(POSITIVE), draw(POSITIVE), draw(EXTREME))


def on_m(f):
    return lambda d: f(d(EXTREME), params(d))


def on_gas(f):
    return lambda d: f(gas(d))


def on_state(f):
    return lambda d: f(d(EXTREME), d(EXTREME), params(d), d(EXTREME))


def on_partition(f):
    return lambda d: f(d(EXTREME), coords(d), params(d))


CALLS = {
    "ModelParams": params,
    "ConjugateCoords": coords,
    "GasState": gas,
    **{name: on_m(getattr(isingcusp, name)) for name in (
        "beta_of_m", "xi_of_m", "u_of_m", "s_of_m", "curve_point", "check_entropy_offset",
        "jacobian_norm", "reduced_temperature", "specific_heat", "susceptibility")},
    **{name: on_gas(getattr(isingcusp, name)) for name in (
        "gas_entropy", "gas_gradient", "gas_hj_residual", "gas_recover_eos")},
    **{name: on_state(getattr(isingcusp, name)) for name in (
        "entropy", "gradient", "hj_residual")},
    "in_domain": lambda d: isingcusp.in_domain(d(EXTREME), d(EXTREME), params(d)),
    **{name: on_partition(getattr(isingcusp, name)) for name in (
        "log_partition_binom", "log_partition_closed", "log_partition_enum",
        "massieu_per_site")},
    "log_partition": lambda d: isingcusp.log_partition(
        d(EXTREME), coords(d), params(d), d(METHODS)),
    "evaluate": lambda d: isingcusp.evaluate(d(EXTREME), coords(d), params(d), d(METHODS)),
    "solve": lambda d: isingcusp.solve(coords(d), params(d)),
    "to_field_coords": lambda d: isingcusp.to_field_coords(coords(d), params(d)),
    "sample_curve": lambda d: isingcusp.sample_curve(
        d(EXTREME), d(EXTREME), d(COUNT), d(st.sampled_from(["linear", "log"])), params(d)),
    "surface_grid": lambda d: isingcusp.surface_grid(
        (d(EXTREME), d(EXTREME)), (d(EXTREME), d(EXTREME)), d(COUNT), d(COUNT), params(d),
        d(EXTREME)),
    "zero_field_branch": lambda d: isingcusp.zero_field_branch(
        d(EXTREME), d(EXTREME), d(COUNT), params(d)),
    "fit_exponents": lambda d: isingcusp.fit_exponents(
        params(d), d(EXTREME), d(EXTREME), d(COUNT)),
    "run_all": lambda d: isingcusp.run_all(params(d), d(SEEDS)),
}


def test_every_export_is_called_or_plain():
    assert set(CALLS).isdisjoint(PLAIN)
    assert set(CALLS) | PLAIN == set(isingcusp.__all__)


NON_FINITE_WORD = re.compile(r"\b(nan|inf)\b")


def assert_finite(value, where):
    if isinstance(value, (bool, int, type(None))):
        return
    if isinstance(value, float):
        assert math.isfinite(value), where
    elif isinstance(value, str):
        assert not NON_FINITE_WORD.search(value), (where, value)
    elif isinstance(value, np.ndarray):
        assert value.dtype == bool or np.isfinite(value).all(), where
    elif isinstance(value, (tuple, list)):
        for i, v in enumerate(value):
            assert_finite(v, f"{where}[{i}]")
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            assert_finite(getattr(value, f.name), f"{where}.{f.name}")
    elif isinstance(value, types.SimpleNamespace):
        fields = dict(vars(value))
        if "valid" in fields:  # a surface grid: s is NaN exactly where masked
            s, valid = fields.pop("s"), fields["valid"]
            assert np.isfinite(s[valid]).all() and np.isnan(s[~valid]).all(), where
        if "chi" in fields:  # a curve table: chi is NaN exactly on the m = 0 row
            chi, zero = fields.pop("chi"), fields["m"] == 0.0
            assert np.isfinite(chi[~zero]).all() and np.isnan(chi[zero]).all(), where
        for name, v in fields.items():
            assert_finite(v, f"{where}.{name}")
    else:
        raise AssertionError(f"{where}: unchecked type {type(value).__name__}")


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_export_is_finite_or_raises(name, data):
    try:
        result = CALLS[name](data.draw)
    except (DomainError, SizeError):
        return
    assert_finite(result, name)


@pytest.mark.parametrize("seed", [-1, True, 1.5])
def test_bad_seed_is_a_domain_error(seed):
    # Random(-1) would silently replay seed 1's draws
    with pytest.raises(DomainError, match="seed"):
        isingcusp.run_all(ModelParams(n=2), seed)
    with pytest.raises(DomainError, match="seed"):
        verify.check_ideal_gas(seed)


@pytest.mark.parametrize("n", [1.5, 2.0, True, 0])
def test_site_count_is_a_positive_integer(n):
    with pytest.raises(DomainError, match="site count N"):
        ModelParams(n=n)


@pytest.mark.parametrize("f, args", [
    (isingcusp.sample_curve, (-0.5, 0.5, 2.5)),
    (isingcusp.sample_curve, (-0.5, 0.5, True)),
    (isingcusp.zero_field_branch, (0.5, 2.0, 3.0)),
    (isingcusp.fit_exponents, (ModelParams(), 1e-3, 1e-2, 7.5)),
    (isingcusp.surface_grid, ((-1, 1), (-2, 2), 2.5, 3)),
    (isingcusp.surface_grid, ((-1, 1), (-2, 2), 3, True)),
], ids=["sample_curve-2.5", "sample_curve-True", "zero_field_branch-3.0", "fit_exponents-7.5",
        "surface_grid-nu-2.5", "surface_grid-nm-True"])
def test_table_count_is_an_integer(f, args):
    # numpy raised TypeError for 2.5, and True counted as 1
    with pytest.raises(DomainError, match="must be an integer"):
        f(*args)


@pytest.mark.parametrize("f, field", [
    (ModelParams, "jz"), (ModelParams, "k"), (ConjugateCoords, "beta"), (ConjugateCoords, "xi"),
    (GasState, "u"), (GasState, "v"), (GasState, "r"), (GasState, "s0"),
    *((fn, arg) for fn in (isingcusp.entropy, isingcusp.gradient, isingcusp.hj_residual,
                          isingcusp.in_domain) for arg in ("u", "m")),
    *((fn, "a") for fn in (isingcusp.entropy, isingcusp.gradient, isingcusp.hj_residual,
                          isingcusp.surface_grid)),
    (isingcusp.zero_field_branch, "beta_max")])
def test_int_beyond_the_double_range_is_a_domain_error(f, field):
    # 10**400 has no double: OverflowError escaped from arithmetic, or the
    # value was kept; in_domain answers False
    state = {"u": -0.125, "m": 1.0, "p": ModelParams()}
    given = {ModelParams: {}, ConjugateCoords: {"beta": 1.0}, GasState: {"u": 1.0, "v": 1.0},
             isingcusp.entropy: state, isingcusp.gradient: state, isingcusp.hj_residual: state,
             isingcusp.in_domain: state, isingcusp.zero_field_branch: {"beta_min": 0.5, "n": 3},
             isingcusp.surface_grid: {"u_range": (-1, 1), "m_range": (-2, 2), "nu": 3, "nm": 3}}
    kwargs = {**given[f], field: 10 ** 400}
    if f is isingcusp.in_domain:
        assert f(**kwargs) is False
        return
    with pytest.raises(DomainError, match="not a finite double"):
        f(**kwargs)


@pytest.mark.parametrize("f, kwargs", [
    (ModelParams, {"jz": 10 ** 5000}), (ConjugateCoords, {"beta": -10 ** 5000}),
    (GasState, {"u": 10 ** 5000, "v": 1.0}),
    (isingcusp.surface_grid, {"u_range": (0, 10 ** 5000), "m_range": (-2, 2), "nu": 3, "nm": 3})],
    ids=["ModelParams-jz", "ConjugateCoords-beta", "GasState-u", "surface_grid-u_range"])
def test_int_past_the_decimal_digit_limit_is_named_by_its_power_of_ten(f, kwargs):
    # str() of an int over 4300 digits raises ValueError, which escaped in
    # place of the DomainError
    with pytest.raises(DomainError, match=r"not a finite double at .*10\*\*5000\.0"):
        f(**kwargs)


@pytest.mark.parametrize("f", [isingcusp.log_partition, isingcusp.evaluate])
def test_unknown_method_is_a_domain_error(f):
    with pytest.raises(DomainError, match="unknown method 'fast'"):
        f(0.5, ConjugateCoords(1.0), ModelParams(), "fast")
