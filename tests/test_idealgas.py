"""Monatomic gas worked example: same PDE machinery, closed-form checks."""
import math

import numpy as np
import pytest

from isingcusp import (DomainError, GasState, gas_entropy, gas_gradient,
                       gas_hj_residual, gas_recover_eos)


def test_entropy_value():
    st = GasState(u=1.0, v=1.0)
    assert gas_entropy(st) == 0.0
    st2 = GasState(u=2.0, v=3.0, r=1.0, s0=0.5)
    expected = 1.5 * np.log(2.0) + np.log(3.0) + 0.5
    assert gas_entropy(st2) == pytest.approx(expected, rel=1e-15)


def test_gradient():
    st = GasState(u=2.0, v=4.0, r=2.0)
    du, dv = gas_gradient(st)
    assert du == pytest.approx(1.5, rel=1e-15)    # 1.5 * 2 / 2
    assert dv == pytest.approx(0.5, rel=1e-15)    # 2 / 4


def test_residual_random_states():
    rng = np.random.default_rng(5)
    for _ in range(100):
        st = GasState(u=float(rng.uniform(0.1, 10.0)),
                      v=float(rng.uniform(0.1, 10.0)),
                      r=float(rng.uniform(0.5, 3.0)),
                      s0=float(rng.uniform(-1.0, 1.0)))
        assert abs(gas_hj_residual(st)) < 1e-13


def test_recover_equation_of_state():
    rng = np.random.default_rng(6)
    for _ in range(100):
        st = GasState(u=float(rng.uniform(0.1, 10.0)),
                      v=float(rng.uniform(0.1, 10.0)),
                      r=float(rng.uniform(0.5, 3.0)))
        t, pressure = gas_recover_eos(st)
        assert st.u == pytest.approx(1.5 * st.r * t, rel=1e-13)
        assert pressure * st.v == pytest.approx(st.r * t, rel=1e-13)


@pytest.mark.parametrize("f, state", [
    (gas_gradient, GasState(5e-324, 1.0)),              # p_U = 3r/2U was inf
    (gas_hj_residual, GasState(5e-324, 1.0)),
    (gas_recover_eos, GasState(5e-324, 1.0)),
    (gas_entropy, GasState(1e308, 1.0, r=1e308)),       # was inf
    (gas_hj_residual, GasState(1.0, 1.5e308)),          # 1.5 V overflows: was -inf
    (gas_recover_eos, GasState(1e308, 1.0, r=1e-300)),  # p_U underflows to 0: T = 1/0
], ids=["gradient", "residual", "eos", "entropy", "residual-volume", "eos-underflow"])
def test_non_finite_results_are_domain_errors(f, state):
    with pytest.raises(DomainError, match="not a finite double"):
        f(state)


def test_rejects_nonpositive_state():
    with pytest.raises(DomainError):
        GasState(u=0.0, v=1.0)
    with pytest.raises(DomainError):
        GasState(u=1.0, v=-2.0)
    with pytest.raises(DomainError):
        GasState(u=1.0, v=1.0, r=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="not a finite double"):
            GasState(u=1.0, v=1.0, s0=bad)
