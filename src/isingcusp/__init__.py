"""Mean-field Ising thermodynamics as a Hamilton-Jacobi problem.

The entropy S(U, M) is a principal function on state space; its
characteristics form a parametric curve (beta(m), xi(m)) with a cusp at
the critical point, validated here against an exact finite-N oracle.
"""
from .criticality import (ALPHA_TOL, ExponentReport, fit_exponents, jacobian_norm,
                          reduced_temperature, specific_heat, susceptibility)
from .curve import (M_SWITCH, CurveSample, beta_of_m, curve_point, s_of_m,
                    sample_curve, u_of_m, xi_of_m)
from .idealgas import GasState, gas_entropy, gas_gradient, gas_hj_residual, gas_recover_eos
from .model import ConjugateCoords, DomainError, ModelParams, SizeError, to_field_coords
from .oracle import (OracleResult, check_entropy_offset, evaluate, log_partition,
                     log_partition_binom, log_partition_closed, log_partition_enum)
from .selfconsistent import Root, RootSet, massieu_per_site, solve, zero_field_branch
from .surface import entropy, gradient, hj_residual, in_domain, surface_grid
from .verify import CheckResult, run_all

__version__ = "1.0.0"

__all__ = [
    "ALPHA_TOL", "CheckResult", "ConjugateCoords", "CurveSample", "DomainError",
    "ExponentReport", "GasState", "M_SWITCH", "ModelParams", "OracleResult",
    "Root", "RootSet", "SizeError", "beta_of_m", "check_entropy_offset",
    "curve_point", "entropy", "evaluate",
    "fit_exponents", "gas_entropy", "gas_gradient", "gas_hj_residual",
    "gas_recover_eos", "gradient", "hj_residual",
    "in_domain", "jacobian_norm", "log_partition", "log_partition_binom",
    "log_partition_closed", "log_partition_enum", "massieu_per_site",
    "reduced_temperature", "run_all", "s_of_m", "sample_curve", "solve",
    "specific_heat", "surface_grid", "susceptibility", "to_field_coords",
    "u_of_m", "xi_of_m", "zero_field_branch",
]
