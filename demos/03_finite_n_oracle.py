"""Exact finite-N checks of every closed-form expression.

The grand partition function of N spins factorizes, so log Xi is known
exactly. Three independent routes compute it: brute-force enumeration
over all 2^N configurations, a binomial sum over magnetization sectors,
and the closed form. Numeric derivatives of the binomial sum, the
oracle's default route, recover the moments M and U, and the
Legendre-transform entropy sits exactly N k log 2 above N s(m): the
ensembles agree up to the ground-state degeneracy constant.
"""
import math

from isingcusp import ConjugateCoords, ModelParams, beta_of_m, s_of_m, xi_of_m
from isingcusp.oracle import (check_entropy_offset, evaluate,
                              log_partition_binom, log_partition_closed,
                              log_partition_enum)

p = ModelParams(n=12)
m = 0.5
c = ConjugateCoords(beta_of_m(m, p), xi_of_m(m, p))

le = log_partition_enum(m, c, p)
lb = log_partition_binom(m, c, p)
lc = log_partition_closed(m, c, p)
print(f"log Xi at N = {p.n}, m = {m}, on-curve (beta, xi)")
print(f"  enumeration : {le:.15f}")
print(f"  binomial    : {lb:.15f}")
print(f"  closed form : {lc:.15f}")

res = evaluate(m, c, p)
print(f"\nmoments from numeric derivatives of Psi")
print(f"  M = {res.m_numeric:.10f}   (expected N m     = {p.n * m})")
print(f"  U = {res.u_numeric:.10f}  (expected -Jz N m^2/2 = {-0.5 * p.jz * p.n * m * m})")

print(f"\nentropy offset S_1 - N s(m) across m (constant N k log 2 = "
      f"{p.n * math.log(2):.10f})")
for mm in (0.1, 0.3, 0.5, 0.7):
    print(f"  m = {mm}: {check_entropy_offset(mm, p):.10f}")
