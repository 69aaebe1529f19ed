"""The characteristics of the entropy PDE form a parametric curve.

Sampling (beta(m), xi(m)) over the order parameter traces the curve
whose projection to the (beta, xi) plane has a cusp at (1/Jz, 0), the
critical point. Near m = 0 both components flatten out: the Jacobian
norm of the map m -> (beta, xi) goes to zero linearly, which is the
defining property of the cusp.
"""
import math

from isingcusp import ModelParams, jacobian_norm, sample_curve
from isingcusp.model import log_grid

p = ModelParams()

print("curve samples (k = Jz = 1)")
print(f"{'m':>6} {'beta':>12} {'xi':>13} {'T':>10} {'h':>12} {'u':>9} {'s':>10}")
for s in sample_curve(-0.9, 0.9, 13, "linear", p):
    print(f"{s.m:6.2f} {s.beta:12.6f} {s.xi:13.3e} {s.t:10.6f} "
          f"{s.h:12.3e} {s.u:9.4f} {s.s:10.6f}")

print()
print("Jacobian norm |(dbeta/dm, dxi/dm)| vanishing toward the cusp")
for m in log_grid(1e-1, 1e-4, 4).tolist():
    print(f"  m = {m:8.1e}: {jacobian_norm(m, p):.6e}")

# the identity beta*Jz*m - xi = atanh(m) pins both components at once
worst = max(abs(s.beta * p.jz * s.m - s.xi - math.atanh(s.m))
            for s in sample_curve(-0.95, 0.95, 201, "linear", p))
print(f"\nidentity beta*Jz*m - xi = atanh(m): max deviation {worst:.3e}")
