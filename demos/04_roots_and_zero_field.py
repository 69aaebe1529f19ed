"""Root structure of m = tanh(beta Jz m - xi) across the transition.

Below beta Jz = 1 the only fixed point is the disordered m = 0; above
it two stable ordered roots appear and m = 0 turns unstable. At xi = 0
the surviving branch obeys S = lambda U with lambda = k beta, which the
transition restricts to lambda > k/Jz.
"""
from isingcusp import ConjugateCoords, ModelParams, solve, zero_field_branch

p = ModelParams()

for beta in (0.6, 1.0, 1.2, 2.0):
    rs = solve(ConjugateCoords(beta, 0.0), p)
    desc = ", ".join(f"m={r.m:+.6f} ({'stable' if r.stable else 'unstable'})"
                     for r in sorted(rs.roots, key=lambda r: r.m))
    print(f"beta = {beta:4.1f}: {desc}")
    print(f"            selected m = {rs.equilibrium.m:+.6f}")

print("\nzero-field branch (lambda = k beta, ordered side needs lambda > k/Jz)")
print(f"{'beta':>6} {'m*':>12} {'s(m*)':>12} {'lambda':>8}")
z = zero_field_branch(0.8, 2.0, 7, p)
for beta, m, s, lam in zip(z.beta, z.m, z.s, z.lam):
    print(f"{beta:6.2f} {m:12.8f} {s:12.8f} {lam:8.2f}")
