"""Independent checks of the program's outputs.

Every reference here is written from the model's definitions with the
standard library (math, cmath, decimal) and shares no code with the
package. A check returns None when the output is right, or the reason it is not.
A reason of type KnownDefect says that every wrong value sits on an input
where the package is known to fail.
"""
from __future__ import annotations

import cmath
import decimal
import functools
import json
import math

# Inputs with 0 < beta*Jz - 1 <= NEAR_CRITICAL put the two outer roots of
# m = tanh(beta Jz m) inside one cell of the solver's 1024-cell rescan, and
# `solve` returns only the unstable m = 0 (ROADMAP item 2).
NEAR_CRITICAL = 1e-5

# |2U/(Jz M)| must stay this far inside 1 for a surface cell to be valid.
DOMAIN_MARGIN = 1e-12


class KnownDefect(str):
    """A failure made only of the solver defect near beta Jz = 1."""


def near_critical(bjz: float) -> bool:
    return 0.0 < bjz - 1.0 <= NEAR_CRITICAL


def _solver_defect(m: float, bjz: float, xi: float) -> bool:
    """The known wrong answer: only the unstable m = 0 at zero field, just above bJz = 1."""
    return m == 0.0 and xi == 0.0 and near_critical(bjz)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _records(text: str, fmt: str):
    """Rows of a CSV or JSON emission as dicts of column -> cell."""
    if fmt == "json":
        return json.loads(text)
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _log_2cosh(x: float) -> float:
    a = abs(x)
    return a + math.log1p(math.exp(-2.0 * a))


def cli_result(rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    if not out:
        return "empty output"
    return None


def check_curve(rc: int, out: str, fmt: str, rows: int, jz: float, k: float):
    """beta Jz m - xi = atanh(m), T = 1/(k beta), u = -Jz m^2/2, row count."""
    bad = cli_result(rc, out)
    if bad:
        return bad
    records = _records(out, fmt)
    if len(records) != rows:
        return f"{len(records)} rows, expected {rows}"
    for i, r in enumerate(records):
        m, beta, xi, t, u = (float(r[c]) for c in ("m", "beta", "xi", "T", "u"))
        if not abs(beta * jz * m - xi - math.atanh(m)) <= 1e-10:
            return f"row {i}: beta Jz m - xi != atanh(m) at m={m!r}"
        if not _rel(t, 1.0 / (k * beta)) <= 1e-15:
            return f"row {i}: T != 1/(k beta) at m={m!r}"
        if not _rel(u, -jz * m * m / 2.0) <= 1e-15:
            return f"row {i}: u != -Jz m^2/2 at m={m!r}"
    return None


def entropy_ref(u: float, m: float, jz: float, k: float) -> float:
    x = 2.0 * u / (jz * m)
    return k * m * math.atanh(x) + k * jz * m * m / (4.0 * u) * math.log1p(-x * x)


def check_surface(rc: int, out: str, rows: int, jz: float, k: float):
    """valid iff U, M != 0 and |2U/(Jz M)| < 1 - 1e-12; S matches the closed form."""
    bad = cli_result(rc, out)
    if bad:
        return bad
    records = _records(out, "csv")
    if len(records) != rows:
        return f"{len(records)} rows, expected {rows}"
    for i, r in enumerate(records):
        u, m = float(r["U"]), float(r["M"])
        valid = u != 0.0 and m != 0.0 and abs(2.0 * u / (jz * m)) < 1.0 - DOMAIN_MARGIN
        if r["valid"] != ("1" if valid else "0"):
            return f"row {i}: valid={r['valid']} at U={u!r}, M={m!r}"
        if not valid:
            if r["S"] != "":
                return f"row {i}: masked cell carries S={r['S']}"
        elif not _rel(float(r["S"]), entropy_ref(u, m, jz, k)) <= 1e-12:
            return f"row {i}: S off the closed form at U={u!r}, M={m!r}"
    return None


def root_failure(m: float, bjz: float, xi: float) -> str | None:
    """m must solve m = tanh(bJz m - xi) and be a stable fixed point."""
    th = math.tanh(bjz * m - xi)
    if not abs(m - th) < 1e-12:
        return f"|m - tanh(bJz m - xi)| = {abs(m - th):.3e} at m={m!r}"
    if not bjz * (1.0 - th * th) <= 1.0:
        return f"selected root m={m!r} is unstable at bJz={bjz!r}, xi={xi!r}"
    return None


def check_zero_field(rc: int, out: str, rows: int, jz: float):
    """Every row a stable root; a wrong row counts as the known defect only
    if it is that defect's own answer on that defect's input."""
    bad = cli_result(rc, out)
    if bad:
        return bad
    records = _records(out, "csv")
    if len(records) != rows:
        return f"{len(records)} rows, expected {rows}"
    known = []
    for i, r in enumerate(records):
        m, bjz = float(r["m"]), float(r["beta"]) * jz
        why = root_failure(m, bjz, 0.0)
        if why and not _solver_defect(m, bjz, 0.0):
            return f"row {i}: {why}"
        if why:
            known.append(f"row {i}: {why}")
    if known:
        return KnownDefect(f"{len(known)} rows near beta Jz = 1, first {known[0]}")
    return None


def check_verify(rc: int, out: str, checks: int = 8):
    bad = cli_result(rc, out)
    if bad:
        return bad
    last = out.rstrip("\n").rsplit("\n", 1)[-1]
    if last != f"{checks}/{checks} checks passed":
        return f"last line {last!r}"
    return None


# --- library: scalar API results ---------------------------------------------

def check_solve(rootset, beta: float, xi: float, jz: float):
    m = rootset.equilibrium.m
    why = root_failure(m, beta * jz, xi)
    return KnownDefect(why) if why and _solver_defect(m, beta * jz, xi) else why


def check_entropy(s: float, u: float, m: float, jz: float, k: float):
    if not _rel(s, entropy_ref(u, m, jz, k)) <= 1e-12:
        return f"S({u!r}, {m!r}) = {s!r} off the closed form"
    return None


def _entropy_c(u, m, jz: float, k: float):
    x = 2.0 * u / (jz * m)
    return k * m * cmath.atanh(x) + k * jz * m * m / (4.0 * u) * cmath.log(1.0 - x * x)


def check_gradient(grad, u: float, m: float, jz: float, k: float):
    """Complex-step derivatives of the closed form, exact to round-off."""
    h = 1e-30
    ref = (_entropy_c(complex(u, h), m, jz, k).imag / h,
           _entropy_c(u, complex(m, h), jz, k).imag / h)
    for got, want in zip(grad, ref):
        if not _rel(got, want) <= 1e-9:
            return f"gradient {grad!r} vs complex step {ref!r} at ({u!r}, {m!r})"
    return None


def check_hj_residual(r: float, u: float, m: float, jz: float):
    if not abs(r) <= 1e-10 * (1.0 + abs(math.atanh(2.0 * u / (jz * m)))):
        return f"HJ residual {r!r} at ({u!r}, {m!r})"
    return None


@functools.lru_cache(maxsize=4096)
def curve_ref(m: float, jz: float):
    """(beta, xi) at m by decimal, where the series seam does not arise.

    log(1 - m^2)/m^2 magnifies absolute error by 1/m^2; 80 digits leave
    more than 40 for any |m| > 1e-12.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        d = decimal.Decimal(m)
        y = d * d
        beta = -(1 - y).ln() / (decimal.Decimal(jz) * y)
        atanh = ((1 + d) / (1 - d)).ln() / 2
        xi = beta * decimal.Decimal(jz) * d - atanh
        return float(beta), float(xi)


def check_beta(beta: float, m: float, jz: float):
    want, _ = curve_ref(m, jz)
    if not _rel(beta, want) <= 1e-13:
        return f"beta({m!r}) = {beta!r}, reference {want!r}"
    return None


def check_xi(xi: float, m: float, jz: float):
    # The closed form just above the |m| = 0.02 seam cancels about four
    # digits (1e-12 relative measured at m = 0.03), hence 1e-10.
    _, want = curve_ref(m, jz)
    if not _rel(xi, want) <= 1e-10:
        return f"xi({m!r}) = {xi!r}, reference {want!r}"
    return None


def check_curve_point(cp, m: float, jz: float, k: float):
    if not abs(cp.beta * jz * m - cp.xi - math.atanh(m)) <= 1e-10:
        return f"curve_point({m!r}): beta Jz m - xi != atanh(m)"
    if not (_rel(cp.t, 1.0 / (k * cp.beta)) <= 1e-15 and _rel(cp.u, -jz * m * m / 2.0) <= 1e-15):
        return f"curve_point({m!r}): T or u off"
    return None


def log_partition_ref(m: float, beta: float, xi: float, jz: float, n: int) -> float:
    """Sum over configurations factorises over sites: log Xi in closed form."""
    return -0.5 * beta * n * jz * m * m + n * _log_2cosh(beta * jz * m - xi)


def check_evaluate(res, m: float, beta: float, xi: float, jz: float, n: int):
    want = log_partition_ref(m, beta, xi, jz, n)
    if not _rel(res.log_xi, want) <= 1e-12:
        return f"log Xi {res.log_xi!r} vs closed form {want!r} at m={m!r}, N={n}"
    return None
