"""Command line interface.

Subcommands: curve, surface, solve, exponents, verify, zero-field,
idealgas. Data emitters honor --format csv|json and --output; reports
print plain text. Exit codes: 0 success, 1 domain or check failure,
2 usage, size or output error. Identical flags always produce identical
bytes.
"""
from __future__ import annotations

import argparse
import sys

from . import criticality, verify
from .curve import sample_curve
from .model import ConjugateCoords, DomainError, ModelParams, SizeError
from .selfconsistent import solve, zero_field_branch
from .serialize import DIVERGENT, emit, render
from .surface import surface_grid


def _add_model_flags(sp):
    sp.add_argument("--jz", type=float, default=1.0, help="coupling product J*z (default 1)")
    sp.add_argument("--k", type=float, default=1.0, help="Boltzmann constant (default 1)")
    sp.add_argument("--n", type=int, default=12, help="oracle site count (default 12)")
    sp.add_argument("--seed", type=int, default=0, help="seed for randomized grids (default 0)")


def _add_output_flags(sp):
    sp.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="output format (default csv)")
    sp.add_argument("--output", default="-", help="output path, - for stdout (default -)")


def _params(args) -> ModelParams:
    return ModelParams(jz=args.jz, k=args.k, n=args.n)


def cmd_curve(args) -> int:
    p = _params(args)
    c = sample_curve(args.m_min, args.m_max, args.samples, args.spacing, p)
    header = ["m", "beta", "xi", "T", "h", "u", "s", "chi", "c"]
    columns = [c.m, c.beta, c.xi, c.t, c.h, c.u, c.s, c.chi, c.c]
    emit(render(args.format, header, columns, fill={"chi": DIVERGENT}), args.output)
    return 0


def cmd_surface(args) -> int:
    p = _params(args)
    g = surface_grid((args.u_min, args.u_max), (args.m_min, args.m_max),
                     args.samples, args.samples, p)
    emit(render(args.format, ["U", "M", "S", "valid"], [g.u, g.m, g.s, g.valid], fill={"S": None}),
         args.output)
    return 0


def cmd_solve(args) -> int:
    p = _params(args)
    rs = solve(ConjugateCoords(beta=args.beta, xi=args.xi), p)
    header = ["m", "stable", "psi", "selected"]
    rows = [[r.m, r.stable, r.psi, i == rs.selected] for i, r in enumerate(rs.roots)]
    emit(render(args.format, header, list(zip(*rows))), args.output)
    return 0


def cmd_exponents(args) -> int:
    p = _params(args)
    rep = criticality.fit_exponents(p, args.m_min, args.m_max, args.samples)
    header = ["name", "value", "target", "window_min", "window_max", "residual"]
    rows = [[name, f.value, f.target, f.window[0], f.window[1], f.residual]
            for name, f in (("delta", rep.delta), ("beta", rep.beta_exp), ("gamma", rep.gamma))]
    rows.append(["alpha", rep.alpha.max_deviation, rep.alpha.target,
                 rep.alpha.window[0], rep.alpha.window[1], 0.0])
    emit(render(args.format, header, list(zip(*rows))), args.output)
    return 0


def cmd_zero_field(args) -> int:
    p = _params(args)
    points = zero_field_branch(args.beta_min, args.beta_max, args.samples, p)
    header = ["beta", "m", "s", "lambda"]
    rows = [[pt.beta, pt.m, pt.s, pt.lam] for pt in points]
    emit(render(args.format, header, list(zip(*rows))), args.output)
    return 0


def _report(r) -> str:
    return f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"


def cmd_verify(args) -> int:
    p = _params(args)
    results = verify.run_all(p, seed=args.seed)
    lines = [_report(r) for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    emit("\n".join(lines) + "\n", args.output)
    return 0 if n_pass == len(results) else 1


def cmd_idealgas(args) -> int:
    r = verify.check_ideal_gas(args.seed)
    emit(_report(r) + "\n", args.output)
    return 0 if r.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingcusp",
        description="Mean-field Ising entropy surface, solution curves, "
                    "exact finite-N oracle, and critical exponents.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("curve", help="sample the parametric solution curve")
    _add_model_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--m-min", type=float, default=-0.95)
    sp.add_argument("--m-max", type=float, default=0.95)
    sp.add_argument("--samples", type=int, default=201)
    sp.add_argument("--spacing", choices=("linear", "log"), default="linear")
    sp.set_defaults(func=cmd_curve)

    sp = sub.add_parser("surface", help="tabulate the entropy over a (U, M) grid")
    _add_model_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--u-min", type=float, default=-1.0)
    sp.add_argument("--u-max", type=float, default=1.0)
    sp.add_argument("--m-min", type=float, default=-2.0)
    sp.add_argument("--m-max", type=float, default=2.0)
    sp.add_argument("--samples", type=int, default=33, help="points per axis")
    sp.set_defaults(func=cmd_surface)

    sp = sub.add_parser("solve", help="roots of the self-consistent equation")
    _add_model_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--xi", type=float, default=0.0)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("exponents", help="fit the four critical exponents")
    _add_model_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--m-min", type=float, default=1e-3)
    sp.add_argument("--m-max", type=float, default=1e-2)
    sp.add_argument("--samples", type=int, default=20)
    sp.set_defaults(func=cmd_exponents)

    sp = sub.add_parser("verify", help="run the full verification suite")
    _add_model_flags(sp)
    sp.add_argument("--output", default="-", help="report path, - for stdout")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("zero-field", help="h=0 solution branch over a beta range")
    _add_model_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--beta-min", type=float, default=0.5)
    sp.add_argument("--beta-max", type=float, default=2.0)
    sp.add_argument("--samples", type=int, default=61)
    sp.set_defaults(func=cmd_zero_field)

    sp = sub.add_parser("idealgas", help="ideal-gas residual check report")
    _add_model_flags(sp)
    sp.add_argument("--output", default="-", help="report path, - for stdout")
    sp.set_defaults(func=cmd_idealgas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    try:
        return args.func(args)
    except SizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
