"""Compare the CLI's output at a git revision with the working tree, cell by cell.

    python3 tools/bytediff.py REV [ARGV ...]

Runs the README command set (each data command in CSV and in JSON), the
`solve`, `zero-field`, `verify`, `idealgas`, `exponents` and log-spaced
`curve` lines of ROOT_COMMANDS, the scripts in demos/ and each extra ARGV,
one quoted command line such as "surface --samples 301" (@FILE reads one
command line per line). Each runs in this process, through
`isingcusp.cli.main` or as a script: once with REV's src/ and demos/,
extracted by `git archive` into a temporary directory, and once with the
working tree's.

Prints one tab-separated line per differing cell: command, row, column,
old text, new text, and the distance in ulps when both cells read as
finite doubles. A row is a CSV or JSON record counted from 0, or a line
of a text report, whose columns are its whitespace-separated words. The
exit code of each command counts as the cell (exit, exit). Exits 0 when
nothing differs and 1 when a cell does. Stdlib only.

Every printed value takes its logs, atanhs and powers from libm, not from
numpy's vector kernels, which numpy picks by CPU at run time. The one
exception is the numbers on `verify`'s oracle-consistency and
entropy-offset lines: they are finite differences of the oracle's vector
exp sums, amplified by 1/STEP, and move with numpy's kernels. libm can
round a last digit differently too, since glibc picks FMA variants of
some functions by CPU, so compare two revisions on one machine.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import pathlib
import runpy
import shlex
import struct
import subprocess
import sys
import tarfile
import tempfile
from itertools import zip_longest

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the subcommands that take --format
DATA_COMMANDS = {"curve", "surface", "solve", "exponents", "zero-field"}
# one command per branch of the root finder, whose CSV %.17g shows every bit of
# m and psi, verify runs whose oracle check sums a binomial table at small N or
# enumerates in one or two blocks, an ideal-gas draw, exponent fits on each
# side of the series seam, and a log-spaced curve, which no README command
# samples
ROOT_COMMANDS = [
    "solve --beta 0.5",                                        # one root
    "solve --beta 1.2 --xi 0.05",                              # three roots
    "solve --beta 1.966230595308388 --xi -0.508743070524412",  # two close roots
    "solve --beta 1.0000000001",                               # beta Jz = 1 + 1e-10
    "solve --beta 3 --xi 2.9",                                 # m+ clamped to 1
    "solve --jz 2.5 --beta 0.6 --xi -0.2",                     # three roots at Jz = 2.5
    "solve --beta 0.5 --xi 2",                                 # inflection beyond m = 1
    "solve --beta 1.5 --xi 1e-12",                             # a tiny middle root
    "solve --beta 1.0000000000000002",                         # beta Jz = 1 + eps
    "solve --beta 1 --xi 1",                                   # beta Jz = 1, one root
    "solve --beta 1.0000005000003334 --xi 1.6666680000010714e-10",  # the curve point m = 1e-3
    "solve --beta 1 --xi 5e-324 --jz 2",                       # the smallest field
    "zero-field --beta-min 0.999999 --beta-max 1.000001 --samples 201",  # the threshold
    "zero-field --jz 0.37 --beta-min 0.5 --beta-max 50 --samples 3001",  # beta Jz up to 18.5
    "zero-field --jz 1e-300 --beta-min 1e299 --beta-max 1e301 --samples 50",  # tiny Jz
    "zero-field --k 1e300 --beta-min 0.5 --beta-max 3 --samples 11",     # huge k
    "zero-field --beta-min 0.5 --beta-max 40 --samples 5",               # m rounds to 1
    "zero-field --jz 10 --beta-min 0.5 --beta-max 1e308 --samples 2",    # beta Jz overflows
    "verify --n 1",                                            # j = 0 and its mirror
    "verify --n 2",                                            # the middle j = 1 pairs with itself
    "verify --n 20 --jz 2.5 --k 0.5 --seed 3",                 # N = 20 at Jz 2.5, k 0.5
    "verify --n 16",                                           # 2^16: exactly one block
    "verify --n 17",                                           # 2^17: two blocks
    "idealgas --seed 3",                                       # draws at a nonzero seed
    "exponents --m-min 1e-4 --m-max 1e-3",                     # the fit below the m = 0.02 seam
    "exponents --m-min 0.05 --m-max 0.5",                      # and above it
    "curve --spacing log --m-min 1e-4 --m-max 0.9 --samples 101",  # a log grid over the seam
]


def readme_commands() -> list[list[str]]:
    """The README's `isingcusp ...` lines, data commands also with --format json."""
    argvs = []
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("isingcusp "):
            argv = shlex.split(line)[1:]
            argvs.append(argv)
            if argv[0] in DATA_COMMANDS:
                argvs.append(argv + ["--format", "json"])
    return argvs


def commands(extra=()) -> list[list[str]]:
    """The README commands, ROOT_COMMANDS and each extra command line, as argvs."""
    return readme_commands() + [shlex.split(line) for line in [*ROOT_COMMANDS, *extra]
                                if line.strip()]


def _capture(run) -> tuple[str, str]:
    """(exit code, stdout) of run(); an exception is its own exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run()
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failing side is reported, not fatal
            code = f"{type(exc).__name__}: {exc}"
    return str(code), out.getvalue()


def collect(tree: pathlib.Path, argvs) -> dict:
    """Each command's and demo's (exit code, stdout) with tree's package."""
    for name in [n for n in sys.modules if n == "isingcusp" or n.startswith("isingcusp.")]:
        del sys.modules[name]
    src = str(tree / "src")
    sys.path.insert(0, src)
    try:
        cli = importlib.import_module("isingcusp.cli")
        outputs = {shlex.join(argv): _capture(lambda: cli.main(argv)) for argv in argvs}
        for demo in sorted((tree / "demos").glob("*.py")):
            outputs[f"demos/{demo.name}"] = _capture(
                lambda: runpy.run_path(str(demo), run_name="__main__") and 0)
    finally:
        sys.path.remove(src)
    return outputs


def _rows(text: str) -> list[list[tuple]]:
    """(column, cell text) pairs per row: JSON records, CSV rows or text lines."""
    try:
        records = json.loads(text)
    except ValueError:
        records = None
    if isinstance(records, list) and all(isinstance(r, dict) for r in records):
        return [[(k, json.dumps(v)) for k, v in r.items()] for r in records]
    lines = text.splitlines()
    if lines and "," in lines[0] and all(ln.count(",") == lines[0].count(",") for ln in lines):
        header = lines[0].split(",")
        return [list(zip(header, ln.split(","))) for ln in lines[1:]]
    return [list(enumerate(ln.split())) for ln in lines]


def _ordered(x: float) -> int:
    # doubles as integers in the order of their values, adjacent ones 1 apart
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def ulps(old: str, new: str) -> str:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return ""
    if not (math.isfinite(a) and math.isfinite(b)):
        return ""
    return str(abs(_ordered(a) - _ordered(b)))


def diff(command: str, old: tuple, new: tuple):
    """Yield (command, row, column, old, new, ulps) for each differing cell."""
    if old[0] != new[0]:
        yield command, "exit", "exit", old[0], new[0], ""
    for row, (a, b) in enumerate(zip_longest(_rows(old[1]), _rows(new[1]), fillvalue=[])):
        a, b = dict(a), dict(b)
        for column in dict.fromkeys([*a, *b]):
            x, y = a.get(column, ""), b.get(column, "")
            if x != y:
                yield command, row, column, x, y, ulps(x, y)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     fromfile_prefix_chars="@")
    parser.add_argument("rev", help="git revision to compare the working tree with")
    parser.add_argument("argv", nargs="*", help="extra command line, one per argument")
    args = parser.parse_args(argv)
    argvs = commands(args.argv)
    archive = subprocess.run(["git", "archive", "--format=tar", args.rev, "src", "demos"],
                             cwd=ROOT, capture_output=True)
    if archive.returncode:
        parser.error(archive.stderr.decode().strip())
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        old = collect(pathlib.Path(tmp), argvs)
    new = collect(ROOT, argvs)
    n_cells = 0
    for command in dict.fromkeys([*old, *new]):
        for cell in diff(command, old.get(command, ("", "")), new.get(command, ("", ""))):
            print("\t".join(map(str, cell)))
            n_cells += 1
    print(f"{len(new)} outputs compared with {args.rev}: {n_cells} cells differ", file=sys.stderr)
    return 1 if n_cells else 0


if __name__ == "__main__":
    sys.exit(main())
