"""The byte contract: identical flags print identical bytes under every numpy CPU dispatch.

Two children run tools/bytediff.py's command set (the README commands in
CSV and JSON, ROOT_COMMANDS and the demos) in process and print one
SHA-256 per output. One child uses numpy's default CPU dispatch; the other
disables every dispatch target numpy reports as found, which leaves numpy's
baseline kernels. Every printed value takes its logs, atanhs and powers
from libm, so the two must agree, and the default child must match
tests/cli_digests.txt. glibc's own CPU variants of libm are not switched
here (ROADMAP item 8).

One exception is masked: the numbers on verify's oracle-consistency and
entropy-offset lines. They are central differences of the oracle's vector
exp sums, amplified by 1/oracle.STEP, so they move with numpy's kernels
(ROADMAP item 2 replaces them with exact moments). Their words and
verdicts are compared, and every other byte exactly.

collect imports the package afresh and swaps sys.modules, which would
split DomainError's identity in this process, so it runs only in children.
"""
import functools
import hashlib
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "cli_digests.txt"

ORACLE_LINE = re.compile(r"^(?:PASS|FAIL) (?:oracle-consistency|entropy-offset):.*$", re.M)
NUMBER = re.compile(r"-?\d\.\d+e[-+]\d+")


def masked(text: str) -> str:
    """text with each number on an oracle-consistency or entropy-offset line as #."""
    return ORACLE_LINE.sub(lambda line: NUMBER.sub("#", line.group(0)), text)


def print_digests() -> None:
    """One `digest command` line per output of bytediff's command set; runs in a child."""
    sys.path.insert(0, str(ROOT / "tools"))
    import bytediff

    for command, (code, out) in bytediff.collect(ROOT, bytediff.commands()).items():
        digest = hashlib.sha256(f"{code}\n{masked(out)}".encode()).hexdigest()
        print(digest, command)


@functools.cache
def digests(disabled: str) -> str:
    """print_digests' output from a child with NPY_DISABLE_CPU_FEATURES = disabled."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    proc = subprocess.run([sys.executable, "-c", "import test_bytes; test_bytes.print_digests()"],
                          cwd=ROOT / "tests", env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_masked_keeps_words_and_verdicts():
    line = ("PASS entropy-offset: offset - kN log2 = 2.916e-10 at m=0.5, "
            "spread 2.460e-09 over m grid\nPASS ideal-gas: max residual 8.882e-16\n")
    assert masked(line) == ("PASS entropy-offset: offset - kN log2 = # at m=0.5, "
                            "spread # over m grid\nPASS ideal-gas: max residual 8.882e-16\n")


def test_bytes_do_not_depend_on_numpy_cpu_dispatch():
    # on a CPU where numpy finds no dispatch target, both children run the
    # baseline kernels and agree trivially
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    found = " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
    default, baseline = digests("").splitlines(), digests(found).splitlines()
    assert len(default) == len(baseline)
    moved = [b.split(" ", 1)[1] for a, b in zip(default, baseline) if a != b]
    assert not moved, f"bytes differ with NPY_DISABLE_CPU_FEATURES={found!r}: {moved}"


def test_bytes_match_committed_digests():
    # a change that moves bytes on purpose lists the moved cells
    # (tools/bytediff.py REV) and replaces the file with the text below
    expected, actual = DIGESTS.read_text(), digests("")
    assert actual == expected, f"regenerated {DIGESTS.name}:\n{actual}"
