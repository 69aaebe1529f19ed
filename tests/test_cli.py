"""End-to-end CLI behavior: formats, determinism, exit codes."""
import contextlib
import importlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingcusp.cli import build_parser, main

REF_SURFACE_S = "-0.126335769607853"   # %g strips trailing zeros


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out.read_bytes()


def test_curve_default_grid(tmp_path):
    code, data = run_to_file(tmp_path, "c.csv", ["curve"])
    assert code == 0
    lines = data.decode().splitlines()
    assert lines[0] == "m,beta,xi,T,h,u,s,chi,c"
    assert len(lines) == 202
    # the middle sample is exactly m = 0: finite limits, divergent chi
    assert lines[101] == "0,1,0,1,0,0,0,divergent,1"
    assert b"\r" not in data


def test_curve_csv_json_carry_same_numbers(tmp_path):
    _, csv_data = run_to_file(tmp_path, "c.csv",
                              ["curve", "--samples", "11"])
    _, json_data = run_to_file(tmp_path, "c.json",
                               ["curve", "--samples", "11", "--format", "json"])
    csv_lines = csv_data.decode().splitlines()
    records = json.loads(json_data)
    assert len(records) == len(csv_lines) - 1
    header = csv_lines[0].split(",")
    for line, rec in zip(csv_lines[1:], records):
        for key, cell in zip(header, line.split(",")):
            if cell == "divergent":
                assert rec[key] == "divergent"
            else:
                assert float(cell) == rec[key]


def test_identical_flags_identical_bytes(tmp_path):
    argv = ["curve", "--m-min", "-0.9", "--m-max", "0.9", "--samples", "101"]
    _, a = run_to_file(tmp_path, "a.csv", argv)
    _, b = run_to_file(tmp_path, "b.csv", argv)
    assert a == b
    argv2 = ["surface", "--samples", "17"]
    _, c = run_to_file(tmp_path, "c.csv", argv2)
    _, d = run_to_file(tmp_path, "d.csv", argv2)
    assert c == d


def test_surface_grid_output(tmp_path):
    code, data = run_to_file(tmp_path, "s.csv", ["surface"])
    assert code == 0
    lines = data.decode().splitlines()
    assert lines[0] == "U,M,S,valid"
    assert len(lines) == 1 + 33 * 33
    rows = [ln.split(",") for ln in lines[1:]]
    ref = [r for r in rows if r[0] == "-0.125" and r[1] == "1"]
    assert len(ref) == 1
    assert ref[0][2] == REF_SURFACE_S and ref[0][3] == "1"
    # invalid cells leave S empty
    masked = [r for r in rows if r[3] == "0"]
    assert masked and all(r[2] == "" for r in masked)
    # spin flip symmetry holds bitwise: (U, -M) carries the same S text
    by_um = {(r[0], r[1]): r[2] for r in rows}
    for (u, m), s in by_um.items():
        flipped = m[1:] if m.startswith("-") else "-" + m
        if (u, flipped) in by_um and m != "0":
            assert by_um[(u, flipped)] == s


def test_solve_output(tmp_path):
    code, data = run_to_file(tmp_path, "r.json",
                             ["solve", "--beta", "1.2", "--format", "json"])
    assert code == 0
    roots = json.loads(data)
    assert len(roots) == 3
    assert [r["stable"] for r in sorted(roots, key=lambda r: r["m"])] == [1, 0, 1]
    chosen = [r for r in roots if r["selected"] == 1]
    assert len(chosen) == 1
    assert chosen[0]["m"] == pytest.approx(0.65856966040575405, rel=1e-12)


def test_solve_requires_beta():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 2


def test_exponents_output(tmp_path):
    code, data = run_to_file(tmp_path, "e.json",
                             ["exponents", "--format", "json"])
    assert code == 0
    rows = {r["name"]: r for r in json.loads(data)}
    assert set(rows) == {"delta", "beta", "gamma", "alpha"}
    assert rows["delta"]["value"] == pytest.approx(3.0, abs=0.01)
    assert rows["beta"]["value"] == pytest.approx(0.5, abs=0.005)
    assert rows["gamma"]["value"] == pytest.approx(1.0, abs=0.02)
    assert rows["alpha"]["value"] < 1e-3
    assert rows["delta"]["window_min"] == 1e-3
    assert rows["delta"]["window_max"] == 1e-2


@pytest.mark.parametrize("argv", [["exponents"],
                                  ["exponents", "--m-min", "1e-4", "--m-max", "1e-3"]],
                         ids=["default", "1e-4"])
def test_exponents_bytes_do_not_depend_on_the_blas_kernel(argv):
    # OPENBLAS_CORETYPE makes numpy's OpenBLAS take one CPU's kernels; the
    # fit calls no BLAS, so each child prints the default child's bytes.
    # Where numpy's BLAS is not OpenBLAS the variable is ignored and the
    # three runs agree trivially.
    def run(coretype):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        proc = subprocess.run([sys.executable, "-m", "isingcusp", *argv], capture_output=True,
                              env=env, check=True)
        return proc.stdout

    default = run(None)
    for coretype in ("Haswell", "Prescott"):
        assert run(coretype) == default, coretype


def test_zero_field_output(tmp_path):
    code, data = run_to_file(tmp_path, "z.csv", ["zero-field"])
    assert code == 0
    lines = data.decode().splitlines()
    assert lines[0] == "beta,m,s,lambda"
    assert len(lines) == 62
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    for beta, m, s, lam in rows:
        assert lam == pytest.approx(beta, rel=1e-15)   # k = 1
        if beta <= 1.0:
            assert m == 0.0 and s == 0.0
        else:
            assert m > 0.0 and lam > 1.0


def test_verify_all_checks_pass(tmp_path):
    code, data = run_to_file(tmp_path, "v.txt", ["verify"])
    assert code == 0
    text = data.decode()
    assert "8/8 checks passed" in text
    assert "FAIL" not in text


def test_verify_seed_reports_reproducible(tmp_path):
    _, a = run_to_file(tmp_path, "v1.txt", ["verify", "--seed", "7"])
    _, b = run_to_file(tmp_path, "v2.txt", ["verify", "--seed", "7"])
    assert a == b


def test_verify_oversized_n_is_a_size_error(capsys):
    assert main(["verify", "--n", "25"]) == 2


@pytest.mark.parametrize("argv", [
    ["surface", "--samples", "2049"],            # 2049^2 cells, just over MAX_CELLS
    ["surface", "--samples", "1000000"],
    ["curve", "--samples", str(10 ** 12)],
    ["exponents", "--samples", str(10 ** 12)],
    ["zero-field", "--samples", str(10 ** 12)],
])
def test_oversized_table_is_a_size_error(argv, capsys):
    # the cap is checked before any column is allocated
    assert main(argv) == 2
    assert "exceed the table cap" in capsys.readouterr().err


def test_domain_error_exit_code(capsys):
    assert main(["curve", "--m-min", "-1.5", "--m-max", "0.5"]) == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--beta", "nan"],
    ["solve", "--beta", "inf"],
    ["solve", "--beta", "1.2", "--xi=-inf"],
    ["curve", "--jz", "nan"],
    ["surface", "--u-min", "nan"],
    ["surface", "--k", "inf"],
    ["zero-field", "--beta-max", "inf"],
    ["solve", "--beta", "1e308", "--jz", "10"],
    ["surface", "--m-min=-1e308", "--m-max=1e308", "--samples", "2"],   # M spacing overflows
    ["curve", "--k", "1e308"],                                        # C overflows
    ["zero-field", "--k", "1e308"],                                   # lambda = k beta overflows
    ["curve", "--jz", "5e-324"],                                      # 1/Jz overflows
])
def test_non_finite_input_is_a_domain_error(argv):
    proc = subprocess.run([sys.executable, "-m", "isingcusp", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "nan" not in proc.stdout


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", "-1"],
    ["idealgas", "--seed", "-1"],
    ["curve", "--output", "{tmp}/missing/x.csv"],
])
def test_bad_seed_or_output_is_a_usage_error(tmp_path, argv):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "isingcusp", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


@pytest.mark.parametrize("argv", [["verify", "--n", "4"], ["idealgas"]])
def test_randomized_checks_leave_numpy_random_out(argv):
    # their draws come from stdlib random, whose stream is fixed per seed
    script = ("import sys; from isingcusp.cli import main; code = main(sys.argv[1:]); "
              "print(code, 'numpy.random' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
    assert proc.stderr.strip() == "0 False"


def test_curve_just_off_origin(tmp_path):
    code, data = run_to_file(tmp_path, "c.csv", ["curve", "--m-min=-1e-6", "--m-max=1e-6",
                                                 "--samples", "4"])
    assert code == 0
    assert len(data.decode().splitlines()) == 5


def test_idealgas_report(tmp_path):
    code, data = run_to_file(tmp_path, "g.txt", ["idealgas"])
    assert code == 0
    assert data.decode().startswith("PASS ideal-gas")


@pytest.mark.parametrize("argv", [
    ["curve", "--n", "5"],
    ["idealgas", "--jz", "2"],
    ["exponents", "--k", "2"],
    ["solve", "--beta", "1.2", "--k", "2"],
])
def test_flag_the_subcommand_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_script_entry_point():
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    # the [project.scripts] line; tomllib needs Python 3.11, the package 3.10
    module, attr = re.search(r'^isingcusp = "([\w.]+):(\w+)"$', pyproject.read_text(), re.M).groups()
    assert getattr(importlib.import_module(module), attr) is \
        importlib.import_module("isingcusp.__main__").entry
    # what an installed console script does: import the target, exit with its code
    script = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run(
        [sys.executable, "-c", script, "curve", "--samples", "3",
         "--m-min", "-0.5", "--m-max", "0.5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "m,beta,xi,T,h,u,s,chi,c"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["solve", "--beta", "1.2"], ["verify", "--n", "4"],
                                  ["curve", "--samples", "20001"], ["--help"],
                                  ["solve", "--help"]],
                         ids=["solve", "verify", "curve-20001-rows", "help", "solve-help"])
def test_closed_stdout_exits_2_with_one_error_line(argv, unbuffered):
    # buffered, a small output meets the closed pipe only when stdout is
    # flushed; unbuffered, or past the buffer's size, the write itself fails.
    # argparse prints --help before main runs, and drops a failed write
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)  # a pipe with no reader: every write fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "isingcusp", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error:")


NUMBER = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "1e308", "-1e308", "1e-300", "5e-324",
                     "-5e-324", "0", "-1", "0.5", "1.2", "2", "1e-12"]),
    st.floats().map(repr))
SAMPLES = st.integers(-2, 64)
FORMAT = st.sampled_from(["csv", "json"])
SEED = st.integers(-3, 2 ** 32)
# every flag each subcommand takes, but --output
COMMAND_FLAGS = {
    "curve": {"--jz": NUMBER, "--k": NUMBER, "--m-min": NUMBER, "--m-max": NUMBER,
              "--samples": SAMPLES, "--spacing": st.sampled_from(["linear", "log"]),
              "--format": FORMAT},
    "surface": {"--jz": NUMBER, "--k": NUMBER, "--u-min": NUMBER, "--u-max": NUMBER,
                "--m-min": NUMBER, "--m-max": NUMBER, "--samples": SAMPLES, "--format": FORMAT},
    "solve": {"--jz": NUMBER, "--beta": NUMBER, "--xi": NUMBER, "--format": FORMAT},
    "exponents": {"--m-min": NUMBER, "--m-max": NUMBER, "--samples": SAMPLES,
                  "--format": FORMAT},
    "verify": {"--jz": NUMBER, "--k": NUMBER, "--n": st.integers(-2, 24), "--seed": SEED},
    "zero-field": {"--jz": NUMBER, "--k": NUMBER, "--beta-min": NUMBER, "--beta-max": NUMBER,
                   "--samples": SAMPLES, "--format": FORMAT},
    "idealgas": {"--seed": SEED},
}


def test_subcommands_take_only_the_flags_they_read():
    subparsers = next(a for a in build_parser()._actions if a.choices)
    assert sorted(subparsers.choices) == sorted(COMMAND_FLAGS)
    total = 0
    for name, sp in subparsers.choices.items():
        flags = {a.option_strings[0] for a in sp._actions if a.option_strings} - {"-h"}
        assert flags == {*COMMAND_FLAGS[name], "--output"}, name
        total += len(flags)
    assert total == 41


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    for flag, values in COMMAND_FLAGS[command].items():
        value = draw(st.none() | values)
        if value is not None:
            # --flag=value keeps argparse from reading -1e308 as an option
            argv.append(f"{flag}={value}")
    return argv


@settings(max_examples=200, deadline=None)
@given(cli_argv())
@example(["solve", "--beta=1e308", "--jz=10"])
@example(["verify", "--seed=-1"])
@example(["idealgas", "--seed=-1"])
@example(["curve", "--output=" + os.path.join(os.devnull, "x")])
@example(["solve", "--beta=1e308"])
@example(["surface", "--m-max=1e308", "--samples=3"])
@example(["solve", "--jz=1e-300", "--beta=2.7810902513981813e-242"])  # beta Jz underflows to 0
@example(["zero-field", "--beta-max=1e308"])
@example(["solve", "--jz=30714922045", "--beta=236873352279", "--xi=7.081226079067747e16"])
def test_fuzz_main_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    # stderr carries one error: line at most, never a numpy RuntimeWarning
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert "nan" not in out.getvalue().lower()
