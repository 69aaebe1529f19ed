"""End-to-end CLI behavior: formats, determinism, exit codes."""
import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingcusp.cli import main

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
    ["exponents", "--k", "inf"],
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


def test_curve_just_off_origin(tmp_path):
    code, data = run_to_file(tmp_path, "c.csv", ["curve", "--m-min=-1e-6", "--m-max=1e-6",
                                                 "--samples", "4"])
    assert code == 0
    assert len(data.decode().splitlines()) == 5


def test_idealgas_report(tmp_path):
    code, data = run_to_file(tmp_path, "g.txt", ["idealgas"])
    assert code == 0
    assert data.decode().startswith("PASS ideal-gas")


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "isingcusp", "curve", "--samples", "3",
         "--m-min", "-0.5", "--m-max", "0.5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "m,beta,xi,T,h,u,s,chi,c"


NUMBER = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "1e308", "-1e308", "1e-300", "5e-324",
                     "-5e-324", "0", "-1", "0.5", "1.2", "2", "1e-12"]),
    st.floats().map(repr))
SAMPLES = st.integers(-2, 64)
FORMAT = st.sampled_from(["csv", "json"])
MODEL_FLAGS = {"--jz": NUMBER, "--k": NUMBER, "--n": st.integers(-2, 24),
               "--seed": st.integers(-3, 2 ** 32)}
COMMAND_FLAGS = {
    "curve": {"--m-min": NUMBER, "--m-max": NUMBER, "--samples": SAMPLES,
              "--spacing": st.sampled_from(["linear", "log"]), "--format": FORMAT},
    "surface": {"--u-min": NUMBER, "--u-max": NUMBER, "--m-min": NUMBER,
                "--m-max": NUMBER, "--samples": SAMPLES, "--format": FORMAT},
    "solve": {"--beta": NUMBER, "--xi": NUMBER, "--format": FORMAT},
    "exponents": {"--m-min": NUMBER, "--m-max": NUMBER, "--samples": SAMPLES,
                  "--format": FORMAT},
    "verify": {},
    "zero-field": {"--beta-min": NUMBER, "--beta-max": NUMBER, "--samples": SAMPLES,
                   "--format": FORMAT},
    "idealgas": {},
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    for flag, values in {**MODEL_FLAGS, **COMMAND_FLAGS[command]}.items():
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
