"""Deterministic text output: float formatting, sentinels, line endings."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingcusp import DomainError
from isingcusp.serialize import DIVERGENT, render

NAN = math.nan


def test_float_round_trip():
    for x in (0.1, 1.1507282898071237, -0.13081203594113696, 1e-300, 3.0):
        assert float(render("csv", ["x"], [[x]]).splitlines()[1]) == x
        assert json.loads(render("json", ["x"], [[x]])) == [{"x": x}]


def test_negative_zero_normalized():
    assert render("csv", ["x"], [[-0.0, 0.0]]) == "x\n0\n0\n"
    assert json.loads(render("json", ["x"], [np.array([-0.0])]))[0]["x"] == 0.0
    assert '"x": 0.0' in render("json", ["x"], [[-0.0]])


def test_csv_shape():
    columns = [[1.0], [NAN], ["x"], [True], [7]]
    out = render("csv", ["a", "b", "c", "d", "e"], columns, fill={"b": None})
    assert out == "a,b,c,d,e\n1,,x,1,7\n"


def test_csv_uses_lf_only():
    out = render("csv", ["a"], [[1.0, 2.0]])
    assert "\r" not in out
    assert out.endswith("\n")


def test_json_records():
    out = render("json", ["m", "chi"], [[0.5, 0.1], [NAN, 2.0]], fill={"chi": None})
    data = json.loads(out)
    assert data == [{"m": 0.5, "chi": None}, {"m": 0.1, "chi": 2.0}]
    assert out.endswith("\n")


def test_render_dispatch():
    assert render("csv", ["a"], [[1.0]]).startswith("a\n")
    assert json.loads(render("json", ["a"], [[1.0]])) == [{"a": 1.0}]
    with pytest.raises(ValueError):
        render("xml", ["a"], [[1.0]])


def test_divergent_sentinel_exported():
    assert DIVERGENT == "divergent"


def test_determinism():
    columns = [[0.1 * i for i in range(50)], [-0.0] * 50, [NAN] * 50]
    a = render("csv", ["x", "y", "z"], columns, fill={"z": None})
    b = render("csv", ["x", "y", "z"], columns, fill={"z": None})
    assert a == b


# The row-at-a-time emitters the column renderer replaced, kept here as the
# byte reference: one cell at a time, and json.dumps for JSON.

def _row_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    return "%.17g" % (0.0 if v == 0 else v)


def _row_csv(header, rows) -> str:
    return "\n".join([",".join(header)] + [",".join(_row_cell(v) for v in row) for row in rows]) + "\n"


def _row_json(header, rows) -> str:
    def jsonable(v):
        if isinstance(v, bool):
            return 1 if v else 0
        if isinstance(v, float):
            return 0.0 if v == 0 else v
        return v
    return json.dumps([{k: jsonable(v) for k, v in zip(header, row)} for row in rows], indent=2) + "\n"


def test_matches_row_at_a_time_emitters():
    rng = np.random.default_rng(5)
    n = 200
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[:4] = (-0.0, 0.0, 1.0, 1e308)
    masked = np.where(rng.random(n) < 0.3, NAN, rng.standard_normal(n))
    chi = np.where(rng.random(n) < 0.1, NAN, rng.random(n))
    header = ["name", "x", "s", "chi", "valid", "count"]
    names = [f"r{i}" for i in range(n)]
    valid = rng.random(n) < 0.5
    counts = rng.integers(-5, 5, n)
    columns = [names, floats, masked, chi, valid, counts]
    rows = [[name, float(x), None if math.isnan(s) else float(s),
             DIVERGENT if math.isnan(c) else float(c), bool(v), int(k)]
            for name, x, s, c, v, k in zip(names, floats, masked, chi, valid, counts)]
    fill = {"s": None, "chi": DIVERGENT}
    assert render("csv", header, columns, fill) == _row_csv(header, rows)
    assert render("json", header, columns, fill) == _row_json(header, rows)
    assert render("json", ["a"], [[]]) == _row_json(["a"], [])
    assert render("csv", ["a"], [[]]) == _row_csv(["a"], [])


def test_non_finite_value_is_a_domain_error():
    for fmt in ("csv", "json"):
        with pytest.raises(DomainError):
            render(fmt, ["a"], [[1.0, math.inf]], fill={"a": None})
        with pytest.raises(DomainError):
            render(fmt, ["a"], [[1.0, NAN]])   # NaN is a mask only where a fill is given


# A small pool, so that drawn columns repeat values and take the
# format-each-distinct-value-once path as well as the direct one.
POOL = [0.0, -0.0, 1.0, -2.5, 0.1, 1e-300, -1e300, 1.0000000000000002, 7.0]


@st.composite
def pooled_tables(draw):
    n = draw(st.integers(0, 12))

    def column(values):
        return st.lists(values, min_size=n, max_size=n)
    distinct = st.floats(allow_nan=False, allow_infinity=False)
    columns = {
        "pooled": draw(column(st.sampled_from(POOL))),
        "s": draw(column(st.sampled_from(POOL + [NAN]))),
        "chi": draw(column(st.sampled_from(POOL + [NAN]))),
        "same": [draw(st.sampled_from(POOL + [NAN]))] * n,
        "distinct": draw(st.lists(distinct, min_size=n, max_size=n, unique=True)),
        "name": draw(column(st.sampled_from(["a", "b,c", 'q"uote', "divergent"]))),
        "valid": draw(column(st.booleans())),
        "count": draw(column(st.integers(-3, 3))),
    }
    return draw(st.permutations(list(columns))), columns


@settings(max_examples=300, deadline=None)
@given(pooled_tables())
def test_pooled_columns_match_row_at_a_time_emitters(table):
    header, columns = table
    fill = {"s": None, "chi": DIVERGENT, "same": None}

    def cell(name, v):
        return fill[name] if name in fill and math.isnan(v) else v
    rows = [[cell(name, v) for name, v in zip(header, row)]
            for row in zip(*(columns[name] for name in header))]
    floats = ("pooled", "s", "chi", "same", "distinct")
    cols = [np.asarray(columns[name], dtype=float) if name in floats else columns[name]
            for name in header]
    for fmt, reference in (("csv", _row_csv), ("json", _row_json)):
        assert render(fmt, header, cols, fill) == reference(header, rows)
