"""Bit-stable CSV and JSON emitters over columns.

A table is a header and one column per name: a float, integer or bool
array, or a sequence of strings. Every row has the same %-template, and
the template repeated once per row formats every cell in one operation.
CSV floats go out with 17 significant digits so a parse round-trip is
lossless; JSON floats use the shortest round-trip repr, as `json.dumps`
does. Negative zero is normalized away so reruns diff clean. NaN marks
a masked cell in a column given a fill: an empty CSV field or a JSON
null, or the fill string (the divergent susceptibility at m = 0 is the
literal sentinel `divergent`). Any other non-finite float is a
DomainError, so neither nan nor inf is ever written. A float column
that repeats a value or holds a masked cell is formatted as text: each
distinct value once, then each cell takes its value's text, the fill
for a masked one. Other float columns go to the template as floats.
"""
from __future__ import annotations

import json
import sys
from itertools import chain

import numpy as np

from .model import DomainError

DIVERGENT = "divergent"

# Cell spec of a present float: 17 significant digits in CSV, repr in JSON.
_FLOAT_SPEC = {"csv": "%.17g", "json": "%r"}


def _fill_text(fmt: str, fill) -> str:
    if fill is None:
        return "" if fmt == "csv" else "null"
    return fill if fmt == "csv" else json.dumps(fill)


def _prepare(fmt: str, name: str, column, fill):
    """(cell values as Python objects, their %-spec).

    fill maps the names of maskable columns to their fill, as in render.
    """
    col = np.asarray(column)
    kind = col.dtype.kind
    if kind == "f":
        col = col + 0.0  # -0.0 + 0.0 is +0.0; NaN stays NaN
        masked = bool(np.isnan(col).any())
        if np.isinf(col).any() or masked and name not in fill:
            raise DomainError(f"column {name} holds a value that is not a finite double")
        # NaNs collapse into one distinct value, sorted last
        distinct, inverse = np.unique(col, return_inverse=True)
        if len(distinct) == len(col) and not masked:
            return col.tolist(), _FLOAT_SPEC[fmt]
        # format each distinct value once, in one % operation, and give
        # every cell the text of its value
        finite = distinct[:len(distinct) - masked].tolist()
        text = ((_FLOAT_SPEC[fmt] + "\n") * len(finite) % tuple(finite)).split("\n")
        text[-1] = _fill_text(fmt, fill.get(name))  # only a masked cell points past finite
        return np.array(text, dtype=object)[inverse].tolist(), "%s"
    if kind in "biu":
        return col.tolist(), "%d"
    values = [str(v) for v in column]
    if fmt == "json":
        values = [json.dumps(v) for v in values]
    return values, "%s"


def render(fmt: str, header, columns, fill=None) -> str:
    """One CSV line or one JSON record per row of equal-length columns.

    fill maps the name of each column that may hold masked (NaN) cells
    to their text, or to None for an empty CSV field and a JSON null.
    """
    if fmt not in _FLOAT_SPEC:
        raise ValueError(f"unknown format {fmt!r}")
    fill = fill or {}
    values, specs = zip(*(_prepare(fmt, name, column, fill)
                          for name, column in zip(header, columns)))
    n_rows = len(values[0])
    if fmt == "csv":
        head, sep, tail = ",".join(header) + "\n", "", ""
        template = ",".join(specs) + "\n"
    else:
        if not n_rows:
            return "[]\n"
        head, sep, tail = "[\n", ",\n", "\n]\n"
        template = "  {\n" + ",\n".join("    %s: " % json.dumps(name) + spec
                                         for name, spec in zip(header, specs)) + "\n  }"
    # the row templates joined are one format string for all cells, row-major
    return head + sep.join([template] * n_rows) % tuple(chain.from_iterable(zip(*values))) + tail


def emit(text: str, output: str) -> None:
    """Write to a path, or to stdout when output is '-'."""
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
