"""Bit-stable CSV and JSON emitters over columns.

A table is a header and one column per name: a float, integer or bool
array, or a sequence of strings. Each row has one %-template, and the
templates of all rows, joined, format every cell in one operation. CSV
floats go out with 17 significant digits so a parse round-trip is
lossless; JSON floats use the shortest round-trip repr, as `json.dumps`
does. Negative zero is normalized away so reruns diff clean. NaN marks
a masked cell in a column given a fill: an empty CSV field or a JSON
null, or the fill string (the divergent susceptibility at m = 0 is the
literal sentinel `divergent`). Any other non-finite float is a
DomainError, so neither nan nor inf is ever written.
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


def _masked_spec(fmt: str, fill) -> str:
    if fill is None:
        text = "" if fmt == "csv" else "null"
    else:
        text = fill if fmt == "csv" else json.dumps(fill)
    # %.0s consumes the cell's NaN and prints nothing of it
    return text + "%.0s"


def _prepare(fmt: str, name: str, column, maskable: bool):
    """(values as Python objects, spec of a present cell, NaN mask or None)."""
    col = np.asarray(column)
    kind = col.dtype.kind
    if kind == "f":
        col = col + 0.0  # -0.0 + 0.0 is +0.0; NaN stays NaN
        mask = np.isnan(col)
        if np.isinf(col).any() or mask.any() and not maskable:
            raise DomainError(f"column {name} holds a value that is not a finite double")
        return col.tolist(), _FLOAT_SPEC[fmt], mask if mask.any() else None
    if kind in "biu":
        return col.tolist(), "%d", None
    values = [str(v) for v in column]
    if fmt == "json":
        values = [json.dumps(v) for v in values]
    return values, "%s", None


def render(fmt: str, header, columns, fill=None) -> str:
    """One CSV line or one JSON record per row of equal-length columns.

    fill maps the name of each column that may hold masked (NaN) cells
    to their text, or to None for an empty CSV field and a JSON null.
    """
    if fmt not in _FLOAT_SPEC:
        raise ValueError(f"unknown format {fmt!r}")
    fill = fill or {}
    values, specs, masks = [], [], []
    for i, (name, column) in enumerate(zip(header, columns)):
        vals, spec, mask = _prepare(fmt, name, column, name in fill)
        values.append(vals)
        specs.append(spec)
        if mask is not None:
            masks.append((i, mask, _masked_spec(fmt, fill[name])))

    if fmt == "csv":
        head, sep, tail = ",".join(header) + "\n", "", ""

        def template(cells):
            return ",".join(cells) + "\n"
    else:
        keys = ["    %s: " % json.dumps(name) for name in header]
        head, sep, tail = "[\n", ",\n", "\n]\n"

        def template(cells):
            return "  {\n" + ",\n".join(k + c for k, c in zip(keys, cells)) + "\n  }"

    n_rows = len(values[0])
    if not n_rows and fmt == "json":
        return "[]\n"
    if masks:
        # one template per combination of masked cells, picked per row
        flags = list(zip(*(mask.tolist() for _, mask, _ in masks)))
        by_flags = {}
        for f in set(flags):
            cells = list(specs)
            for (i, _, spec), masked in zip(masks, f):
                if masked:
                    cells[i] = spec
            by_flags[f] = template(cells)
        templates = [by_flags[f] for f in flags]
    else:
        templates = [template(specs)] * n_rows
    # the row templates joined are one format string for all cells, row-major
    return head + sep.join(templates) % tuple(chain.from_iterable(zip(*values))) + tail


def emit(text: str, output: str) -> None:
    """Write to a path, or to stdout when output is '-'."""
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
