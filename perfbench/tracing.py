"""Per-layer spans for the traced run, recorded from outside the package.

Tracer.install replaces every public function of the layer modules with a
timing wrapper at each name a caller looks it up by: the defining module,
each package module that imported it by name (cli holds its own
sample_curve; criticality, oracle and verify hold beta_of_m and xi_of_m),
and the package namespace. Nothing in the package is edited, and
uninstall puts the originals back.
"""
from __future__ import annotations

import functools
import inspect
import re
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "serialize", "curve", "criticality", "surface",
          "selfconsistent", "oracle", "verify", "idealgas")

# Called once per output cell; a span there would cost more than the cell.
UNTRACED = {"serialize.fmt_float"}

# Spans whose individual durations are kept, for a median.
KEEP_DURATIONS = {"selfconsistent.solve"}

VERIFY_CHECKS = ("check_hj_residual", "check_gradient_fd", "check_curve_identity",
                 "check_oracle", "check_entropy_offset", "check_exponents",
                 "check_cusp", "check_ideal_gas")

# (name, unit, better) of every per-layer metric, in report order.
# .busy_s is a function's inclusive time per traced pass and .self_s a
# layer's time outside the spans it caused, both medians over traced
# passes; a function or layer idle on a workload reads 0 there.
PER_LAYER = (
    [("import.isingcusp_s", "s", "lower"), ("import.scipy_s", "s", "lower"),
     ("import.numpy_s", "s", "lower"),
     ("cli.main.calls", "count", "lower"), ("cli.main.busy_s", "s", "lower"),
     ("cli.self_s", "s", "lower"),
     ("serialize.render.busy_s", "s", "lower"), ("serialize.render.bytes", "bytes", "lower"),
     ("serialize.emit.busy_s", "s", "lower"), ("serialize.self_s", "s", "lower"),
     ("curve.sample_curve.busy_s", "s", "lower"), ("curve.curve_point.calls", "count", "lower"),
     ("curve.beta_of_m.calls", "count", "lower"), ("curve.xi_of_m.calls", "count", "lower"),
     ("curve.self_s", "s", "lower")]
    + [(f"criticality.{f}.{s}", u, "lower") for f in ("susceptibility", "specific_heat")
       for s, u in (("calls", "count"), ("busy_s", "s"))]
    + [("criticality.fit_exponents.busy_s", "s", "lower"), ("criticality.self_s", "s", "lower"),
       ("surface.surface_grid.busy_s", "s", "lower"), ("surface.valid_ratio", "ratio", "higher")]
    + [(f"surface.{f}.{s}", u, "lower") for f in ("entropy", "gradient", "hj_residual")
       for s, u in (("calls", "count"), ("busy_s", "s"))]
    + [("surface.self_s", "s", "lower"),
       ("selfconsistent.solve.calls", "count", "lower"), ("selfconsistent.solve.busy_s", "s", "lower"),
       ("selfconsistent.solve.p50_s", "s", "lower"),
       ("selfconsistent.roots_per_solve", "ratio", "lower"),
       ("selfconsistent.zero_field_branch.busy_s", "s", "lower"),
       ("selfconsistent.self_s", "s", "lower")]
    + [(f"oracle.{f}.{s}", u, "lower") for f in ("log_partition_enum", "log_partition_binom", "evaluate")
       for s, u in (("calls", "count"), ("busy_s", "s"))]
    + [("oracle.partition_evals_per_evaluate", "ratio", "lower"), ("oracle.self_s", "s", "lower")]
    + [(f"verify.{c}.busy_s", "s", "lower") for c in VERIFY_CHECKS]
    + [("verify.self_s", "s", "lower"),
       ("idealgas.gas_hj_residual.calls", "count", "lower"),
       ("idealgas.gas_recover_eos.calls", "count", "lower"), ("idealgas.self_s", "s", "lower"),
       ("trace.untraced_pass_s", "s", "lower"), ("trace.traced_pass_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower"), ("trace.spans_per_pass", "count", "lower"),
       ("trace.count_drift", "count", "lower")]
)


def _render_bytes(extra, text):
    extra["serialize.render.bytes"] += len(text)  # the emitters write ASCII


def _grid_cells(extra, cells):
    extra["surface.cells"] += len(cells)
    extra["surface.valid_cells"] += sum(1 for c in cells if c.valid)


def _roots(extra, rootset):
    extra["selfconsistent.roots"] += len(rootset.roots)


ON_RESULT = {"serialize.render": _render_bytes, "surface.surface_grid": _grid_cells,
             "selfconsistent.solve": _roots}


class Tracer:
    """Counts, busy time and layer self time per pass; spans of one pass.

    A span's self time is its duration minus the durations of the spans
    it caused directly.
    """

    def __init__(self):
        self.names: list[str] = []
        self.op_id = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []
        self._wrappers: dict = {}  # original function -> its wrapper
        self.spans = {"id": array("q"), "parent": array("q"), "op": array("q"),
                      "name": array("i"), "start": array("d"), "end": array("d")}
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.extra = defaultdict(float)
        self.durations = defaultdict(list)
        self.span_count = 0
        self.recording = False

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "busy": dict(self.busy), "self": dict(self.self_time),
                "extra": dict(self.extra), "durations": {k: list(v) for k, v in self.durations.items()},
                "spans": self.span_count}

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        name_idx = len(self.names)
        self.names.append(name)
        stack, on_result, keep = self._stack, ON_RESULT.get(name), name in KEEP_DURATIONS
        spans, clock = self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                self.calls[name] += 1
                self.busy[name] += d
                self.self_time[layer] += d - frame[1]
                self.span_count += 1
                if stack:
                    stack[-1][1] += d
                if keep:
                    self.durations[name].append(d)
                if self.recording:
                    for col, v in zip(("id", "parent", "op", "name", "start", "end"),
                                      (frame[0], parent, self.op_id, name_idx, t0, t1)):
                        spans[col].append(v)
            if on_result:
                on_result(self.extra, result)
            return result

        return traced

    def install(self, pkg):
        mods = [sys.modules[f"{pkg.__name__}.{layer}"] for layer in LAYERS]
        wrappers = self._wrappers
        for layer, mod in zip(LAYERS, mods):
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__ and obj not in wrappers
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[obj] = self._wrap(name, obj)
        for mod in mods + [pkg]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def write_spans(self, path: str, t_base: float):
        s = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,op_id,name,start_s,end_s\n")
            for i in range(len(s["id"])):
                fh.write(f"{s['id'][i]},{s['parent'][i]},{s['op'][i]},{self.names[s['name'][i]]},"
                         f"{s['start'][i] - t_base:.9f},{s['end'][i] - t_base:.9f}\n")


def count_drift(passes: list[dict]) -> list[str]:
    """Names whose per-pass call count is not the same in every pass."""
    names = set().union(*(p["calls"] for p in passes))
    return sorted(n for n in names if len({p["calls"].get(n, 0) for p in passes}) > 1)


def seconds(passes: list[dict]) -> dict:
    """Median busy seconds of every traced function and self seconds of every
    layer, and the median traced solve call."""
    out = {}
    for key, suffix in (("busy", "busy_s"), ("self", "self_s")):
        for name in sorted(set().union(*(p[key] for p in passes))):
            out[f"{name}.{suffix}"] = statistics.median(p[key].get(name, 0.0) for p in passes)
    for name in KEEP_DURATIONS:
        d = [x for p in passes for x in p["durations"].get(name, ())]
        if d:
            out[f"{name}.p50_s"] = statistics.median(d)
    return out


def layer_metrics(passes: list[dict], extra: dict) -> dict:
    """Per-layer values from per-pass snapshots; extra holds import.* and trace.*."""
    first, secs = passes[0], seconds(passes)

    def total(key, name):
        return sum(p[key].get(name, 0) for p in passes)

    def ratio(a, b):
        return a / b if b else 0.0

    derived = {
        "serialize.render.bytes": first["extra"].get("serialize.render.bytes", 0),
        "surface.valid_ratio": ratio(total("extra", "surface.valid_cells"), total("extra", "surface.cells")),
        "selfconsistent.roots_per_solve": ratio(total("extra", "selfconsistent.roots"),
                                                total("calls", "selfconsistent.solve")),
        "oracle.partition_evals_per_evaluate": ratio(total("calls", "oracle.log_partition"),
                                                     total("calls", "oracle.evaluate")),
    }
    out = {}
    for name, _, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if name in extra:
            out[name] = extra[name]
        elif name in derived:
            out[name] = derived[name]
        elif stat == "calls":
            out[name] = first["calls"].get(base, 0)
        elif stat in ("busy_s", "self_s", "p50_s"):
            out[name] = secs.get(name, 0.0)
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return out


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_times(python: str, env: dict, cwd: str, repeats: int = 3) -> dict:
    """Cumulative import seconds of scipy, numpy and isingcusp, from -X importtime,
    keyed by package.

    For each root package the outermost entries are summed: those at the
    smallest nesting depth among entries of that package.
    """
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import isingcusp"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import isingcusp failed: {proc.stderr.strip()[-500:]}")
        entries = [(len(m.group(3)), m.group(4), int(m.group(2)) * 1e-6)
                   for m in map(_IMPORTTIME.match, proc.stderr.splitlines()) if m]
        times = {}
        for root in ("scipy", "numpy", "isingcusp"):
            mine = [e for e in entries if e[1].split(".")[0] == root]
            depth = min((e[0] for e in mine), default=None)
            times[root] = sum(e[2] for e in mine if e[0] == depth)
        runs.append(times)
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
