"""Benchmark harness for isingcusp: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is loaded from src/ beside this directory.
With --trace 0 the run times CLI children (tables, verify) or in-process
API calls (library) with no instrumentation and reports the end-to-end
metrics. With --trace 1 it runs the same operations in process, first
plain and then with every layer wrapped in spans, and reports the
per-layer metrics and the tracing overhead. Every output is checked
against the stdlib references in checks.py. The last stdout line is
{"correct", "attempted", "failed", "metrics"}; a result file with the
environment goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, ROOT)

from perfbench import tracing  # noqa: E402
from perfbench.checks import KnownDefect  # noqa: E402
from perfbench.workloads import CLI_WORKLOADS, WORKLOADS  # noqa: E402

# (name, unit, better) of every end-to-end metric.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("pass_tail_s", "s", "lower"),
    ("rows_per_s", "1/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("op_tail_s", "s", "lower"),
    ("heavy_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
SETUP_REPEATS = 24
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def tail(values):
    """(value, count beyond): the highest percentile with at least ten samples
    beyond it, i.e. the 11th largest; the maximum when there are ten or fewer."""
    s = sorted(values)
    if len(s) <= 10:
        return s[-1], 0
    return s[-11], 10


def reference_loop_s(repeats: int = 3) -> float:
    """Median seconds of a fixed pure-Python loop: how fast this machine is
    running right now, to tell drift in a shared machine from a change."""
    times = []
    for _ in range(repeats):
        t, acc = time.perf_counter(), 0
        for i in range(1_000_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class SetupTimer:
    """Seconds of `import isingcusp` in fresh interpreters. The samples are
    spread over the run, between passes, so that their median sees the
    machine at the same speeds as the passes do."""

    CODE = "import time; t = time.perf_counter(); import isingcusp; print(time.perf_counter() - t)"

    def __init__(self, env):
        self.env = env
        self.sample()  # warm-up: the file cache
        self.times = []

    def sample(self) -> float:
        proc = subprocess.run([sys.executable, "-c", self.CODE], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import isingcusp failed: {proc.stderr.strip()[-500:]}")
        return float(proc.stdout)

    def keep_up(self, share: float):
        """Samples until SETUP_REPEATS * share of them are taken."""
        while len(self.times) < min(1.0, share) * SETUP_REPEATS:
            self.times.append(self.sample())


class Runner:
    """Runs one operation and returns (result, seconds), or raises."""

    def __init__(self, in_process: bool, pkg=None):
        self.in_process, self.pkg, self.env = in_process, pkg, child_env()

    def __call__(self, op):
        if op.call is not None:
            t0 = time.perf_counter()
            result = op.call()
            return result, time.perf_counter() - t0
        if self.in_process:
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                try:
                    rc = self.pkg.cli.main(list(op.argv))
                except SystemExit as exc:  # argparse usage errors
                    rc = exc.code if isinstance(exc.code, int) else 2
            return (rc, buf.getvalue()), time.perf_counter() - t0
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "isingcusp", *op.argv], env=self.env, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        return (proc.returncode, proc.stdout), time.perf_counter() - t0


class Tally:
    """Operations attempted and failed; a failure is a non-zero exit, an
    exception, or an output the independent check rejects."""

    def __init__(self):
        self.attempted = self.failed = self.known = 0
        self.reasons: list[str] = []

    def record(self, op, failure):
        self.attempted += 1
        if failure is None:
            return
        self.failed += 1
        known = isinstance(failure, KnownDefect)
        self.known += known
        reason = f"{op.kind}: {failure}" + (" [known defect]" if known else "")
        if len(self.reasons) < 20 and reason not in self.reasons:
            self.reasons.append(reason)

    @property
    def unexpected(self) -> int:
        return self.failed - self.known


def run_pass(ops, runner, tally, tracer=None):
    """Runs every operation once, then checks the outputs outside the timing.
    Returns (pass seconds, [(kind, seconds)])."""
    results = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer:
            tracer.op_id = i + 1
        try:
            results.append(runner(op))
        except Exception as exc:  # the operation failed; the run goes on
            results.append((exc, None))
    pass_s = time.perf_counter() - t0
    lat = []
    for op, (result, seconds) in zip(ops, results):
        if seconds is None:
            failure = f"{type(result).__name__}: {result}"
            if op.known_raise and isinstance(result, op.known_raise):
                failure = KnownDefect(failure)
        else:
            lat.append((op.kind, seconds))
            try:
                failure = op.check(*result) if op.argv is not None else op.check(result)
            except Exception as exc:  # unparseable output is a wrong output
                failure = f"check raised {type(exc).__name__}: {exc}"
        tally.record(op, failure)
    return pass_s, lat


def repeat_within(seconds, step, min_steps=1):
    """Calls step() until the next call would end past the budget."""
    start, walls = time.perf_counter(), []
    while True:
        t = time.perf_counter()
        step()
        walls.append(time.perf_counter() - t)
        if len(walls) >= min_steps and time.perf_counter() - start + statistics.median(walls) > seconds:
            return


def import_package():
    sys.path.insert(0, SRC)
    import isingcusp
    import isingcusp.cli  # noqa: F401
    return isingcusp


def end_to_end(args, tally, env):
    setup = SetupTimer(env)
    cli = args.workload in CLI_WORKLOADS
    pkg = None if cli else import_package()
    work = WORKLOADS[args.workload](args.seed, args.smoke, pkg)
    runner = Runner(in_process=False, pkg=pkg)
    if not cli:
        run_pass(work.ops, runner, Tally())  # warm-up: lazy set-up and caches
    passes, lat = [], []
    start = time.perf_counter()

    def step():
        pass_s, op_lat = run_pass(work.ops, runner, tally)
        passes.append(pass_s)
        lat.extend(op_lat)
        setup.keep_up((time.perf_counter() - start) / args.seconds)

    repeat_within(args.seconds, step)
    setup.keep_up(1.0)

    def by_kind(kind):
        return [s for k, s in lat if k == kind]

    pass_tail, beyond = tail(passes)
    op_tail, op_beyond = tail(by_kind(work.headline))
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    metrics = {
        "setup_s": statistics.median(setup.times),
        "pass_s": statistics.median(passes),
        "pass_tail_s": pass_tail,
        "rows_per_s": sum(op.records for op in work.ops) / statistics.median(passes),
        "op_p50_s": statistics.median(by_kind(work.headline)),
        "op_tail_s": op_tail,
        "heavy_p50_s": statistics.median(by_kind(work.heavy)),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    notes = {
        "passes": len(passes), "ops_per_pass": len(work.ops), "pass_times_s": passes,
        "setup_s": f"median of {len(setup.times)} imports spread over the run",
        "setup_times_s": setup.times,
        "pass_tail_s": f"{beyond} of {len(passes)} passes beyond",
        "op_p50_s": f"{work.headline}, {len(by_kind(work.headline))} calls",
        "op_tail_s": f"{work.headline}, {op_beyond} of {len(by_kind(work.headline))} calls beyond",
        "heavy_p50_s": f"{work.heavy}, {len(by_kind(work.heavy))} calls",
        "peak_rss_mb": "CLI children" if cli else "this process",
    }
    return metrics, notes


def traced(args, tally, env):
    imports = tracing.import_times(sys.executable, env, ROOT, repeats=1 if args.smoke else 3)
    pkg = import_package()
    work = WORKLOADS[args.workload](args.seed, args.smoke, pkg)
    runner = Runner(in_process=True, pkg=pkg)
    run_pass(work.ops, runner, Tally())  # warm-up
    tracer = tracing.Tracer()
    plain, with_spans, snaps = [], [], []

    def pair():
        # alternating plain and traced passes, so drift in machine speed
        # does not show as tracing overhead
        plain.append(run_pass(work.ops, runner, tally)[0])
        tracer.install(pkg)
        tracer.recording = not snaps  # spans of the first traced pass only
        try:
            with_spans.append(run_pass(work.ops, runner, tally, tracer)[0])
        finally:
            tracer.uninstall()
        snaps.append(tracer.snapshot())
        tracer.reset()

    t_base = time.perf_counter()
    repeat_within(args.seconds, pair, min_steps=2)
    os.makedirs(OUT, exist_ok=True)
    span_file = os.path.join(OUT, f"spans_{args.workload}.csv")
    tracer.write_spans(span_file, t_base)

    drift = tracing.count_drift(snaps)
    if drift:
        print(f"warning: call counts drifted between passes: {', '.join(drift)}", file=sys.stderr)
    untraced_s, traced_s = statistics.median(plain), statistics.median(with_spans)
    extra = {"import.isingcusp_s": imports["isingcusp"], "import.scipy_s": imports["scipy"],
             "import.numpy_s": imports["numpy"],
             "trace.untraced_pass_s": untraced_s, "trace.traced_pass_s": traced_s,
             "trace.overhead_ratio": traced_s / untraced_s - 1.0,
             "trace.spans_per_pass": snaps[0]["spans"], "trace.count_drift": len(drift)}
    metrics = tracing.layer_metrics(snaps, extra)
    counts = json.dumps(snaps[0]["calls"], sort_keys=True)
    notes = {"untraced_passes": len(plain), "traced_passes": len(with_spans), "span_file": span_file,
             "count_fingerprint": hashlib.sha256(counts.encode()).hexdigest()[:16],
             "calls_per_pass": snaps[0]["calls"], "drifted_counts": drift,
             "import_s": imports, "seconds": tracing.seconds(snaps)}
    return metrics, notes


def environment(args) -> dict:
    def git(*cmd):
        try:
            proc = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    # a checkout that is not itself a repository must not report an enclosing one
    top = git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    status = git("status", "--porcelain", "--", "src") if in_repo else None
    digest = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(SRC)):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    digest.update(f.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "git_rev": git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty_src": None if status is None else bool(status),
        "src_sha256": digest.hexdigest()[:16], "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "loadavg_start": os.getloadavg(), "reference_loop_s_start": reference_loop_s(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring budget of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "isingcusp", "__init__.py")):
        print(f"error: no package at {SRC}/isingcusp; run from a full checkout", file=sys.stderr)
        return 2

    env_record = environment(args)
    env = child_env()
    tally = Tally()
    metrics, notes = (traced if args.trace else end_to_end)(args, tally, env)
    env_record["reference_loop_s_end"] = reference_loop_s()
    units = {n: u for n, u, _ in (tracing.PER_LAYER if args.trace else END_TO_END)}
    metrics = {n: metrics[n] for n in units}

    labels = {"op_p50_s": "solve_p50_s", "op_tail_s": "solve_tail_s",
              "heavy_p50_s": "evaluate_p50_s"} if args.workload == "library" else {}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        alias = f" ({labels[name]})" if name in labels else ""
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"  {name}{alias} = {value:.6g} {units[name]}{note}")
    ratio = tally.failed / tally.attempted
    print(f"  failed_ops = {tally.failed}/{tally.attempted} = {ratio:.6g} ratio"
          f"  [{tally.known} on inputs with a known defect]")
    for reason in tally.reasons:
        print(f"failed: {reason}", file=sys.stderr)

    correct = tally.unexpected == 0
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env_record, "result": result, "notes": notes,
                   "failed_ops": {"failed": tally.failed, "attempted": tally.attempted,
                                  "known_defect": tally.known, "first_reasons": tally.reasons}},
                  fh, indent=2, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
