"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --out perfbench/out/set_a.json
    python3 perfbench/spread.py --baseline perfbench/out/set_a.json

Runs run.py once per (workload, seed) for every workload of BENCHMARK.json
with its run_seconds, one run at a time, and prints for each metric the
median, the quartiles (statistics.quantiles, n=4) and their distance as a
share of the median, next to the metric's bound. The same spread over
--repeats more runs of seed 1 tells the machine's own run-to-run noise
from the differences between seeds' inputs, and the time of a fixed
pure-Python loop shows how fast the machine itself was running. The first
--trace-seeds seeds also get a traced run, whose per-pass call-count
fingerprint must not drift within the run and must match the baseline's
for the same seed. With --baseline, each median is compared with the
earlier set's (a worsening beyond the bound is flagged). Exits 1 when a
bound or a fingerprint does not hold.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"BENCH_{workload}_s{seed}_t{trace}.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    env = result["environment"] = record["environment"]
    result["reference_loop_s"] = (env["reference_loop_s_start"] + env["reference_loop_s_end"]) / 2
    if trace:
        result["fingerprint"] = record["notes"]["count_fingerprint"]
        result["count_drift"] = record["notes"]["drifted_counts"]
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10, help="seeds 1..N, at least 2")
    ap.add_argument("--repeats", type=int, default=5, help="extra runs of seed 1; 0 or at least 2")
    ap.add_argument("--trace-seeds", type=int, default=2, help="seeds that also get a traced run")
    ap.add_argument("--out", help="write runs and summary here")
    ap.add_argument("--baseline", help="summary written by an earlier --out, to compare with")
    args = ap.parse_args(argv)

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base = None
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            base = json.load(fh)
    seeds = range(1, args.seeds + 1)
    summary, same_seed, machine_drift, fingerprints, runs, problems = {}, {}, {}, {}, [], []
    for workload in (w["name"] for w in bench["workloads"]):
        values = {name: [] for name in metrics}
        repeats = {name: [] for name in metrics}
        machine, failed, attempted = [], 0, 0
        for i, seed in enumerate([*seeds, *[1] * args.repeats]):
            result = run_once(workload, seed, bench["run_seconds"], 0)
            runs.append({"workload": workload, "seed": seed, "trace": 0, **result})
            machine.append(result["reference_loop_s"])
            failed, attempted = failed + result["failed"], attempted + result["attempted"]
            into = values if i < len(seeds) else repeats
            for name in metrics:
                into[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
            if not result["correct"]:
                problems.append(f"{workload} seed {seed}: correct is false")
        for seed in list(seeds)[:args.trace_seeds]:
            result = run_once(workload, seed, bench["run_seconds"], 1)
            runs.append({"workload": workload, "seed": seed, "trace": 1, **result})
            key = f"{workload}/{seed}"
            fingerprints[key] = result["fingerprint"]
            print(f"{workload} seed {seed} traced: fingerprint {result['fingerprint']}, "
                  f"drift {result['count_drift'] or 'none'}", flush=True)
            if result["count_drift"]:
                problems.append(f"{key}: call counts drifted between passes")
            if base and key in base["fingerprints"] and base["fingerprints"][key] != result["fingerprint"]:
                problems.append(f"{key}: fingerprint differs from the baseline")

        summary[workload], same_seed[workload] = {}, {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound, better = metrics[name]["bound"], metrics[name]["better"]
            entry = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            unit = metrics[name]["unit"]
            line = (f"  {name:12s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} {unit:5s} "
                    f"spread {spread:.4f} (bound {bound:.2f}, a third {bound / 3:.3f})")
            if repeats[name]:
                r1, rmed, r3 = statistics.quantiles(repeats[name], n=4)
                same_seed[workload][name] = {"median": rmed, "spread": (r3 - r1) / rmed}
                line += f"  seed 1 x{len(repeats[name])}: spread {(r3 - r1) / rmed:.4f}"
            if spread > bound:
                problems.append(f"{workload} {name}: spread {spread:.4f} above bound {bound}")
            if base:
                old = base["summary"][workload][name]["median"]
                worse = (med - old) / old if better == "lower" else (old - med) / old
                entry["worse_than_baseline"] = worse
                line += f"  vs baseline {worse:+.4f}"
                if worse > bound:
                    problems.append(f"{workload} {name}: median worse than baseline by {worse:.4f}")
            summary[workload][name] = entry
            print(line, flush=True)
        print(f"  failed_ops   {failed}/{attempted} = {failed / attempted:.6g} ratio", flush=True)
        q1, med, q3 = statistics.quantiles(machine, n=4)
        machine_drift[workload] = {"median": med, "spread": (q3 - q1) / med}
        print(f"  (machine: reference loop median {med:.4g} s, spread {(q3 - q1) / med:.4f})", flush=True)
    for p in problems:
        print(f"problem: {p}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "same_seed": same_seed, "reference_loop": machine_drift,
                       "fingerprints": fingerprints, "runs": runs}, fh, indent=1)
            fh.write("\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
