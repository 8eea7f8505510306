"""Runs the benchmark over several seeds and summarises the spread.

    python3 perfbench/baseline.py --seeds 1-10 [--trace-seed 3] [--write]

Every workload of ``BENCHMARK.json`` runs once per seed, each run a fresh
``perfbench/run.py`` process, started one at a time, with the benchmark's
``run_seconds``. For each end-to-end metric it prints the median, the
quartiles (``statistics.quantiles``, n=4) and their distance as a share of
the median, next to the metric's bound, and marks a spread of a third of the
bound or more as WIDE. ``--trace-seed`` adds one traced run per workload;
``--write`` replaces ``perfbench/BASELINE.json`` with the summary, the raw
values, the per-layer breakdown and the run record of the machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(spec, workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t
    OUT.mkdir(exist_ok=True)
    log = OUT / f"baseline-{workload}-seed{seed}-trace{trace}.txt"
    log.write_text(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}, see {log}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    summary = {}
    record = None
    for workload in whys:
        runs = []
        for seed in seeds:
            result, stdout, wall = run_one(spec, workload, seed, 0)
            if record is None:
                record = next(json.loads(line[len("run-record "):])
                              for line in stdout.splitlines() if line.startswith("run-record "))
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        metrics = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "iqr_share": share,
                             "bound": bounds[name], "unit": runs[0]["metrics"][name]["unit"],
                             "values": values}
            print(f"  {name:16s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"iqr/median {share:7.4f}  bound {bounds[name]}  "
                  f"{'ok' if share < bounds[name] / 3 else 'WIDE'}",
                  flush=True)
        entry = {"why": whys[workload], "seeds": seeds,
                 "correct": [r["correct"] for r in runs],
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "end_to_end": metrics}
        if args.trace_seed is not None:
            result, stdout, _ = run_one(spec, workload, args.trace_seed, 1)
            entry["trace"] = {
                "seed": args.trace_seed,
                "correct": result["correct"],
                "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
                "notes": [line for line in stdout.splitlines()
                          if line.startswith(("trace:", "attribution", "failed item"))],
            }
            print(f"  traced seed {args.trace_seed}: correct={result['correct']}", flush=True)
        summary[workload] = entry

    if args.write:
        path = HERE / "BASELINE.json"
        machine = {k: record[k] for k in
                   ("git_sha", "nproc", "python", "numpy", "scipy", "blas", "threads")}
        path.write_text(json.dumps({"run_seconds": spec["run_seconds"], "machine": machine,
                                    "workloads": summary}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
