"""polydom benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense_series --seed 3 --seconds 30 --trace 0

Each run is a fresh process with one closed-loop client. It imports polydom
and builds the workload's inputs from the seed (the set-up), runs whole
passes of the workload's item schedule, as many as fit in ``--seconds`` at
the workload's nominal pass time (always at least one), makes the
workload's cold ``python -m polydom.cli`` subprocess runs one at a time
between its items, and checks every output outside the timed section.
After the timed section it repeats the set-up in fresh interpreters, one at
a time; ``setup_s`` is the median of all set-ups. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

With ``--trace 1`` the run makes one untraced pass and one traced pass of the
same items. The traced pass wraps polydom's public functions (see
``tracer.py``); the difference of the two pass times is the tracing overhead,
and the item outputs of both passes must be identical.

BLAS and OpenMP pools are pinned to one thread before numpy is imported.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
N_SETUP = 3  # set-ups per run: the run's own, then fresh interpreters
SETUP_PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import run\n"
    "print(run.probe_set_up(sys.argv[2], int(sys.argv[3]), sys.argv[4]))\n"
)
COLD_TIMEOUT_S = 120

E2E_UNITS = {
    "setup_s": "s",
    "certs_per_s": "1/s",
    "cert_p50_s": "s",
    "cert_tail_s": "s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
    "cli_cold_p50_s": "s",
}


def pin_threads() -> dict:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def tail_percentile(n: int):
    """(percentile, 0-based rank) of the highest whole percentile that still
    has at least 10 samples above it, by the nearest-rank rule; None when
    there are fewer than 11 samples."""
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    k = max(1, (p * n + 99) // 100)  # nearest rank, 1-based
    return p, k - 1


def latency_metrics(latencies):
    xs = sorted(latencies)
    tail = tail_percentile(len(xs))
    if tail is None:
        p, value = 100, xs[-1]
    else:
        p, rank = tail
        value = xs[rank]
    return statistics.median(xs), value, p


class Sample:
    __slots__ = ("index", "item", "pass_no", "seconds", "output", "summary", "reasons")

    def __init__(self, index, item, pass_no, seconds, output):
        self.index, self.item, self.pass_no = index, item, pass_no
        self.seconds, self.output = seconds, output
        self.summary, self.reasons = None, []


def run_pass(items, pass_no, tracer=None, after=None):
    """One closed-loop pass: each item starts when the previous one returned.
    ``after(index)`` runs untimed after each item."""
    samples = []
    for idx, item in enumerate(items):
        if item.prepare is not None:
            item.prepare()
        t = time.perf_counter()
        try:
            if tracer is None:
                result = item.run()
            else:
                with tracer.span("bench.item", item=idx):
                    result = item.run()
        except Exception as exc:  # noqa: BLE001 - an item failure is data
            result = exc
        dt = time.perf_counter() - t
        samples.append(Sample(idx, item, pass_no, dt, item.collect(result)))
        if after is not None:
            after(idx)
    return samples


def run_passes(workload, seconds, cold):
    """The workload's number of whole passes for a run of `seconds`.

    The cold runs are spread evenly over all passes, between items, so that
    they sample the machine over the same stretch as the items do."""
    passes = [workload.items_for(p) for p in range(workload.passes(seconds))]
    total, slots = sum(map(len, passes)), len(workload.cold)
    after_items = {(k * total) // slots for k in range(slots)}
    samples = []
    for pass_no, items in enumerate(passes):
        offset = len(samples)
        samples += run_pass(items, pass_no,
                            after=lambda idx: cold() if offset + idx in after_items else None)
    return samples


def child_env(thread_env):
    env = dict(os.environ)
    env.update(thread_env)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def set_up(name: str, seed: int, workdir: Path):
    """The work before the first item: import polydom, build the inputs."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import polydom.cli  # noqa: F401
    import workloads as wl

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return wl.BUILDERS[name](seed, str(workdir))


def inputs_digest(workload) -> str:
    return json.dumps(workload.record, sort_keys=True, default=repr)


def probe_set_up(name: str, seed: int, workdir: str) -> str:
    """Runs in a fresh interpreter: one set-up, timed from this module's first
    line as the run's own is; prints the seconds and the inputs record."""
    pin_threads()
    try:
        workload = set_up(name, seed, Path(workdir))
        return json.dumps({"setup_s": time.perf_counter() - _T0,
                           "inputs": inputs_digest(workload)})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def repeat_set_up(args, thread_env, workdir: Path, n: int):
    """n more set-ups, each in a fresh interpreter, one at a time."""
    out = []
    for k in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(HERE), args.workload, str(args.seed),
             f"{workdir}-setup{k}"],
            env=child_env(thread_env), cwd=str(ROOT), capture_output=True, text=True,
            timeout=COLD_TIMEOUT_S, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def cold_runner(argvs, thread_env, results):
    """Returns a function that makes the next cold ``python -m polydom.cli``
    run (a subprocess, waited for) and appends (argv, seconds, output)."""
    from checks import CliOutput

    env = child_env(thread_env)
    pending = iter(argvs)

    def run_next():
        argv = next(pending)
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "polydom.cli", *argv], env=env,
                              cwd=str(ROOT), capture_output=True, text=True,
                              timeout=COLD_TIMEOUT_S)
        dt = time.perf_counter() - t
        results.append((argv, dt, CliOutput(proc.returncode, proc.stderr, proc.stdout or None)))

    return run_next


def check_samples(samples):
    for s in samples:
        try:
            s.summary, s.reasons = s.item.check(s.output)
        except Exception as exc:  # noqa: BLE001 - an output the checker cannot read
            s.summary = {"checker": type(exc).__name__}
            s.reasons = [f"checking the output raised {type(exc).__name__}: {exc}"]


def consistency_reasons(samples_a, samples_b=None):
    """Outputs for the same item and inputs must agree across passes (and
    between the untraced and the traced pass)."""
    first = {}
    reasons = []
    for s in list(samples_a) + list(samples_b or ()):
        ref = first.setdefault((s.index, s.item.key), s)
        if s.summary != ref.summary:
            reasons.append(f"item {s.index} {s.item.kind}: output differs between "
                           f"passes: {ref.summary} vs {s.summary}")
    return reasons


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def run_record(args, thread_env, workload):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas}
    except Exception as exc:  # noqa: BLE001 - older numpy has no dict mode
        blas = f"unavailable: {exc}"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": thread_env,
        "items_per_pass": len(workload.items),
        "inputs": workload.record,
    }


def report_failures(samples, cold):
    """Prints each failed item with its reason; returns (failed, unknown)."""
    from checks import known_defect

    failed = 0
    unknown = []
    rows = [(s.item.kind, f"#{s.index} pass {s.pass_no} {s.item.kind}", s.reasons)
            for s in samples]
    rows += [(f"cold/{a[0]}", f"cold {a[0]}", r) for a, r in cold]
    for kind, label, reasons in rows:
        if not reasons:
            continue
        failed += 1
        for reason in reasons:
            where = known_defect(kind, reason)
            tag = f"known: {where}" if where else "NEW"
            print(f"failed item {label}: {reason} [{tag}]")
            if where is None:
                unknown.append(reason)
    return failed, unknown


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


def main(argv=None) -> int:
    thread_env = pin_threads()  # before anything imports numpy
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "polydom" / "__init__.py").is_file():
        sys.stderr.write(f"error: polydom sources not found under {SRC}\n")
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = set_up(args.workload, args.seed, workdir)
        own_setup_s = time.perf_counter() - _T0
        import checks

        OUT.mkdir(exist_ok=True)
        record = run_record(args, thread_env, workload)
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        print("run-record " + json.dumps(record, default=repr))
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        with open(OUT / f"run-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, default=repr)

        if args.trace:
            return traced_run(args, workload, tag)

        cold = []
        samples = run_passes(workload, args.seconds, cold_runner(workload.cold, thread_env, cold))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes = repeat_set_up(args, thread_env, workdir, N_SETUP - 1)
        setups = [own_setup_s] + [p["setup_s"] for p in probes]
        unstable = []
        if any(p["inputs"] != inputs_digest(workload) for p in probes):
            unstable.append("input builder is not deterministic")
        check_samples(samples)
        cold_checked = []
        for argv_c, _, out in cold:
            _, reasons = checks.cold_checker(argv_c)(out)
            cold_checked.append((argv_c, reasons))
        failed, unknown = report_failures(samples, cold_checked)
        unstable += consistency_reasons(samples)
        for reason in unstable:
            print(f"inconsistent: {reason}")

        with open(OUT / f"items-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump([[s.index, s.item.kind, s.pass_no, s.seconds, not s.reasons]
                       for s in samples], fh)
        lat = [s.seconds for s in samples]
        p50, tail, pct = latency_metrics(lat)
        attempted = len(samples) + len(cold)
        values = {
            "setup_s": statistics.median(setups),
            "certs_per_s": len(samples) / sum(lat),
            "cert_p50_s": p50,
            "cert_tail_s": tail,
            "ok_share": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
            "cli_cold_p50_s": statistics.median(dt for _, dt, _ in cold),
        }
        passes = samples[-1].pass_no + 1
        notes = {
            "setup_s": "(median of " + ", ".join(f"{x:.3f}" for x in setups) + " s)",
            "certs_per_s": f"({len(samples)} items in {passes} pass(es), "
                           f"{sum(lat):.3f} s busy)",
            "cert_tail_s": f"(p{pct}, n={len(lat)})",
            "cli_cold_p50_s": "(" + ", ".join(f"{a[0]} {dt:.3f}" for a, dt, _ in cold) + ")",
        }
        metrics = {}
        for name, unit in E2E_UNITS.items():
            print(f"metric {name} = {values[name]:.6g} {unit} {notes.get(name, '')}".rstrip())
            metrics[name] = {"value": values[name], "unit": unit}
        emit(not unknown and not unstable, attempted, failed, metrics)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


PER_LAYER_UNITS = {
    "calls": "count", "self_s": "s", "errors": "count", "terms": "count",
    "bytes": "bytes_computed", "fock_dim": "count", "unique_ratio": "ratio",
}


def traced_run(args, workload, tag) -> int:
    from tracer import BENCH_LAYER, LAYERS, Tracer

    t = time.perf_counter()
    untraced = run_pass(workload.items, 0)
    untraced_wall = time.perf_counter() - t
    tracer = Tracer()
    with tracer.installed():
        t = time.perf_counter()
        traced = run_pass(workload.items, 1, tracer)
        traced_wall = time.perf_counter() - t
    check_samples(untraced)
    check_samples(traced)
    failed, unknown = report_failures(untraced + traced, [])
    unstable = consistency_reasons(untraced, traced)
    for reason in unstable:
        print(f"inconsistent: {reason}")

    values = tracer.metrics()
    values["trace.traced_wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    layer_sum = sum(values[f"{layer}.self_s"] for layer in (*LAYERS, BENCH_LAYER))
    print(f"trace: layer self times sum to {layer_sum:.4f} s of {traced_wall:.4f} s "
          f"traced wall ({100.0 * layer_sum / traced_wall:.2f}%); overhead "
          f"{values['trace.overhead_s']:.4f} s over {untraced_wall:.4f} s untraced")
    print_attribution(tracer, traced)
    tracer.write_jsonl(str(OUT / f"spans-{tag}.jsonl"))

    metrics = {}
    for name, value in values.items():
        suffix = name.rsplit(".", 1)[1]
        unit = "s" if name.startswith("trace.") else PER_LAYER_UNITS[suffix]
        metrics[name] = {"value": value, "unit": unit}
    emit(not unknown and not unstable, len(untraced) + len(traced), failed, metrics)
    return 0


def print_attribution(tracer, samples):
    """Per item: wall time and the three largest self times."""
    per_item = tracer.by_item()
    for s in samples:
        selfs = per_item.get(s.index, {})
        top = sorted(selfs.items(), key=lambda kv: -kv[1])[:3]
        apply_s = selfs.get("cpmap.apply", 0.0)
        parts = ", ".join(f"{k} {v:.4f}s" for k, v in top)
        print(f"attribution #{s.index} {s.item.kind}: wall {s.seconds:.4f}s; "
              f"top self: {parts}; cpmap.apply {apply_s:.4f}s")


if __name__ == "__main__":
    sys.exit(main())
