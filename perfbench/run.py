"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload detect_long --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: coopad is imported from ./src, never
from an installed copy. Set-up is repeated several times and its median
reported; one untimed warm-up call follows; then operations run back to back
until the next one would end after --seconds. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 every call into a coopad layer is wrapped in a span, and the
metrics are the per-layer ones, each per set-up plus one operation. The
traced run also prints a per-layer table and writes it, with the spans,
under .perfbench_out/. The exit code is 0 only when every operation ran and
passed its output check.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import re
import resource
import shutil
import sys
import traceback
from time import perf_counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("detect_long", "detect_wide", "train_fixture", "cli_long")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def import_coopad():
    """Import coopad from the checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "coopad", "__init__.py")):
        sys.exit(f"error: no coopad sources under {src}; "
                 "run from the root of a coopad checkout")
    sys.path.insert(0, src)
    import coopad
    if not os.path.abspath(coopad.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported coopad from {coopad.__file__}, not {src}")
    from coopad import cli, model, numerics, score, spectral, train
    return {"cli": cli, "model": model, "numerics": numerics, "score": score,
            "spectral": spectral, "train": train}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def environment(seed):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "commit": git_commit(), "seed": seed}


def blas_threads():
    """Thread count of the OpenBLAS this process loaded, or None."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout read from .git without running git; None when the
    checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, tracer, seed, seconds):
    """Set up, warm up, then run the closed loop. Returns (setup times,
    op results, failures)."""
    setup_times = []
    for _ in range(workload.setups):
        with tracer.region("bench.setup", "setup"):
            t0 = perf_counter()
            workload.setup(seed)
            setup_times.append(perf_counter() - t0)
    with tracer.region("bench.warmup", "warmup"):
        workload.warmup()
    results, failures = [], []
    start = perf_counter()
    while True:
        i = len(results) + len(failures)
        t0 = perf_counter()
        try:
            with tracer.region("bench.op", "op"):
                r = workload.op(i)
            with tracer.region("bench.check", "check"):
                problems = workload.check(r)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            failures.append(problems)
            print(f"op {i} failed: " + "; ".join(problems), file=sys.stderr)
        else:
            results.append(r)
        took = perf_counter() - t0
        if perf_counter() - start + took > seconds:
            break
    return setup_times, results, failures


def end_to_end(setup_times, results):
    return {"points_per_s": float(np.median([r.work / r.seconds for r in results])),
            "setup_s": float(np.median(setup_times)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}


_LAYER_METRIC = re.compile(r"^(?P<span>.+?)_(?P<kind>s|self_s|calls)(?:\.(?P<label>\w+))?$")


def per_layer(summary, names):
    """Per-layer metric values by name from a span summary."""
    def total(span, key):
        return summary.get(span, {}).get(key, 0.0)

    gru_spans = [s for s in summary if s.startswith("numerics.gru_forward.")]
    special = {
        "numerics.gru_step_rows": sum(total(s, "rows") for s in gru_spans),
        "spectral.stft_operator_mb": total("spectral.stft_matrix", "bytes_max") / 1e6,
        "score.windows": total("score.make_windows", "windows"),
        "score.coverage_mean": (total("score.detect", "coverage_sum")
                                / max(total("score.detect", "points"), 1)),
        "checkpoint.bytes": total("checkpoint.save", "bytes"),
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        m = _LAYER_METRIC.match(name)
        if m is None:
            raise KeyError(f"no rule for per-layer metric {name}")
        span = m["span"] + (f".{m['label']}" if m["label"] else "")
        values[name] = total(span, {"s": "total_s", "self_s": "self_s",
                                    "calls": "calls"}[m["kind"]])
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    modules = import_coopad()
    import tracing
    import workloads

    spec = load_spec()
    tracer = tracing.Tracer()
    workdir = os.path.join(ROOT, ".perfbench_run", f"{args.workload}-{os.getpid()}")
    workload = workloads.make(args.workload, workdir, tracer)
    if args.trace:
        tracing.install(tracer, modules)
    try:
        setup_times, results, failures = measure(workload, tracer, args.seed, args.seconds)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    attempted = len(results) + len(failures)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    print("setup seconds: " + " ".join(f"{t:.4f}" for t in setup_times))
    print("operation points/s: " + " ".join(f"{r.work / r.seconds:.1f}" for r in results))
    e2e = end_to_end(setup_times, results) if results else {}
    for name, value in e2e.items():
        print(f"{'traced ' if args.trace else ''}{name} = {value:.6g}")
    shown = workload.report(results) if results else {}
    shown["failed_share"] = (len(failures) / attempted, "1")
    for name, (value, unit) in shown.items():
        print(f"{name} = {value:.6g} {unit}")

    if args.trace:
        summary = tracing.summarize(tracer.spans, len(setup_times), attempted)
        table = tracing.table(summary)
        stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
        meta = {"workload": args.workload, "seconds": args.seconds, "ops": attempted,
                "setups": len(setup_times), "env": env}
        tracer.write(stem + ".spans.json", meta)
        with open(stem + ".layers.txt", "w") as f:
            f.write(table)
        print(table, end="")
        metrics = per_layer(summary, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = e2e
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    correct = not failures and bool(results)
    out = {name: {"value": metrics[name], "unit": unit}
           for name, unit in units.items() if name in metrics}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
