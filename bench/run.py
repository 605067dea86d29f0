#!/usr/bin/env python3
"""Benchmark of the sbergsma CLI, end to end and per layer.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each timed operation is one ``cli.main``
call in a fresh child process (closed loop, one call at a time); calls repeat
until ``--seconds`` have passed.  The outputs are then checked (see
workloads.py) and the last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics as medians over the calls.
``--trace 1`` alternates untraced and traced calls and reports per-layer
metrics from the traced ones, plus the tracing overhead; the computed counts
must repeat exactly between traced calls.  NOTES.md says why each workload
was chosen and what was left out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
NPROC = len(os.sched_getaffinity(0))
CALL_TIMEOUT_S = 150  # leaves time for the checks: a run must end within 180 s

# BLAS pools sized to the cores this process may use, and the package's own
# thread default at 1; the large_null workload asks for min(2, nproc) itself
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": str(NPROC),
    "OMP_NUM_THREADS": str(NPROC),
    "MKL_NUM_THREADS": str(NPROC),
    "SBERGSMA_THREADS": "1",
}
CHILD_ENV = {**os.environ, **THREAD_ENV, "PYTHONPATH": SRC}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]

# per traced function: calls, total and self time; plus the counts named here
LAYER_EXTRAS = {
    "statistic.sb_values_batch": [("reps", "count"), ("us_per_rep", "us"),
                                  ("bytes_computed", "B")],
    "reference.sample": [("values", "count")],
    "nulldist.asymptotic_null_sample": [("normals_computed", "count")],
    "inference.bootstrap_ci": [("us_per_resample", "us")],
    "io.atomic_write_text": [("bytes", "B")],
}


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    from tracer import TRACED, span_name

    out = []
    for module, attr, _ in TRACED:
        name = span_name(module, attr)
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s"), (f"{name}.self_s", "s")]
        out += [(f"{name}.{q}", unit) for q, unit in LAYER_EXTRAS.get(name, [])]
    return out + [("trace.overhead_s", "s")]


def machine_info() -> dict:
    import numpy as np

    def first(path, key):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "ram": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_ENV,
    }


def run_call(workload, argv, work, trace, deadline):
    """One child process; returns its measurements, or an ``error`` entry."""
    out_path = os.path.join(work, workload.output)
    result_path = os.path.join(work, "call.json")
    for path in (out_path, result_path):
        if os.path.exists(path):
            os.unlink(path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path,
           "1" if trace else "0", SRC, "--", *argv]
    timeout = max(1.0, min(CALL_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run(cmd, cwd=work, env=CHILD_ENV, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    with open(result_path) as fh:
        res = json.load(fh)
    if "error" not in res and res.get("rc") != 0:
        res["error"] = f"cli exited {res.get('rc')}: {proc.stderr.strip()[-500:]}"
    if "error" not in res:
        if not os.path.exists(out_path):
            res["error"] = f"cli wrote no {workload.output}"
        else:
            with open(out_path, "rb") as fh:
                res["digest"] = hashlib.sha256(fh.read()).hexdigest()
    return res


def warm_up(work) -> None:
    """Import once, untimed, so the first call does not pay for cold file caches."""
    subprocess.run([sys.executable, "-c", "import sbergsma.cli"], cwd=work, env=CHILD_ENV,
                   capture_output=True, timeout=CALL_TIMEOUT_S)


def describe(name, values, unit) -> str:
    """Median, highest percentile with ten samples beyond it, and sample count."""
    n = len(values)
    line = f"  {name:<44} median {statistics.median(values):.6g} {unit}"
    if n > 10:
        q = int(100 * (n - 10) / n)
        line += f", p{q} {statistics.quantiles(values, n=100)[q - 1]:.6g} {unit}"
    else:
        line += f", max {max(values):.6g} {unit} (no percentile has 10 samples beyond it)"
    return line + f", n={n}"


def run_workload(workload, seed, seconds, trace) -> dict:
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    try:
        workload.write_inputs(work, seed)
        argv = workload.cli_args(seed, NPROC)
        warm_up(work)
        start = time.monotonic()
        end, deadline = start + seconds, start + CALL_TIMEOUT_S
        calls = []  # (traced, result)
        checked = os.path.join(work, "checked-" + workload.output)
        while time.monotonic() < end or (trace and sum(t for t, _ in calls) < 2):
            traced = trace and len(calls) % 2 == 1
            res = run_call(workload, argv, work, traced, deadline)
            if "digest" in res and not os.path.exists(checked):
                shutil.copyfile(os.path.join(work, workload.output), checked)
            calls.append((traced, res))
            if time.monotonic() > deadline:
                break
        return summarise(workload, seed, work, checked, calls, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarise(workload, seed, work, checked, calls, trace) -> dict:
    errors = [r["error"] for _, r in calls if "error" in r]
    ok = [(t, r) for t, r in calls if "error" not in r]
    # outputs of one seed are byte-identical, so the first one checked stands for all
    digests = {r["digest"] for _, r in ok}
    if len(digests) > 1:
        errors.append(f"outputs differ between calls: {len(digests)} digests")
        ok = [(t, r) for t, r in ok if r["digest"] == ok[0][1]["digest"]]
    try:
        check_fails = workload.check(work, checked, seed)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        check_fails = [f"check raised {exc!r}"]
    failed = len(calls) - len(ok)
    if check_fails:
        errors += check_fails
        failed = len(calls)
    untraced = [r for t, r in ok if not t]
    traced = [r for t, r in ok if t]
    if not untraced or (trace and not traced):
        raise SystemExit(f"{workload.name}: too few calls succeeded; errors: {errors}")
    print(f"{workload.name} seed={seed} calls={len(calls)} failed={failed}")
    if trace:
        metrics, count_errors = layer_summary(untraced, traced)
        errors += count_errors
    else:
        metrics = {}
        for name, unit in END_TO_END:
            values = [r[name] for r in untraced]
            print(describe(name, values, unit))
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"  {'failed_frac':<44} {failed / len(calls):.6g} ({failed}/{len(calls)})")
    for err in errors:
        print(f"  FAIL {err}")
    return {"correct": not errors, "attempted": len(calls), "failed": failed,
            "metrics": metrics}


def layer_summary(untraced, traced):
    """Per-layer medians over traced calls; counts must agree exactly between them."""
    from tracer import EXACT_COUNTS

    errors = []
    layers = [r["layers"] for r in traced]
    for fn, row in layers[0].items():
        for key in EXACT_COUNTS:
            seen = {lay[fn].get(key) for lay in layers}
            if len(seen) > 1:
                errors.append(f"{fn}.{key} differs between identical runs: {sorted(seen)}")
        if row.get("absent"):
            print(f"  {fn}: absent from the package, reported as 0")

    def value(fn, q, lay):
        row = lay[fn]
        if q == "us_per_rep":
            return 1e6 * row["s"] / row["reps"] if row.get("reps") else 0.0
        if q == "us_per_resample":
            return 1e6 * row["s"] / row["resamples"] if row.get("resamples") else 0.0
        return row.get(q, 0)

    metrics = {}
    for name, unit in per_layer_metrics():
        if name == "trace.overhead_s":
            continue
        fn, q = name.rsplit(".", 1)
        if q in EXACT_COUNTS:
            v = value(fn, q, layers[0])
        else:
            v = statistics.median([value(fn, q, lay) for lay in layers])
        metrics[name] = {"value": v, "unit": unit}
    wall_traced = statistics.median([r["wall_s"] for r in traced])
    wall_untraced = statistics.median([r["wall_s"] for r in untraced])
    metrics["trace.overhead_s"] = {"value": wall_traced - wall_untraced, "unit": "s"}
    for name, m in metrics.items():
        if m["value"]:
            print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    print(f"  traced wall {wall_traced:.6g} s (n={len(traced)}) against untraced "
          f"{wall_untraced:.6g} s (n={len(untraced)}); functions with all-zero "
          "figures were not called")
    return metrics, errors


def main() -> None:
    # the checks import the package under test, never an installed copy
    sys.path[:0] = [HERE, SRC]
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "sbergsma", "cli.py")):
        sys.exit(f"no sbergsma package under {SRC}: run from the root of a checkout")
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names}
    print(json.dumps(results if args.workload == "all" else results[names[0]]))


if __name__ == "__main__":
    main()
