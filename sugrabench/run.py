"""Benchmark of sugraverify: seeded workloads, end-to-end and per-layer
metrics.

    python3 sugrabench/run.py --workload certificate --seed 1 --seconds 40 \
        --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one thread, a closed loop with one client: the next
op starts when the previous one has finished.  The loop stops once the ops
have been busy for ``--seconds``.  Every op checks its mathematical outcome;
an op that fails its check or raises counts as failed and the run goes on.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over fresh
interpreters of import plus input generation), ``ops_per_s`` (ops per busy
second), ``op_p50_s``, ``op_p90_s`` and ``peak_rss_mb``.  The failure
ratio is ``failed`` over ``attempted`` in the result line; it is not a
metric because it reads 0.

``--trace 1`` runs one round of ops with every layer wrapped (see
tracing.py), then the rest of the stream untraced for ``--seconds``, and
prints the per-layer metrics and the tracing overhead.  It also records the
digests of ``verify all --format json`` and ``enumerate --tables --format
json``, for information only: a report change is not an op failure.

Lines before the last one carry information (backend, Python version,
digest of the generated inputs); the last line is the JSON result.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
HELD_OUT_SEED = 7919


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("certificate", "planewave", "forms"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def info(**fields):
    print("info " + json.dumps(fields, sort_keys=True), flush=True)


def measure_setup(workload, seed):
    """Median set-up seconds over fresh interpreters."""
    samples = []
    for k in range(SETUP_PROBES):
        workdir = os.path.join(OUT, f"probe-{os.getpid()}-{k}")
        os.makedirs(workdir)
        try:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC,
                 workload, str(seed), workdir],
                capture_output=True, text=True, timeout=120, check=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples), samples


def run_op(w, i, call=None):
    """(seconds, ok) of op i; an op that raises is a failed op."""
    w.prepare(i)
    start = time.perf_counter()
    try:
        ok = bool(call(i) if call else w.run(i))
    except Exception:
        traceback.print_exc(limit=4, file=sys.stderr)
        ok = False
    return time.perf_counter() - start, ok


def timed_loop(w, seconds, start=0):
    """Latencies and failure count of ops start, start + 1, ... until
    busy >= seconds."""
    gc.collect()
    lat, failed, busy = [], 0, 0.0
    while busy < seconds:
        dt, ok = run_op(w, start + len(lat))
        lat.append(dt)
        busy += dt
        failed += not ok
    return lat, failed


def report_digests():
    """sha256 of the CLI's JSON reports, informational only."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = {}
    for label, args in (("verify_all", ["verify", "all"]),
                        ("enumerate_tables", ["enumerate", "--tables"])):
        proc = subprocess.run(
            [sys.executable, "-m", "sugraverify.cli", *args, "--format",
             "json"], capture_output=True, env=env, timeout=170)
        out[label] = {"exit": proc.returncode,
                      "sha256": hashlib.sha256(proc.stdout).hexdigest()}
    return out


def traced_run(w, seconds, workloads_module, name, seed):
    import tracing
    tracer = tracing.Tracer()
    n = w.round_ops
    tracer.install([workloads_module])
    try:
        gc.collect()
        traced = [run_op(w, i, lambda i: tracer.run_op(i, lambda: w.run(i)))
                  for i in range(n)]
    finally:
        tracer.uninstall()
    plane_waves = sum(w.plane_waves(i) for i in range(n))
    lat, failed = timed_loop(w, seconds, start=n)
    metrics = tracer.metrics(plane_waves)
    traced_rate = n / sum(dt for dt, _ in traced)
    untraced_rate = len(lat) / sum(lat)
    metrics["tracing.ops"] = n
    metrics["tracing.ops_per_s_traced"] = traced_rate
    metrics["tracing.ops_per_s_untraced"] = untraced_rate
    metrics["tracing.overhead_ops_per_s"] = untraced_rate - traced_rate
    path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed,
                   "fields": ["name", "op", "parent", "start", "end"],
                   "spans": tracer.spans}, fh)
    info(trace_file=os.path.relpath(path, ROOT), spans=len(tracer.spans),
         reports=report_digests())
    units = dict(tracing.METRICS)
    failed += sum(not ok for _, ok in traced)
    return n + len(lat), failed, {
        m: {"value": metrics[m], "unit": units[m]} for m in units}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sugraverify", "__init__.py")):
        print(f"error: no sugraverify sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC]
    os.makedirs(OUT, exist_ok=True)
    import sugraverify
    import workloads
    setup = None
    if not args.trace:
        setup = measure_setup(args.workload, args.seed)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, workdir)
        info(workload=args.workload, seed=args.seed,
             backend=sugraverify.BACKEND_NAME,
             python=platform.python_version(),
             inputs_digest=w.inputs_digest(), held_out_seed=HELD_OUT_SEED)
        if args.trace:
            attempted, failed, metrics = traced_run(
                w, args.seconds, workloads, args.workload, args.seed)
        else:
            lat, failed = timed_loop(w, args.seconds)
            attempted = len(lat)
            deciles = statistics.quantiles(lat, n=10)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            info(samples=attempted, fail_ratio=failed / attempted,
                 setup_samples=setup[1])
            metrics = {
                "setup_s": {"value": setup[0], "unit": "s"},
                "ops_per_s": {"value": attempted / sum(lat), "unit": "1/s"},
                "op_p50_s": {"value": statistics.median(lat), "unit": "s"},
                "op_p90_s": {"value": deciles[8], "unit": "s"},
                "peak_rss_mb": {"value": rss / 1024, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
