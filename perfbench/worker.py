"""One measurement process: set up a workload, run passes, check, report.

Started by run.py, which pins BLAS/OpenMP threads and puts the checkout's
`src` first on the import path.  `--setup-only` stops at the first timed
operation and prints the set-up time, raw and scaled to the nominal
reference speed; run.py starts a few of these to take a median.  The
untraced run (`--trace 0`) times whole passes back to back in one process
(closed loop, one client, no extra threads) while `RefSpeed` samples the
machine's speed.  The traced run (`--trace 1`) spends half of the time
untraced and half, but at least two passes, with spans recorded, and reports
the per-layer numbers of the traced passes; both halves sample the machine's
speed, for `trace.overhead_s`.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import inflap  # noqa: E402

import tracing  # noqa: E402
from refspeed import RefSpeed, setup_scale  # noqa: E402
from workloads import WORKLOADS, Ledger  # noqa: E402


def tail(samples):
    """Highest of p50/p90/p99/p99.9 with at least 10 samples beyond it."""
    n = len(samples)
    best = None
    for q in (50.0, 90.0, 99.0, 99.9):
        if n * (1.0 - q / 100.0) >= 10:
            k = int(np.ceil(q / 100.0 * n)) - 1
            best = (q, sorted(samples)[k])
    return best


def timed_passes(wl, budget, led, tracer=None, speed=None, min_passes=1):
    """Run whole passes for at most `budget` seconds.

    Another pass starts only while one more pass of the last one's length
    still fits in `budget`; the first `min_passes` passes always run.
    Each pass's outputs are checked into `led` right after it, outside its
    timed region.  Returns the pass times, the pass times at the nominal
    reference speed (with `speed`) and, when traced, the span index range
    of each pass.
    """
    times, nominal, ranges = [], [], []
    start = time.perf_counter()
    while True:
        lo = tracer.mark() if tracer else 0
        if speed:
            with speed:
                t0 = time.perf_counter()
                res = wl.run_pass()
                t1 = time.perf_counter()
            times.append(t1 - t0 - speed.spent_s)
            nominal.append(times[-1] * speed.factor())
        else:
            t0 = time.perf_counter()
            res = wl.run_pass()
            times.append(time.perf_counter() - t0)
        ranges.append((lo, tracer.mark() if tracer else 0))
        wl.check(res, led)
        if len(times) >= min_passes and \
                time.perf_counter() - start + times[-1] > budget:
            return times, nominal, ranges


def machine(args):
    src = os.path.join(ROOT, "src", "inflap")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    git = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            git = sha.stdout.strip() if sha.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    pins = {k: v for k, v in os.environ.items()
            if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"}
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_sha": git,
            "src_sha256": digest.hexdigest(), "thread_pins": pins,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--setup-samples", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(inflap.__file__).startswith(src):
        sys.exit("perfbench: inflap was not imported from %s" % src)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        setup = time.monotonic() - args.spawn_time
        sample = "%.9f:%.9f" % (setup, setup * setup_scale())
        if args.setup_only:
            print(sample)
            return 0
        return measure(args, wl, sample)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, setup_sample):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    led = Ledger()
    metrics = {}
    if args.trace:
        times, nominal, _ = timed_passes(wl, args.seconds / 2.0, led,
                                         speed=RefSpeed())
        tracer = tracing.Tracer()
        tracer.install()
        try:
            # two passes at least, so that the counters can be compared
            ttimes, tnominal, ranges = timed_passes(
                wl, args.seconds / 2.0, led, tracer, RefSpeed(), min_passes=2)
        finally:
            tracer.uninstall()
    else:
        times, nominal, _ = timed_passes(wl, args.seconds, led,
                                       speed=RefSpeed())
        samples = [[float(v) for v in s.split(":")] for s in
                   args.setup_samples.split(",") + [setup_sample] if s]
        setup_raw = statistics.median(raw for raw, _ in samples)
        metrics["wall_s"] = statistics.median(nominal)
        metrics["setup_s"] = statistics.median(scaled for _, scaled in samples)
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = list(led.problems)

    if args.trace:
        per_pass = [tracing.pass_metrics(tracer, lo, hi) for lo, hi in ranges]
        for key in per_pass[0]:
            vals = [p[key] for p in per_pass]
            if key not in tracing.COUNTERS:
                metrics[key] = statistics.median(vals)
                continue
            if len(set(vals)) > 1:
                problems.append("counter %s differs between passes: %s"
                                % (key, vals))
            metrics[key] = vals[0]
        metrics["solver.converged_ratio"] = \
            led.solver_ok / led.solver_ops if led.solver_ops else 1.0
        metrics["trace.overhead_s"] = \
            statistics.median(tnominal) - statistics.median(nominal)
        seen = set(tracer.names)
        missed = [name for name in wl.ENTRY_POINTS
                  if name in tracer.installed and name not in seen]
        problems += ["entry point %s recorded no span" % n for n in missed]
        absent = [n for n in wl.ENTRY_POINTS if n not in tracer.installed]
        not_measured = tracing.absent_metrics(tracer)
        for key in not_measured:
            del metrics[key]
        spans_path = os.path.join(OUT_DIR, "spans-%s-seed%d.tsv"
                                  % (args.workload, args.seed))
        tracer.write_tsv(spans_path)
    else:
        not_measured = []
    expected = {m["name"] for m in listed} - set(not_measured)
    if set(metrics) != expected:
        sys.exit("perfbench: metrics %s do not match BENCHMARK.json"
                 % sorted(set(metrics) ^ expected))

    info = machine(args)
    fail_frac = led.failed / led.attempted
    t = tail(nominal)
    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed,
                                            args.trace))
    print("machine: " + json.dumps(info, sort_keys=True))
    print("wall_s: median %.6f s at the nominal reference speed over %d "
          "%spasses; %s; raw median %.6f s"
          % (statistics.median(nominal), len(nominal),
             "untraced " if args.trace else "",
             "p%g %.6f s" % t if t else
             "no percentile has 10 samples beyond it",
             statistics.median(times)))
    print("fail_frac: %d/%d = %.6f" % (led.failed, led.attempted, fail_frac))
    print("max_err: %.6e (each reference has its own bound)" % led.max_err)
    if args.trace:
        print("trace.passes: %d traced, %d untraced; spans in %s"
              % (len(ttimes), len(times), os.path.relpath(spans_path, ROOT)))
        for name in absent:
            print("entry point %s not present in this version" % name)
        for name in not_measured:
            print("%-36s absent: its entry point is not in this version"
                  % name)
    else:
        print("setup: median raw %.6f s over %d processes, %.6f s at the "
              "nominal reference speed" % (setup_raw, len(samples),
                                           metrics["setup_s"]))
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in listed if m["name"] in metrics}
    for name, m in out.items():
        print("%-36s %.9g %s" % (name, m["value"], m["unit"]))
    for p in problems:
        print("problem: " + p, file=sys.stderr)

    record = {"correct": not problems, "attempted": led.attempted,
              "failed": led.failed, "metrics": out}
    with open(os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(dict(record, machine=info, problems=problems,
                       pass_times=times, pass_nominal=nominal, wall_s_tail=t,
                       traced_pass_times=ttimes if args.trace else None,
                       traced_pass_nominal=tnominal if args.trace else None,
                       fail_frac=fail_frac, max_err=led.max_err,
                       absent_metrics=not_measured,
                       setup_samples=None if args.trace else samples),
                  fh, indent=1, sort_keys=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
