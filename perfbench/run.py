"""Benchmark launcher for inflap.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: ball-const, ball-exp, cascade-1d, cli-lab (see README.md).  The
launcher pins BLAS/OpenMP to one thread, puts the checkout's `src` first on
the import path and runs worker.py in a child process.  With `--trace 0` it
first starts four set-up probes, so that `setup_s` is a median of five
set-ups.  The last line of standard output is the JSON result.  Without
`src/inflap` in the checkout it exits with code 1 and prints no result.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("ball-const", "ball-exp", "cascade-1d", "cli-lab")
PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 4
DEADLINE_S = 170.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "inflap", "__init__.py")):
        sys.exit("perfbench: no src/inflap under %s" % ROOT)

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0")
    env.update((k, "1") for k in PINS)
    base = [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    deadline = time.monotonic() + DEADLINE_S

    def child(extra, capture):
        t = time.monotonic()
        cmd = base + ["--spawn-time", repr(t)] + extra
        return subprocess.run(cmd, env=env, cwd=ROOT, timeout=deadline - t,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)

    try:
        samples = []
        for _ in range(SETUP_PROBES if not args.trace else 0):
            probe = child(["--setup-only"], capture=True)
            if probe.returncode != 0:
                return probe.returncode
            samples.append(probe.stdout.strip().splitlines()[-1])
        return child(["--setup-samples", ",".join(samples)],
                     capture=False).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %.0f s" % DEADLINE_S)


if __name__ == "__main__":
    sys.exit(main())
