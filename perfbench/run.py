#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload fleet-churn --seed 7 --seconds 20 --trace 0 [--rev REV]

The program's report lines and, as the last line of stdout, its JSON
result are passed through unchanged.  Build output goes to stderr.
Exits non-zero, without a result, if the checkout is incomplete, the
build fails or the program fails.
"""

import argparse
import os
import subprocess
import sys
import time

WORKLOADS = ["fleet-churn", "serve-open", "app-cycle", "filebench-io"]
TARGET = "./perfbench/main.exe"
EXE = "./_build/default/perfbench/main.exe"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fastest_cpu():
    """The CPU, of those this process may use, that runs a fixed loop
    fastest right now.

    On a shared VM one vCPU can run 1.6x slower than the other for
    minutes.  The program runs pinned to one CPU, so its host-speed
    probe times the CPU its calls run on (fleet-churn's calls run on a
    pool domain, not on the probing one), and that CPU is the faster.
    """
    allowed = os.sched_getaffinity(0)

    def loop_s(cpu):
        os.sched_setaffinity(0, {cpu})
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            x = 1
            for i in range(50000):
                x = (x * 31 + i) & 0xFFFF
            times.append(time.perf_counter() - t0)
        return sorted(times)[2]

    try:
        return min(sorted(allowed), key=loop_s)
    finally:
        os.sched_setaffinity(0, allowed)


def run(cmd, timeout, stdout, cpu=None):
    """Run [cmd] to completion, pinned to [cpu] if given; the process is
    killed and reaped on timeout."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    with subprocess.Popen(cmd, stdout=stdout, preexec_fn=pin) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
            return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--rev", default="", help="source revision to record in the manifest line")
    args = ap.parse_args()

    for needed in ["dune-project", "lib", os.path.join("perfbench", "dune")]:
        if not os.path.exists(needed):
            print(f"run.py: {needed} not found; run from the repository root", file=sys.stderr)
            return 2

    # --root keeps dune from adopting an enclosing project; the shared
    # cache is off so the build writes only under _build.
    build = ["dune", "build", "--root", ".", "--cache=disabled", TARGET]
    if run(build, BUILD_TIMEOUT_S, sys.stderr) != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    program = [EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--rev", args.rev]
    return run(program, RUN_TIMEOUT_S, None, cpu=fastest_cpu())


if __name__ == "__main__":
    sys.exit(main())
