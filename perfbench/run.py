#!/usr/bin/env python3
"""RelKit's benchmark: builds the library, relkit_cli, relkit_serve and the
benchmark program (relkit_perfbench) from this checkout, optimized, then
runs one workload.

    python3 perfbench/run.py --workload ctmc_grid --seed 1 --seconds 55 --trace 0

Workloads: ctmc_grid, srn_pools, serve_mixed, rare_event. With --trace 0 the
program prints every end-to-end metric, with --trace 1 the per-layer ledger.
The last line of standard output is the JSON result; the exit code is 1
when an answer check failed. See perfbench/README.md.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# A run's own bound: relkit_perfbench stops every child it starts well before.
RUN_TIMEOUT_S = 175


def build(jobs):
    """Configures (once) and builds the benchmark targets; build output goes
    to .bench_build/build.log so standard output stays the benchmark's."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(jobs), "--target",
                  "relkit_perfbench", "relkit_cli", "relkit_serve_bin"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ctmc_grid", "srn_pools", "serve_mixed",
                                 "rare_event"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    jobs = len(os.sched_getaffinity(0))
    if not build(jobs):
        return 2
    trace_out = os.path.join(
        BUILD, "trace-%s-%d.json" % (args.workload, args.seed))
    command = [os.path.join(BUILD, "relkit_perfbench"), "run",
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--jobs", str(jobs),
               "--tools", os.path.join(BUILD, "relkit_tools"),
               "--models", os.path.join(ROOT, "examples", "models"),
               "--references", os.path.join(HERE, "references.json"),
               "--trace-out", trace_out]
    sys.stdout.flush()
    # Its own process group, so a stuck run takes its children down with it.
    bench = subprocess.Popen(command, start_new_session=True)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        sys.stderr.write("perfbench: run stopped\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
