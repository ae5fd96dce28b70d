#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and measures one workload.

    python3 perfbench/run.py --workload sweep|tune|native|serve --seed N \
        --seconds S --trace 0|1 [--threads T]

Run it from the repository root.  The first call configures and builds the
program and the perfbench binary as Release under .bench_build/ (a few
minutes); later calls only check that the build is current.  The last line
of standard output is the binary's JSON result.  The exit code is the
binary's: 0 for a checked run, 3 when an output did not match its
reference; 1 when the build or the run failed.
"""

import argparse
import fcntl
import os
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
BUILD_TIMEOUT_S = 700  # so that a first call, build included, ends within 15 min
OPTIMISED = {"Release", "RelWithDebInfo"}


def run_group(command, out):
    """Runs a build step in its own process group; on timeout, kills the group."""
    child = subprocess.Popen(command, stdout=out, stderr=subprocess.STDOUT,
                             start_new_session=True)
    try:
        return child.wait(timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return -1


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(BUILD / ".lock", "w") as lock, open(log, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if run_group(step, out) != 0:
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                tail = log.read_text(errors="replace").splitlines()[-20:]
                sys.exit("perfbench: build failed:\n" + "\n".join(tail))
    cache = (BUILD / "CMakeCache.txt").read_text(errors="replace")
    build_type = next((line.split("=", 1)[1] for line in cache.splitlines()
                       if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type not in OPTIMISED:
        sys.exit(f"perfbench: refusing to measure a '{build_type}' build")
    return BUILD / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "tune", "native", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--threads", type=int,
                        help="sweep and tune load threads (default 1)")
    args = parser.parse_args()

    binary = build()
    WORK.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", str(WORK)]
    if args.threads is not None:
        command += ["--threads", str(args.threads)]
    try:
        # Headroom over --seconds for set-up, the last pass and the checks.
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: the run did not finish in time")
    sys.stdout.write(result.stdout)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
