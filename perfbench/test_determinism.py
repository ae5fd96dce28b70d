#!/usr/bin/env python3
"""The benchmark's own test: its deterministic metrics repeat exactly.

    python3 perfbench/test_determinism.py [--fig12 PATH-TO-fig12_speedup]

Runs every workload twice (short runs, seed 1) and checks that the metrics
which depend only on the seed repeat bit for bit: sim_speedup_geomean and
ok_share (end to end), compiler.fibers, harness.tune.* and
native.transfers (per layer).  It also runs sweep with 1 and with 4 load
threads and checks the same metrics, and checks that every metric the
binary prints is declared in BENCHMARK.json with the same unit.  With
--fig12, it runs fig12_speedup in a temporary directory and checks that
sweep's sim_speedup_geomean equals the geomean over its BENCH_fig12.json.
Exit 0 when every check passes.
"""

import argparse
import json
import math
import pathlib
import subprocess
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's build step)

SECONDS = "1"
END_TO_END = ["sim_speedup_geomean", "ok_share"]
PER_LAYER = {
    "sweep": ["compiler.fibers", "compiler.candidates"],
    "tune": ["compiler.fibers", "harness.tune.enumerated",
             "harness.tune.simulated", "harness.tune.infeasible",
             "model.predict_calls"],
    "native": ["native.transfers"],
    "serve": ["service.hit_share"],
}

failures = []


def measure(binary, workload, trace, threads=None):
    command = [str(binary), "--workload", workload, "--seed", "1",
               "--seconds", SECONDS, "--trace", trace,
               "--work-dir", str(run.WORK / "test")]
    if threads is not None:
        command += ["--threads", str(threads)]
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         check=True, timeout=600).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        failures.append(f"{workload}: outputs did not check")
    return result["metrics"]


def same(what, names, a, b):
    for name in names:
        if a[name]["value"] != b[name]["value"]:
            failures.append(f"{what}: {name} {a[name]['value']!r} != "
                            f"{b[name]['value']!r}")


def check_declared(metrics, declared):
    for name, entry in metrics.items():
        if declared.get(name) != entry["unit"]:
            failures.append(f"{name} [{entry['unit']}] is not declared in "
                            "BENCHMARK.json with that unit")


def fig12_geomean(fig12):
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        # Resolved first: it runs in the temporary directory.
        subprocess.run([str(pathlib.Path(fig12).resolve())], cwd=tmp, stdout=subprocess.DEVNULL,
                       check=True, timeout=600)
        points = json.loads(
            (pathlib.Path(tmp) / "BENCH_fig12.json").read_text())["points"]
    logs = [math.log(p["metrics"]["speedup"]) for p in points]
    return math.exp(sum(logs) / len(logs))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fig12", help="a built fig12_speedup binary")
    args = parser.parse_args()

    binary = run.build()
    (run.WORK / "test").mkdir(parents=True, exist_ok=True)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}

    for workload in ["sweep", "tune", "native", "serve"]:
        first, second = (measure(binary, workload, "0") for _ in range(2))
        same(f"{workload} rerun", END_TO_END, first, second)
        check_declared(first, declared)
        first, second = (measure(binary, workload, "1") for _ in range(2))
        same(f"{workload} traced rerun", PER_LAYER[workload], first, second)
        check_declared(first, declared)

    one, four = measure(binary, "sweep", "0", 1), measure(binary, "sweep", "0", 4)
    same("sweep 1 vs 4 threads", END_TO_END, one, four)
    one, four = measure(binary, "sweep", "1", 1), measure(binary, "sweep", "1", 4)
    same("sweep traced 1 vs 4 threads", PER_LAYER["sweep"], one, four)

    if args.fig12:
        expected = fig12_geomean(args.fig12)
        got = measure(binary, "sweep", "0")["sim_speedup_geomean"]["value"]
        if abs(got - expected) > 1e-12 * expected:
            failures.append(f"sweep sim_speedup_geomean {got!r} != fig12 "
                            f"geomean {expected!r}")

    for failure in failures:
        print("FAIL", failure)
    print("ok" if not failures else f"{len(failures)} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
