#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Builds the simulator and the benchmark driver from source into
.bench_build/ (Release), times set-up over several fresh processes, runs
the workload's timed loop and output checks, prints every metric by name
with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set. The driver prints a per-layer metric of a
layer the workload does not use as 0; a metric of the set that is
missing fails the run. Exits 0 when every output check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("suite_exact", "suite_sampled", "cluster_fleet",
             "cluster_chaos_obs")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
# Set-up is timed in this many fresh processes; the median is reported.
# A spawn costs about 2 ms, and set-up varies by about 20% from one
# process to the next.
SETUP_SPAWNS = 31
# Wall budget of everything after the build: a run must end within 180 s.
RUN_DEADLINE_S = 170.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(target="perfbench"):
    """Configure (cheap when cached) and build `target`; False on error."""
    cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "Makefile")):
        cmd += ["-G", "Ninja"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", target]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def spawn(args, deadline):
    """Run the driver; the spawn instant is passed so set-up counts exec."""
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(
        [os.path.join(BUILD, "perfbench"), "--t0-ns", str(t0)] + args,
        stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out.splitlines()


def parse(lines):
    """Collect the driver's SETUP, METRIC and OPS lines."""
    found = {"setup": None, "metrics": {}, "ops": None}
    for line in lines:
        kind, _, rest = line.partition(" ")
        if kind == "SETUP":
            found["setup"] = float(rest)
        elif kind == "METRIC":
            name, value, unit = rest.split()
            found["metrics"][name] = (float(value), unit)
        elif kind == "OPS":
            found["ops"] = tuple(int(x) for x in rest.split())
    return found


def summarize(spec, found, setups, trace):
    """The result object, plus the names of metrics that break the spec.

    Every metric the driver prints must be declared in BENCHMARK.json
    with the same unit, and every metric of the run's set (end-to-end,
    or per-layer when traced) must be present; each violation counts as
    a failed operation, like a failed output check.
    """
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    measured = dict(found["metrics"])
    measured["setup_s"] = (statistics.median(setups), "s")
    problems = [name for name, (_, unit) in measured.items()
                if declared.get(name) != unit]
    metrics = {}
    for m in spec["per_layer"] if trace else spec["end_to_end"]:
        if m["name"] not in measured:
            problems.append(m["name"])
            continue
        metrics[m["name"]] = {"value": measured[m["name"]][0],
                              "unit": m["unit"]}
    attempted, failed = found["ops"]
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted + len(problems),
              "failed": failed + len(problems),
              "metrics": metrics}
    return result, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="workload seed (default %d; seed %d is held out for checking "
        "a claimed gain)" % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not build():
        log("run.py: build failed")
        return 1

    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        for _ in range(SETUP_SPAWNS - 1):
            code, lines = spawn(common + ["--setup-only"], deadline)
            if code != 0:
                log("run.py: set-up failed")
                return 1
            setups.append(parse(lines)["setup"])
        run_args = common + ["--seconds", str(args.seconds),
                             "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            run_args += ["--trace-out", os.path.join(
                traces, "%s-%d.json" % (args.workload, args.seed))]
        code, lines = spawn(run_args, deadline)
    except subprocess.TimeoutExpired:
        log("run.py: run exceeded %.0f s" % RUN_DEADLINE_S)
        return 1
    for line in lines:
        print(line)
    found = parse(lines)
    if found["setup"] is None or found["ops"] is None:
        log("run.py: driver exited %d without a result" % code)
        return 1

    result, problems = summarize(spec, found, setups + [found["setup"]],
                                 args.trace)
    result["correct"] = result["correct"] and code == 0
    for name in problems:
        print("CHECK FAIL metric %s missing or undeclared" % name)
    print("fail_frac %.6g (%d of %d operations failed)"
          % (result["failed"] / result["attempted"], result["failed"],
             result["attempted"]))
    for name, m in result["metrics"].items():
        print("%s %.10g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
