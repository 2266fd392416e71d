#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

Usage (from the repository root): python3 perfbench/selftest.py

Checks that every name in BENCHMARK.json follows the metric grammar, that
run.py refuses undeclared, mis-united or missing metrics and failed
output checks, then builds and runs perfbench_selftest (the ledger adds
up at a tiny budget; tampered reports, jobs and dumps fail the checks).
Exits 0 when everything passes.
"""

import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the source tree free of caches
import run  # noqa: E402  (the runner, imported from this directory)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(failures, ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def spec_names(spec, failures):
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    bad = [n for n in names if not NAME.match(n)]
    check(failures, not bad, "names follow [A-Za-z0-9_.-] (bad: %s)" % bad)
    check(failures, len(names) == len(set(names)), "names are unique")
    bad = [m["unit"] for m in metrics if not UNIT.match(m["unit"])]
    check(failures, not bad, "units follow the unit grammar (bad: %s)" % bad)
    check(failures, set(run.WORKLOADS) == {w["name"] for w in
                                           spec["workloads"]},
          "run.py and BENCHMARK.json name the same workloads")


def summarize_rules(spec, failures):
    e2e = {m["name"]: (1.0, m["unit"]) for m in spec["end_to_end"]
           if m["name"] != "setup_s"}

    def found(metrics, ops=(10, 0)):
        return {"setup": 0.01, "metrics": metrics, "ops": ops}

    result, _ = run.summarize(spec, found(e2e), [0.01], 0)
    check(failures, result["correct"] and
          set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]},
          "a complete report is correct and has every end-to-end metric")
    result, _ = run.summarize(spec, found(dict(e2e, **{"typo_s": (1.0, "s")})),
                              [0.01], 0)
    check(failures, not result["correct"], "an undeclared metric fails")
    name = next(iter(e2e))
    result, _ = run.summarize(spec, found(dict(e2e, **{name: (1.0, "zz")})),
                              [0.01], 0)
    check(failures, not result["correct"], "a metric with a wrong unit fails")
    result, _ = run.summarize(
        spec, found({k: v for k, v in e2e.items() if k != name}), [0.01], 0)
    check(failures, not result["correct"], "a missing end-to-end metric fails")
    result, _ = run.summarize(spec, found(e2e, ops=(10, 1)), [0.01], 0)
    check(failures, not result["correct"] and result["failed"] == 1,
          "a failed output check fails the run")
    layer = {m["name"]: (0.0, m["unit"]) for m in spec["per_layer"]}
    result, _ = run.summarize(spec, found(layer), [0.01], 1)
    check(failures, result["correct"] and
          set(result["metrics"]) == set(layer),
          "a complete traced report is correct and has every per-layer "
          "metric")
    name = next(iter(layer))
    result, _ = run.summarize(
        spec, found({k: v for k, v in layer.items() if k != name}), [0.01], 1)
    check(failures, not result["correct"],
          "a missing per-layer metric fails a traced run")


def main():
    failures = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    spec_names(spec, failures)
    summarize_rules(spec, failures)
    built = run.build("perfbench_selftest")
    check(failures, built, "perfbench_selftest builds")
    if built:
        code = subprocess.run(
            [os.path.join(run.BUILD, "perfbench_selftest")]).returncode
        check(failures, code == 0, "perfbench_selftest passes")
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
