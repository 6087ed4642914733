#!/usr/bin/env python3
"""Self-checks of the benchmark.

    python3 perfbench/selftest.py [WORKLOAD ...]

- BENCHMARK.json names exactly the workloads and metrics run.py reports.
- Two traced runs of a workload, each in its own interpreter, report the
  same counts, and each passes its output checks (a traced run also fails
  if its report bytes differ from those of its untraced pass).
- On qed-hj the wrappers see all 962 weak_reduce calls that a profile of
  the pipeline counts at the benchmark's defining commit.

Each traced run does a single pass (--seconds 0); all four workloads take
a few minutes.  Exits non-zero on the first failed check.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
QED_WEAK_REDUCE_CALLS = 962
DETERMINISTIC_UNITS = ("count", "records/call")


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = tuple(w["name"] for w in spec["workloads"])
    assert workloads == run.WORKLOADS, workloads
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END, end_to_end
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == dict(tracer.per_layer_units(), **run.TRACE_METRICS), \
        set(per_layer) ^ set(tracer.per_layer_units())


def traced_counts(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {name: item["value"] for name, item in result["metrics"].items()
            if item["unit"] in DETERMINISTIC_UNITS}


def main(argv):
    check_benchmark_json()
    print("ok BENCHMARK.json matches run.py")
    for workload in argv or run.WORKLOADS:
        first = traced_counts(workload)
        second = traced_counts(workload)
        differ = {k: (first[k], second.get(k)) for k in first
                  if first[k] != second.get(k)}
        assert not differ and first.keys() == second.keys(), differ
        print(f"ok {workload}: {len(first)} traced counts repeat exactly")
        if workload == "qed-hj":
            calls = first["dirac.weak_reduce.calls"]
            assert calls == QED_WEAK_REDUCE_CALLS, calls
            print(f"ok qed-hj: {calls} weak_reduce calls")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
