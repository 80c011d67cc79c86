#!/usr/bin/env python3
"""The benchmark's own tests.

  python3 perfbench/selftest.py

1. Smoke: every workload at a tiny volume, untraced and traced. Each result
   must match the schema BENCHMARK.json declares (exact keys, every listed
   metric with its unit, finite numbers) and pass every output check.
2. Negative: func.dat means nudged by one ulp after the first call, and a
   sample volume one short of the request, must land the affected calls in
   "failed" and turn "correct" false.

Exits 0 when everything holds, 1 otherwise.
"""

import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
FAILURES = []


def expect(condition, message):
    if not condition:
        FAILURES.append(message)
        print("FAIL: " + message, flush=True)


def result_of(label, code, lines):
    expect(code == 0, "%s: exit code %d" % (label, code))
    if code != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        expect(False, "%s: last line is not JSON: %r" % (label, lines[-1]))
        return None


def check_schema(label, result, declared):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           "%s: result keys %s" % (label, sorted(result)))
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           "%s: attempted %r" % (label, result["attempted"]))
    expect(isinstance(result["failed"], int), "%s: failed %r" % (label, result["failed"]))
    expected = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    expect(set(metrics) == set(expected),
           "%s: metrics differ from BENCHMARK.json: %s" % (
               label, sorted(set(metrics) ^ set(expected))))
    for name, metric in metrics.items():
        expect(set(metric) == {"value", "unit"}, "%s: %s keys %s" % (label, name, sorted(metric)))
        expect(metric.get("unit") == expected.get(name),
               "%s: %s unit %r" % (label, name, metric.get("unit")))
        value = metric.get("value")
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               "%s: %s value %r" % (label, name, value))


def smoke():
    for workload in run.WORKLOADS:
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            label = "smoke %s trace=%d" % (workload, trace)
            result = result_of(label, *run.run_benchmark(workload, 5, 0, trace, smoke=True))
            if result is None:
                continue
            check_schema(label, result, declared)
            expect(result["correct"] is True and result["failed"] == 0,
                   "%s: %d of %d calls failed" % (label, result["failed"], result["attempted"]))
            if trace == 0:
                for metric in SPEC["end_to_end"]:
                    expect(result["metrics"][metric["name"]]["value"] > 0,
                           "%s: %s is not positive" % (label, metric["name"]))
            print("ok   " + label, flush=True)


def negative():
    for workload in ("engine_floor", "matrix_exchange"):
        for inject in ("tamper-means", "short-volume"):
            label = "inject %s %s" % (inject, workload)
            result = result_of(label, *run.run_benchmark(workload, 5, 0, 0, smoke=True,
                                                      inject=inject))
            if result is None:
                continue
            check_schema(label, result, SPEC["end_to_end"])
            # The tamper leaves the first call, the reference, intact.
            spared = 1 if inject == "tamper-means" else 0
            expect(result["correct"] is False, "%s: still reported correct" % label)
            expect(result["failed"] == result["attempted"] - spared,
                   "%s: %d of %d calls failed" % (
                       label, result["failed"], result["attempted"]))
            print("ok   " + label, flush=True)


def main():
    expect({w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS),
           "BENCHMARK.json names a workload run.py does not know")
    if not run.build():
        return 1
    smoke()
    negative()
    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
