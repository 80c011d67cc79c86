#!/usr/bin/env python3
"""Engine benchmark entry point.

Builds the perfbench program against the library sources of this checkout
(into .bench_build/perfbench) and runs one workload:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of stdout is the program's JSON result. With --workload all it
runs every workload untraced and traced and prints one table of every
metric by name and unit, then a JSON summary line. selftest.py calls
run_benchmark directly for tiny volumes (smoke) and deliberately corrupted
output (inject).
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["engine_floor", "fine_grain_default", "draw_heavy", "matrix_exchange"]
# A hung run is stopped well inside three minutes.
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures once and (re)builds the program; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/; nothing to build")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                log("build step failed: " + " ".join(step))
                return False
    return True


def run_benchmark(workload, seed, seconds, trace, smoke=False, inject=None):
    """Runs the program once; returns (exit code, stdout lines)."""
    tag = "%s-%d-%d" % (workload, trace, os.getpid())
    workdir = os.path.join(ROOT, ".bench_build", "work", tag)
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir]
    if trace:
        args += ["--trace-out", os.path.join(ROOT, ".bench_build",
                                             "trace-%s.json" % workload)]
    if smoke:
        args.append("--smoke")
    if inject:
        args += ["--inject", inject]
    # Its own session, so a timeout can stop the program together with the
    # rank processes it forked.
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, stdout.splitlines()


def run_all(args):
    """Every workload, untraced then traced: one table and a summary line."""
    attempted = failed = 0
    correct = True
    summary = {}
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_benchmark(workload, args.seed, args.seconds, trace)
            if code != 0 or not lines:
                log("%s --trace %d failed (exit %d)" % (workload, trace, code))
                return 1
            for line in lines[:-1]:
                print("%s: %s" % (workload, line))
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["correct"]
            for name, metric in result["metrics"].items():
                rows.append((workload, name, metric["value"], metric["unit"]))
                summary["%s.%s" % (workload, name)] = metric
            rows.append((workload, "runs_failed", result["failed"],
                         "of %d" % result["attempted"]))
    for workload, name, value, unit in rows:
        print("%-20s %-32s %16.6g %s" % (workload, name, value, unit))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not build():
        return 1
    if args.workload == "all":
        return run_all(args)
    code, lines = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
