#!/usr/bin/env python3
"""Smoke test of the DTX benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at a tiny size (40 KB bases, 120-transaction rounds,
one second) through run.py, untraced and traced, and checks what the
harness relies on: the result line has exactly the contract's keys, the
run is correct with no failed transactions, every metric BENCHMARK.json
names is printed with its unit and a finite value, and dtxbench's own
accounting holds (attempted == committed + aborted + failed). Exits 0 when
everything passes.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DTXBENCH = os.path.join(ROOT, ".bench_build", "perfbench", "dtxbench")


def run(args):
    done = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("%s printed nothing:\n%s" % (" ".join(args), done.stderr[-3000:]))
    return done.returncode, json.loads(lines[-1]), done.stderr


def check(condition, message, failures):
    if not condition:
        failures.append(message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            tag = "%s trace=%d" % (workload, trace)
            code, result, stderr = run(["python3", "perfbench/run.py", "--workload", workload,
                                        "--seed", "7", "--seconds", "1", "--trace", str(trace),
                                        "--tiny"])
            check(code == 0, "%s: exit %d\n%s" % (tag, code, stderr[-2000:]), failures)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "%s: result keys %s" % (tag, sorted(result)), failures)
            check(result.get("correct") is True, "%s: not correct" % tag, failures)
            check(result.get("failed") == 0, "%s: %s failed" % (tag, result.get("failed")),
                  failures)
            check(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
                  "%s: attempted %r" % (tag, result.get("attempted")), failures)
            metrics = result.get("metrics", {})
            check(set(metrics) == set(wanted[trace]),
                  "%s: metric names differ from BENCHMARK.json: %s" % (
                      tag, sorted(set(metrics) ^ set(wanted[trace]))), failures)
            for name, unit in wanted[trace].items():
                got = metrics.get(name, {})
                check(got.get("unit") == unit, "%s: %s unit %r, want %r" % (
                    tag, name, got.get("unit"), unit), failures)
                value = got.get("value")
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      "%s: %s value %r" % (tag, name, value), failures)
        # dtxbench's raw line carries the outcome split run.py drops.
        workdir = os.path.join(ROOT, ".bench_build", "perfbench", "smoke-work")
        code, raw, stderr = run([DTXBENCH, "--workload=" + workload, "--seed=7", "--seconds=1",
                                 "--tiny=1", "--workdir=" + workdir])
        shutil.rmtree(workdir, ignore_errors=True)
        check(code == 0 and raw["correct"], "%s raw: not correct\n%s" % (workload, stderr[-2000:]),
              failures)
        check(raw["attempted"] == raw["committed"] + raw["aborted"] + raw["failed"],
              "%s raw: attempted %d != committed %d + aborted %d + failed %d" % (
                  workload, raw["attempted"], raw["committed"], raw["aborted"], raw["failed"]),
              failures)
        print("smoke: %s ok (%d attempted)" % (workload, raw["attempted"]), flush=True)
    for failure in failures:
        print("smoke: FAIL " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
