#!/usr/bin/env python3
"""The DTX benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the engine and the dtxbench program from this checkout (Release, into
.bench_build/perfbench), runs NAME for S seconds as fixed-work rounds made
from seed N, checks the results and prints one JSON object as the last line
of standard output. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones (spans written to .bench_build/perfbench/spans-*.tsv and
summarised on standard error). See perfbench/README.md.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("read_mostly", "update_contended", "dtxd_tcp")

# name -> unit. The first group is what --trace 0 prints, the second what
# --trace 1 prints; BENCHMARK.json lists the same names and units.
END_TO_END = {
    "setup_s": "s",
    "commit_tps": "1/s",
    "txn_p50_ms": "ms",
    "update_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "workload.xmark_ms": "ms",
    "workload.txns_ms": "ms",
    "dtx.load_ms": "ms",
    "dtx.start_ms": "ms",
    "client.submit_us": "us",
    "gen.busy_frac": "ratio",
    "gen.late_p99_ms": "ms",
    "open.txn_p50_ms": "ms",
    "open.txn_p99_ms": "ms",
    "open.update_p50_ms": "ms",
    "open.update_p99_ms": "ms",
    "open.samples": "count",
    "open.late_p99_ms": "ms",
    "open.busy_frac": "ratio",
    "txn_p90_ms": "ms",
    "txn_p99_ms": "ms",
    "update_p90_ms": "ms",
    "update_p99_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "abort_frac": "ratio",
    "txn_samples": "count",
    "read_samples": "count",
    "update_samples": "count",
    "rounds": "count",
    "rounds.stalled_frac": "ratio",
    "query.plan_hit_rate": "ratio",
    "query.compile_us": "us",
    "query.resolve_us": "us",
    "xpath.eval_us": "us",
    "xpath.nodes_per_query": "count",
    "lock.lockset_us": "us",
    "lock.locks_per_op": "count",
    "lock.table_us": "us",
    "lock.acq_per_txn": "count",
    "lock.conflicts_per_acq": "ratio",
    "wfg.wait_episodes_per_txn": "count",
    "wfg.deadlock_aborts": "count/round",
    "wfg.cycles_found": "count/round",
    "xupdate.apply_us": "us",
    "dtx.run_update_us": "us",
    "wal.persist_us": "us",
    "storage.log_bytes_per_update": "B",
    "storage.doc_growth": "ratio",
    "snapshot.chain_hit_ratio": "ratio",
    "snapshot.materializes": "count/round",
    "snapshot.clones": "count/round",
    "snapshot.cut_retries": "count/round",
    "snapshot.chain_bytes_peak": "B",
    "dtx.remote_ops_per_txn": "count",
    "dtx.snapshot_txn_frac": "ratio",
    "dtx.commit_resends": "count/round",
    "net.msgs_per_txn": "count",
    "net.bytes_per_txn": "B",
    "net.size_us": "us",
    "net.encode_us": "us",
    "net.decode_us": "us",
    "trace.overhead_frac": "ratio",
}
# Span name -> (per-layer metric, scale from microseconds). The metric is
# the mean self time of that span.
SPAN_METRICS = {
    "workload.xmark": ("workload.xmark_ms", 1e-3),
    "workload.txns": ("workload.txns_ms", 1e-3),
    "dtx.load": ("dtx.load_ms", 1e-3),
    "dtx.start": ("dtx.start_ms", 1e-3),
    "client.submit": ("client.submit_us", 1.0),
    "query.compile": ("query.compile_us", 1.0),
    "query.resolve": ("query.resolve_us", 1.0),
    "xpath.eval": ("xpath.eval_us", 1.0),
    "lock.lockset": ("lock.lockset_us", 1.0),
    "lock.table": ("lock.table_us", 1.0),
    "xupdate.apply": ("xupdate.apply_us", 1.0),
    "dtx.run_update": ("dtx.run_update_us", 1.0),
    "wal.persist": ("wal.persist_us", 1.0),
    "net.size": ("net.size_us", 1.0),
    "net.encode": ("net.encode_us", 1.0),
    "net.decode": ("net.decode_us", 1.0),
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds dtxbench (and dtxd) once per checkout; later
    runs only check that the build is current. Serialised by a lock file."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "dtxbench", "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=840)
            if done.returncode != 0:
                log(done.stdout[-4000:])
                log("run.py: build step failed: " + " ".join(step))
                return False
    return True


def stop_group(child):
    """Kills whatever is left of the child's process group and waits until
    the group is empty."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    for _ in range(400):
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.025)


def read_spans(path):
    spans = []
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        if header != ["name", "start_us", "end_us", "id", "parent", "txn"]:
            raise ValueError("unexpected span header %r" % header)
        for line in f:
            name, start, end, sid, parent, txn = line.rstrip("\n").split("\t")
            spans.append((name, float(start), float(end), int(sid), int(parent), int(txn)))
    return spans


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    child spans cover. Returns name -> list of self times (us)."""
    children = defaultdict(list)
    for name, start, end, sid, parent, txn in spans:
        if parent:
            children[parent].append((start, end))
    out = defaultdict(list)
    for name, start, end, sid, parent, txn in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[name].append(max(0.0, end - start - covered))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small documents and rounds (the smoke test)")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or not build():
        log("run.py: cannot build the engine from this checkout")
        return 1

    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    spans_path = os.path.join(BUILD, "spans-%s.tsv" % tag)
    workdir = os.path.join(BUILD, "work-%s" % tag)
    command = [os.path.join(BUILD, "dtxbench"), "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace, "--spans=" + spans_path,
               "--workdir=" + workdir, "--tiny=%d" % int(args.tiny)]
    # dtxbench and the dtxd daemons it forks share a fresh process group,
    # so nothing it started can outlive this script.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        stdout = ""
        log("run.py: dtxbench did not finish within 170 s")
    finally:
        stop_group(child)
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("run.py: dtxbench printed no result (exit %s)" % child.returncode)
        return 1

    metrics = dict(raw["metrics"])
    if args.trace and raw["correct"]:
        spans = read_spans(spans_path)
        by_name = self_times(spans)
        for span, (metric, scale) in SPAN_METRICS.items():
            values = by_name.get(span, [])
            metrics[metric] = scale * sum(values) / len(values) if values else 0.0
            metrics[metric + ".n"] = len(values)
        txn_self = by_name.get("txn", [])
        log("per-layer (traced run, %d spans in %s):" % (len(spans), spans_path))
        log("  %-30s %14s %-12s %s" % ("metric", "value", "unit", "samples"))
        for name, unit in PER_LAYER.items():
            count = metrics.get(name + ".n")
            log("  %-30s %14.4f %-12s %s" % (name, metrics.get(name, 0.0), unit,
                                             "n=%d" % count if count is not None else ""))
        if txn_self:
            log("  txn self time (submit to completion, minus client.submit): "
                "mean %.1f us over %d transactions" % (sum(txn_self) / len(txn_self),
                                                      len(txn_self)))
        log("  tracing overhead: traced rounds committed %.2f%% fewer txn/s than the "
            "untraced round on the same inputs (median over pairs)"
            % (100.0 * metrics.get("trace.overhead_frac", 0.0)))
    elif raw["correct"]:
        log("end-to-end: %s" % ", ".join(
            "%s=%.4g %s" % (k, metrics.get(k, 0.0), u) for k, u in END_TO_END.items()))
        log("  samples: txn n=%d, update n=%d" % (metrics.get("txn_samples", 0),
                                                  metrics.get("update_samples", 0)))

    if os.path.exists(spans_path):
        os.remove(spans_path)

    wanted = PER_LAYER if args.trace else END_TO_END
    correct = bool(raw["correct"]) and child.returncode == 0
    missing = [k for k in wanted if k not in metrics or not math.isfinite(metrics[k])]
    if correct and missing:
        log("run.py: metrics missing from dtxbench: %s" % ", ".join(missing))
        correct = False
    result = {"correct": correct, "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": {}}
    if correct:
        result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in wanted.items()}
    else:
        for error in raw.get("errors", []):
            log("run.py: check failed: " + error)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
