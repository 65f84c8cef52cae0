#!/usr/bin/env python3
"""Repository benchmark runner.

Run from the root of a source checkout:

    python3 repobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see main.cpp): hotpotato_seq, hotpotato_tw4, phold_remote4.

The runner builds the benchmark from ../src into .bench_build/repobench
(CMake, the repository's RelWithDebInfo build type; the first run compiles
the library, later runs are incremental). It then runs the binary once in
reference mode, on the reference kernels, and PROCESSES times in timed mode for
--seconds/PROCESSES each. Fresh processes matter: on a shared host the
memory a process lands on moves hot-potato throughput by up to ~25% for the
life of the process, so one run samples several processes. Each timed
process discards one warm-up repetition on every workload.

The end-to-end times and rates are the fast decile of the run's
repetitions (see fast_decile), peak RSS is the median over the processes,
and the other per-layer metrics are medians over the traced repetitions. Every
repetition's committed result
(whole model channel or PHOLD digest, and the committed event count) must
equal the reference run's; one that differs, or a process that aborts or
stalls, counts as failed.

stdout: a provenance line (host, compiler, build type, source identity),
then as the last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics (from
repetitions under the TimedModel decorator) for --trace 1. Peak RSS is a
per-layer metric: under Time Warp the envelope pool's growth follows thread
timing, and PHOLD's peak moves 76-145 MB between processes on a shared
host, more than an end-to-end bound can hold. Without the
library sources, or when the build fails or is refused (unoptimised or
HP_PARANOID), the runner exits non-zero and prints no result.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "repobench")
BINARY = os.path.join(BUILD, "repobench")
WORKLOADS = ("hotpotato_seq", "hotpotato_tw4", "phold_remote4")
PROCESSES = 4
# Slack on top of a process's measuring time before it counts as stalled,
# and the whole run's budget once built.
STALL_SLACK_S = 30
RUN_BUDGET_S = 170


def log(msg):
    print(f"repobench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: the last stdout line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def source_identity():
    """Git sha when the checkout is a git repository, and a content hash of
    src/ that identifies the measured program either way."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    sha = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


class Refused(Exception):
    """The binary rejected its arguments (2) or its build (3)."""


def run_binary(args, timeout):
    """Runs the binary and parses its JSON lines. Returns (records, ok);
    ok is False when it aborted or stalled (subprocess.run kills and reaps
    it on timeout)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, timeout))
        out, code = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired as e:
        out, code = e.stdout or "", None
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        log(f"{' '.join(args)}: stalled, killed after {timeout:.0f} s")
    if code in (2, 3):
        raise Refused(code)
    if code not in (0, None):
        log(f"{' '.join(args)}: exited with code {code}")
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            break  # a line cut short by an abort
    return records, code == 0


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rep):
    """Per-layer metrics of one traced repetition: name -> (unit, value)."""
    c, ph, h = rep["counters"], rep["phase_s"], rep["handlers"]
    pe_seconds = rep["run_s"] * rep["pes"]
    committed = c["committed_events"]
    return {
        "net.mapping_build_s": ("s", rep["mapping_s"]),
        "hotpotato.model_build_s": ("s", rep["model_s"]),
        "des.engine_build_s": ("s", rep["engine_s"]),
        "model.forward_calls": ("count", h["forward_calls"]),
        "model.forward_ns_per_call": ("ns", h["forward_ns_per_call"]),
        "model.reverse_calls": ("count", h["reverse_calls"]),
        "model.reverse_ns_per_call":
            ("ns", ratio(h["reverse_ns"], h["reverse_calls"])),
        "model.commit_calls": ("count", h["commit_calls"]),
        "des.committed": ("count", committed),
        "des.run_s": ("s", rep["run_s"]),
        # Kernel time per committed event once the model handlers are out:
        # pending set, pool, scheduler, and on Time Warp the remote path,
        # rollback and GVT.
        "des.self_ns_per_event":
            ("ns", ratio(pe_seconds * 1e9 - h["handler_ns"], committed)),
        "des.phase_coverage": ("ratio", ratio(sum(ph.values()), pe_seconds)),
        "des.phase.gvt_s": ("s", ph["gvt_barrier"] + ph["gvt_epoch"]),
        "des.gvt_rounds": ("count", rep["gvt_rounds"]),
        "des.phase.fossil_s": ("s", ph["fossil"]),
        "des.phase.inbox_drain_s": ("s", ph["inbox_drain"]),
        "des.inbox_batches": ("count", c["inbox_batches"]),
        "des.avg_inbox_batch":
            ("count", ratio(c["inbox_batched_items"], c["inbox_batches"])),
        "des.phase.rollback_s": ("s", ph["rollback"]),
        "des.rolled_back": ("count", c["rolled_back_events"]),
        "des.efficiency": ("ratio", ratio(committed, c["processed_events"])),
        "des.primary_rollbacks": ("count", c["primary_rollbacks"]),
        "des.secondary_rollbacks": ("count", c["secondary_rollbacks"]),
        "des.anti_messages": ("count", c["anti_messages"]),
        "des.phase.forward_s": ("s", ph["forward"]),
        "des.phase.idle_s": ("s", ph["idle"]),
        "des.phase.throttled_s": ("s", ph["throttled"]),
        "des.idle_spins": ("count", c["idle_spins"]),
        "des.pool_peak_live": ("count", c["pool_peak_live_envelopes"]),
        "des.pool_bytes": ("bytes", c["pool_bytes"]),
        "hotpotato.collect_s": ("s", rep["collect_s"]),
    }


def fast_decile(times):
    """The 10th percentile of a run's repetition times.

    The shared host slows whole stretches of a run by up to ~40%, but never
    speeds one up, so the fast decile moves ~3x less between runs than the
    median does."""
    times = list(times)
    return statistics.quantiles(times, n=10)[0] if len(times) > 1 else times[0]


def metrics_of(plain, traced, rss, attempted, failed):
    if traced:
        per_rep = [layer_metrics(r) for r in traced]
        out = {name: {"value": statistics.median(m[name][1] for m in per_rep),
                      "unit": unit}
               for name, (unit, _) in per_rep[0].items()}
        overhead = ratio(statistics.median(r["run_s"] for r in traced),
                         statistics.median(r["run_s"] for r in plain))
        out["bench.trace_overhead"] = {"value": overhead, "unit": "ratio"}
        out["bench.failed_share"] = {"value": ratio(failed, attempted),
                                     "unit": "ratio"}
        out["process.peak_rss_mb"] = {"value": statistics.median(rss),
                                      "unit": "MB"}
        return out
    # A correct run commits the same events on every repetition.
    committed = plain[0]["counters"]["committed_events"]
    return {
        "events_per_s": {
            "value": committed / fast_decile(r["run_s"] for r in plain),
            "unit": "1/s"},
        "wall_s": {"value": fast_decile(r["wall_s"] for r in plain),
                   "unit": "s"},
        "setup_s": {"value": fast_decile(r["setup_s"] for r in plain),
                    "unit": "s"},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(SRC, "des", "engine.hpp")):
        log(f"library sources not found under {SRC}")
        return 2
    if not build():
        log("build failed")
        return 1

    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    per_process_s = args.seconds / PROCESSES
    attempted = failed = 0
    plain, traced, rss = [], [], []
    try:
        # The reference runs first, in its own process, outside every timed
        # region and without inflating the timed processes' peak RSS.
        records, ok = run_binary(common + ["--reference"],
                                 deadline - time.monotonic())
        provenance = next((r["provenance"] for r in records
                           if "provenance" in r), {})
        checks = next((r["reference"] for r in records
                       if "reference" in r), [])
        outcomes = {c["outcome"] for c in checks}
        reference = outcomes.pop() if ok and len(outcomes) == 1 else None
        if reference is None:
            log(f"reference kernels disagree or failed: {checks}")
        for _ in range(PROCESSES):
            remaining = deadline - time.monotonic()
            if remaining < per_process_s:
                log("run budget exhausted")
                attempted += 1
                failed += 1
                break
            records, ok = run_binary(
                common + ["--seconds", repr(per_process_s),
                          "--trace", str(args.trace)],
                min(remaining, per_process_s + STALL_SLACK_S))
            reps = [r["rep"] for r in records if "rep" in r]
            attempted += len(reps)
            failed += sum(r["outcome"] != reference for r in reps)
            if not ok:
                attempted += 1
                failed += 1
            plain += [r for r in reps if not r["traced"]]
            traced += [r for r in reps if r["traced"]]
            rss += [r["process"]["peak_rss_mb"] for r in records
                    if "process" in r]
    except Refused as e:
        return e.args[0]

    provenance.update(source_identity())
    provenance.update({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "processes": PROCESSES})
    print(json.dumps({"provenance": provenance}))
    have_all = plain and rss and (traced or not args.trace)
    result = {
        "correct": failed == 0 and reference is not None and bool(have_all),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics_of(plain, traced, rss, attempted, failed)
        if have_all else {},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
