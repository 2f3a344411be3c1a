#!/usr/bin/env python3
"""Run one benchmark workload of the ABNDP simulator and report its metrics.

    python3 perfbench/run.py --workload pr-hlbmig --seed 1 --seconds 20 \
        --trace 0

Builds the simulator library and the cell driver from source into
.bench_build/perfbench (Release), then starts one perfbench_cell process
per repetition until --seconds have passed. Every repetition is verified,
and the digest of its stats-registry dump must equal the first one's.
With --trace 1, untraced and traced repetitions alternate: the traced
ones wrap the scheduling policy and the workload in timing probes, must
dump the same stats, and give the per-layer metrics.

Prints every metric with its unit and sample count, then, as the last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exits nonzero when any repetition fails. --self-test builds and runs
the decorator-fidelity test instead. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("pr-hlbmig", "bfs-b-ddr", "kv-serve")
SERVING = {"kv-serve"}
# At least this many repetitions (pairs when traced) per invocation, so
# every median has samples on both sides.
MIN_REPS = 3
CELL_TIMEOUT_S = 120


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(target):
    """Configure (once) and build @target; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: simulator sources not found at", ROOT / "src")
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / target


def run_cell(exe, workload, input_seed, sim_seed, traced):
    """One repetition in its own process; None when it produced no record."""
    cmd = [str(exe), f"--workload={workload}",
           f"--input-seed={input_seed}", f"--sim-seed={sim_seed}",
           f"--trace={int(traced)}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CELL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: cell timed out:", " ".join(cmd))
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("perfbench: cell printed no record (exit %d)" % proc.returncode)
        return None
    rec["exit"] = proc.returncode
    rec["traced"] = traced
    return rec


# Record fields measured on the host; every other field is simulated
# output (or a count of it) and must repeat exactly.
HOST_KEYS = {"gen_s", "ctor_s", "run_s", "verify_s", "dump_s", "wall_s",
             "peak_rss_mb", "choose_s", "wl_setup_s", "exec_s", "epoch_s",
             "exit", "traced"}
# Counts only traced repetitions carry.
PROBE_COUNTS = ("choose_calls", "exec_calls")


def fingerprint(rec):
    return {k: v for k, v in rec.items()
            if k not in HOST_KEYS and k not in PROBE_COUNTS}


def rep_ok(rec, ref, ref_traced, serving):
    """Verified, and simulated output identical to the references."""
    if rec is None or rec["exit"] != 0 or not rec["verified"]:
        return False
    if fingerprint(rec) != fingerprint(ref):
        return False
    if rec["traced"] and (ref_traced is None or any(
            rec[k] != ref_traced[k] for k in PROBE_COUNTS)):
        return False
    # Serving conservation: every injected request is served or refused.
    return not serving or rec["served"] + rec["rejected"] == rec["injected"]


def failures(recs, ok, serving):
    """(attempted, failed): cells, or requests when serving."""
    attempted = failed = 0
    for rec, good in zip(recs, ok):
        if not serving:
            attempted += 1
            failed += not good
            continue
        injected = max(rec["injected"] if rec else 0, 1)
        attempted += injected
        failed += rec["rejected"] if good else injected
    return attempted, failed


def med(recs, fn):
    return statistics.median(fn(r) for r in recs)


def end_to_end(recs, serving):
    """name -> (value, unit, samples) from untraced repetitions."""
    r0 = recs[0]
    done = (lambda r: r["served"]) if serving else (lambda r: r["tasks"])
    sim_s = r0["ticks"] * 1e-12
    n = len(recs)
    return {
        "setup_s": (med(recs, lambda r: r["gen_s"] + r["ctor_s"]), "s", n),
        "run_s": (med(recs, lambda r: r["run_s"]), "s", n),
        "wall_s": (med(recs, lambda r: r["wall_s"]), "s", n),
        "events_per_s": (med(recs, lambda r: r["events"] / r["run_s"]),
                         "1/s", n),
        "tasks_per_s": (med(recs, lambda r: done(r) / r["run_s"]),
                        "1/s", n),
        "peak_rss_mb": (med(recs, lambda r: r["peak_rss_mb"]), "MB", n),
        "sim_time_us": (r0["ticks"] / 1e6, "us", 1),
        "sim_energy_uj": (r0["energy_pj"] / 1e6, "uJ", 1),
        "sim_p99_ns": (r0["p99_ns"], "ns", 1),
        "sim_goodput_qps": (r0["goodput_qps"] if serving
                            else r0["tasks"] / sim_s, "1/s", 1),
    }


def self_time(r):
    """Run time outside the policy and the workload callbacks."""
    return (r["run_s"] - r["choose_s"] - r["wl_setup_s"] - r["exec_s"]
            - r["epoch_s"])


def per_layer(traced, untraced, failed_frac):
    """name -> (value, unit, samples) from traced repetitions."""
    r0 = traced[0]
    n = len(traced)

    def ratio(a, b):
        return r0[a] / (r0[a] + r0[b]) if r0[a] + r0[b] else 0.0

    def time_of(key):
        return (med(traced, lambda r: r[key]), "s", n)

    def count(key):
        return (r0[key], "count", 1)

    untraced_run = med(untraced, lambda r: r["run_s"])
    traced_run = med(traced, lambda r: r["run_s"])
    return {
        "workloads.gen_s": time_of("gen_s"),
        "workloads.setup_s": time_of("wl_setup_s"),
        "workloads.exec_s": time_of("exec_s"),
        "workloads.exec_calls": count("exec_calls"),
        "workloads.epoch_s": time_of("epoch_s"),
        "workloads.verify_s": time_of("verify_s"),
        "sched.choose_s": time_of("choose_s"),
        "sched.choose_calls": count("choose_calls"),
        "sched.choose_ns": (med(traced, lambda r: r["choose_s"] * 1e9
                                / max(r["choose_calls"], 1)), "ns", n),
        "sched.decisions": count("decisions"),
        "sched.forwarded": count("forwarded"),
        "sched.steal_attempts": count("steal_attempts"),
        "sched.stolen": count("stolen"),
        "core.ctor_s": time_of("ctor_s"),
        "core.self_s": (med(traced, self_time), "s", n),
        "core.ns_per_event": (med(traced, lambda r: self_time(r) * 1e9
                                  / max(r["events"], 1)), "ns", n),
        "core.utilization": (r0["utilization"], "ratio", 1),
        "core.imbalance": (r0["imbalance"], "ratio", 1),
        "core.read_lat_ns": (r0["read_lat_ns"], "ns", 1),
        "sim.events": count("events"),
        "sim.tasks": count("tasks"),
        "lb.shed_intra": count("shed_intra"),
        "lb.shed_inter": count("shed_inter"),
        "lb.blocks_migrated": count("blocks_migrated"),
        "lb.migration_invalidations": count("migration_invalidations"),
        "lb.migration_bytes": (r0["migration_bytes"], "B", 1),
        "cache.camp_hits": count("camp_hits"),
        "cache.camp_misses": count("camp_misses"),
        "cache.camp_hit_rate": (ratio("camp_hits", "camp_misses"),
                                "ratio", 1),
        "cache.inserts": count("inserts"),
        "cache.pb_hits": count("pb_hits"),
        "cache.pb_late_hits": count("pb_late_hits"),
        "cache.pb_misses": count("pb_misses"),
        "cache.l1_hits": count("l1_hits"),
        "cache.l1_misses": count("l1_misses"),
        "net.inter_hops": count("inter_hops"),
        "net.intra_traversals": count("intra_traversals"),
        "mem.reads": count("mem_reads"),
        "mem.writes": count("mem_writes"),
        "mem.row_hits": count("row_hits"),
        "mem.row_misses": count("row_misses"),
        "mem.row_hit_rate": (ratio("row_hits", "row_misses"), "ratio", 1),
        "mem.act_stalls": count("act_stalls"),
        "serve.injected": count("injected"),
        "serve.rejected": count("rejected"),
        "serve.windows": count("windows"),
        "serve.p50_ns": (r0["p50_ns"], "ns", 1),
        "obs.dump_s": time_of("dump_s"),
        "trace.overhead_frac": ((traced_run - untraced_run) / untraced_run,
                                "ratio", n),
        "check.failed_frac": (failed_frac, "ratio", 1),
    }


def self_test():
    exe = build("perfbench_fidelity_test")
    return subprocess.run([str(exe)]).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="default for both seeds below")
    ap.add_argument("--input-seed", type=int,
                    help="seeds the generated input (graph, keys)")
    ap.add_argument("--sim-seed", type=int,
                    help="seeds the simulator and the arrival stream")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the decorator-fidelity test")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    input_seed = args.seed if args.input_seed is None else args.input_seed
    sim_seed = args.seed if args.sim_seed is None else args.sim_seed
    serving = args.workload in SERVING

    exe = build("perfbench_cell")
    print(f"workload {args.workload}: input seed {input_seed}, "
          f"sim seed {sim_seed}, trace {args.trace}")
    untraced, traced = [], []
    deadline = time.monotonic() + args.seconds
    while len(untraced) < MIN_REPS or time.monotonic() < deadline:
        untraced.append(run_cell(exe, args.workload, input_seed,
                                 sim_seed, False))
        if args.trace:
            traced.append(run_cell(exe, args.workload, input_seed,
                                   sim_seed, True))

    recs = untraced + traced
    ref = untraced[0]
    ref_traced = traced[0] if traced else None
    ok = [ref is not None and rep_ok(r, ref, ref_traced, serving)
          for r in recs]
    attempted, failed = failures(recs, ok, serving)
    correct = all(ok)
    failed_frac = failed / attempted
    digest = ref["digest"] if ref else None
    print(f"stats digest {digest}: {len(untraced)} untraced"
          f"{', %d traced' % len(traced) if traced else ''} repetitions, "
          f"{failed} of {attempted} "
          f"{'requests' if serving else 'cells'} failed "
          f"(failed_frac {failed_frac})")

    metrics = {}
    if correct:
        # The end-to-end table always prints; with --trace 1 the result
        # carries the per-layer table instead.
        tables = [end_to_end(untraced, serving)]
        if args.trace:
            tables.append(per_layer(traced, untraced, failed_frac))
        for table in tables:
            for name, (value, unit, n) in table.items():
                print(f"  {name:<28} {value:>22.6f} {unit:<6} n={n}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in tables[-1].items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
