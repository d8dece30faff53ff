#!/usr/bin/env python3
"""pmc end-to-end benchmark.

Usage (from the repository root):

    python3 pmcbench/run.py --workload grid-weak --seed 1 --seconds 20 --trace 0

Builds the harness (pmcbench/CMakeLists.txt, compiled from ../src into
.bench_build/pmcbench), runs one workload for --seconds, checks every output,
prints a report, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones from a
traced run. Both tables below are the single definition of the metrics;
BENCHMARK.json must agree with them.
"""

import argparse
import hashlib
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "pmcbench")
BUILD = os.path.join(ROOT, ".bench_build", "pmcbench")
HARNESS = os.path.join(BUILD, "pmcbench_harness")

# Operations per harness line: a pipeline run, or the 128 batches of one
# pass over the service update stream.
WORKLOADS = {
    "grid-weak": {"units": 1, "parallel": False},
    "circuit-highcut": {"units": 1, "parallel": True},
    "service-stream": {"units": 128, "parallel": False},
}
SERVICE = "service-stream"

# An operation that makes no progress for this long is a hang: the harness
# is killed and the operation counts as failed. Never retried.
OP_TIMEOUT_S = 60.0
# Hard ceiling on one run's harness, whatever --seconds says.
RUN_TIMEOUT_S = 170.0

# name: (unit, better, definition). The service-only ones are printed for
# service-stream alone and are not gated in BENCHMARK.json, which gates only
# metrics every workload reports.
END_TO_END = {
    "total_s": ("s", "lower",
                "host wall time of one operation: generate, partition, distribute, "
                "solve, verify (service: set-up, the whole stream, final checks)"),
    "setup_s": ("s", "lower",
                "host time of generate + partition + distribute "
                "(service: + GraphService construction with its cold solve)"),
    "solve_s": ("s", "lower",
                "host time of match_distributed + color_distributed "
                "(service: all push() calls of the stream)"),
    "peak_rss_mb": ("MB", "lower",
                    "peak resident memory of one operation"),
    "match_sim_s": ("s", "lower",
                    "modelled seconds of the matching (service: summed incremental "
                    "re-matchings)"),
    "color_sim_s": ("s", "lower",
                    "modelled seconds of the coloring (service: summed incremental "
                    "re-colorings)"),
    "repair_sim_s": ("s", "lower",
                     "modelled seconds of all incremental repairs"),
    "match_weight": ("weight", "higher",
                     "weight of the (final) matching"),
    "colors": ("count", "lower",
               "colors of the (final) coloring"),
    "updates_per_s": ("1/s", "higher",
                      "updates absorbed per second of stream"),
    "batch_p50_ms": ("ms", "lower",
                     "median latency of the push() that triggers a batch refresh"),
    "batch_p90_ms": ("ms", "lower",
                     "90th-percentile batch latency"),
    "failure_rate": ("ratio", "lower",
                     "failed / attempted operations"),
}

# name: (unit, better, end-to-end metric and workload it should move). A layer
# a workload never calls reads zero there; BENCHMARK.json lists every metric
# here except the service's layer times in seconds, which are zero on the
# pipelines (their *_share twins are listed instead).
PER_LAYER = {
    "graph.generate_s": ("s", "lower", "setup_s on grid-weak"),
    "partition.compute_s": ("s", "lower", "setup_s on circuit-highcut"),
    "partition.cut_fraction": ("ratio", "lower", "solve_s on circuit-highcut"),
    "dist_graph.build_s": ("s", "lower", "setup_s on grid-weak"),
    "dist_graph.rss_delta_mb": ("MB", "lower", "peak_rss_mb on grid-weak"),
    "matching.solve_s": ("s", "lower", "solve_s on circuit-highcut, grid-weak"),
    "matching.messages": ("count", "lower", "solve_s on circuit-highcut, grid-weak"),
    "matching.bytes": ("bytes", "lower", "solve_s on circuit-highcut, grid-weak"),
    "matching.records_per_message": ("ratio", "higher",
                                     "solve_s on circuit-highcut, grid-weak"),
    "matching.max_activations": ("count", "lower",
                                 "solve_s on circuit-highcut, grid-weak"),
    "matching.host_us_per_message": ("us", "lower",
                                     "solve_s on circuit-highcut, grid-weak"),
    "coloring.solve_s": ("s", "lower", "solve_s on grid-weak"),
    "coloring.messages": ("count", "lower", "solve_s on grid-weak"),
    "coloring.bytes": ("bytes", "lower", "solve_s on grid-weak"),
    "coloring.rounds": ("count", "lower", "solve_s on grid-weak"),
    "coloring.recolor_share": ("ratio", "lower", "solve_s on grid-weak"),
    "coloring.rss_delta_mb": ("MB", "lower", "peak_rss_mb on grid-weak"),
    "coloring.snapshot_parallel_share": ("ratio", "higher",
                                         "solve_s on circuit-highcut"),
    "runtime.payload_bytes_per_record": ("bytes", "lower",
                                         "solve_s on circuit-highcut"),
    "runtime.collectives": ("count", "lower", "solve_s on circuit-highcut"),
    "exec.speedup": ("ratio", "higher",
                     "solve_s on circuit-highcut (no change on the others)"),
    "verify.match_s": ("s", "lower", "total_s on grid-weak, circuit-highcut"),
    "verify.color_s": ("s", "lower", "total_s on grid-weak, circuit-highcut"),
    "service.init_s": ("s", "lower", "setup_s on service-stream"),
    "service.stream_s": ("s", "lower", "solve_s on service-stream"),
    "service.apply_s": ("s", "lower", "solve_s on service-stream"),
    "service.snapshot_s": ("s", "lower", "solve_s on service-stream"),
    "service.dist_build_s": ("s", "lower", "solve_s on service-stream"),
    "service.inc_match_s": ("s", "lower", "solve_s on service-stream"),
    "service.inc_color_s": ("s", "lower", "solve_s on service-stream"),
    "service.apply_share": ("ratio", "lower", "solve_s on service-stream"),
    "service.snapshot_share": ("ratio", "lower", "solve_s on service-stream"),
    "service.dist_build_share": ("ratio", "lower", "solve_s on service-stream"),
    "service.inc_match_share": ("ratio", "lower", "solve_s on service-stream"),
    "service.inc_color_share": ("ratio", "lower", "solve_s on service-stream"),
    "service.match_invalidated_share": ("ratio", "lower",
                                        "match_sim_s on service-stream"),
    "service.color_recolored": ("count", "lower", "color_sim_s on service-stream"),
    "unattributed_s": ("s", "lower", "total_s on every workload"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced total_s"),
}


def nproc():
    return len(os.sched_getaffinity(0))


def load_benchmark_json():
    """The metrics BENCHMARK.json gates; they must match the tables above."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        for m in spec[key]:
            unit, better = table[m["name"]][:2]
            if (m["unit"], m["better"]) != (unit, better):
                raise SystemExit(f"BENCHMARK.json {key} {m['name']} disagrees "
                                 f"with run.py: {m['unit']}/{m['better']}")
    return spec


def source_digest():
    """Content hash of the library and benchmark sources: the build's identity
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "pmcbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise SystemExit("pmcbench: no library sources (src/) next to pmcbench/")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(min(4, nproc()))],
                   check=True, stdout=sys.stderr)


def thread_states(pid):
    """State, kernel wait channel and CPU ticks of each thread of a process:
    tells a deadlock (all sleeping) from a livelock (CPU still climbing)."""
    states = []
    for tid in sorted(os.listdir(f"/proc/{pid}/task"), key=int):
        try:
            with open(f"/proc/{pid}/task/{tid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{pid}/task/{tid}/wchan") as f:
                wchan = f.read().strip() or "-"
        except OSError:
            continue
        states.append(f"{fields[0]}/{wchan}/{int(fields[11]) + int(fields[12])}")
    return " ".join(states)


def run_harness(args, threads, seconds, trace_path):
    """Runs the harness and returns (info, ops, hung_or_crashed_reason,
    seconds spent before the hang).

    Each operation line is read with a timeout: an operation that does not
    finish in OP_TIMEOUT_S is a hang, the harness is killed, and the run
    reports it as a failed operation."""
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--threads", str(threads), "--seconds", f"{seconds:.3f}",
           "--trace", str(args.trace), "--trace-out", trace_path]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    lines = queue.Queue()

    def reader():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    threading.Thread(target=reader, daemon=True).start()
    info, ops, abort = None, [], None
    start = last = time.monotonic()
    hard_deadline = start + RUN_TIMEOUT_S
    while True:
        wait = min(OP_TIMEOUT_S, hard_deadline - time.monotonic())
        try:
            line = lines.get(timeout=max(wait, 0.0))
        except queue.Empty:
            abort = (f"no operation finished within {wait:.0f} s (hang); "
                     f"threads: {thread_states(proc.pid)}")
            os.killpg(proc.pid, signal.SIGKILL)
            break
        if line is None:
            break
        last = time.monotonic()
        rec = json.loads(line)
        if rec["type"] == "info":
            info = rec
        else:
            ops.append(rec)
    proc.wait()
    if abort is None and proc.returncode != 0:
        abort = f"harness exited with code {proc.returncode}"
    return info, ops, abort, last - start


def median(values):
    return statistics.median(values) if values else 0.0


def aggregate(args, ops, aborts):
    """Checks and summarises the operations of one run."""
    units = WORKLOADS[args.workload]["units"]
    attempted = units * (len(ops) + len(aborts))
    failed = units * (sum(1 for op in ops if not op["ok"]) + len(aborts))
    errors = [f"op {op['op']}: {op['error']}" for op in ops if not op["ok"]]
    errors += aborts
    good = [op for op in ops if op["ok"]]
    # Determinism: modelled results repeat exactly across operations.
    for op in good[1:]:
        if op["modelled"] != good[0]["modelled"]:
            failed += units
            errors.append(f"op {op['op']}: modelled results drifted")
    modelled = good[0]["modelled"] if good else {}
    return attempted, failed, errors, good, modelled


def check_across_runs(args, digest, modelled):
    """Determinism across runs: the same sources and seed must reproduce the
    modelled results recorded by an earlier run in this checkout."""
    if not modelled:
        return None
    path = os.path.join(BUILD, "modelled",
                        f"{args.workload}-seed{args.seed}-{digest[:16]}.json")
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier != modelled:
            return f"modelled results differ from an earlier run ({path})"
        return None
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(modelled, f, sort_keys=True)
    return None


def end_to_end(args, good, modelled, attempted, failed, updates):
    host = {k: median([op["host"][k] for op in good])
            for k in ("total_s", "setup_s", "solve_s", "peak_rss_mb")}
    m = {**host,
         "match_sim_s": modelled.get("match_sim_s", 0.0),
         "color_sim_s": modelled.get("color_sim_s", 0.0),
         "match_weight": modelled.get("match_weight", 0.0),
         "colors": modelled.get("colors", 0),
         "failure_rate": failed / attempted if attempted else 1.0}
    if args.workload == SERVICE:
        batches = [ms for op in good for ms in op["batch_ms"]]
        m["repair_sim_s"] = m["match_sim_s"] + m["color_sim_s"]
        m["updates_per_s"] = updates / host["solve_s"] if host["solve_s"] else 0.0
        m["batch_p50_ms"] = median(batches)
        m["batch_p90_ms"] = (statistics.quantiles(batches, n=10)[8]
                             if len(batches) >= 2 else 0.0)
        m["batch_samples"] = len(batches)
    return m


def per_layer(good):
    traced = [op for op in good if op["traced"]]
    layers = {k: median([op["layers"][k] for op in traced])
              for k in PER_LAYER if traced and k in traced[0]["layers"]}
    # Tracing overhead: traced minus untraced operations of the same run,
    # leaving out the first (cold) operation.
    untraced = [op["host"]["total_s"] for op in good if not op["traced"] and op["op"] > 0]
    layers["trace.overhead_s"] = (median([op["host"]["total_s"] for op in traced]) -
                                  median(untraced)) if traced and untraced else 0.0
    return layers


def report(title, table, values, show_target=False):
    print(f"--- {title}")
    for name, row in table.items():
        if name not in values:
            continue
        v = values[name]
        text = f"{v:.6g}" if isinstance(v, float) else str(v)
        target = f"  -> {row[2]}" if show_target else ""
        print(f"  {name:34s} {text:>16s} {row[0]:6s} ({row[1]} is better){target}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    spec = load_benchmark_json()
    build()
    threads = min(4, nproc()) if WORKLOADS[args.workload]["parallel"] else 1
    digest = source_digest()
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    stem = os.path.join(BUILD, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")

    # A hung or crashed operation is counted as failed and never re-run; a
    # fresh harness then measures other operations for the rest of the
    # budget, once, so the run still reports figures.
    info, ops, abort, spent = run_harness(args, threads, args.seconds,
                                          stem + ".spans.json")
    aborts = [abort] if abort else []
    if abort and args.seconds - spent >= 1.0:
        info2, ops2, abort2, _ = run_harness(args, threads, args.seconds - spent,
                                             stem + ".spans.json")
        info, ops = info or info2, ops + ops2
        aborts += [abort2] if abort2 else []
    attempted, failed, errors, good, modelled = aggregate(args, ops, aborts)
    drift = check_across_runs(args, digest, modelled)
    if drift:
        failed = attempted
        errors.append(drift)
    attempted = max(attempted, 1)
    failed = min(failed, attempted)

    e2e = end_to_end(args, good, modelled, attempted, failed,
                     (info or {}).get("updates", 0))
    layers = per_layer(good) if args.trace else {}
    provenance = {
        "argv": sys.argv, "workload": args.workload, "seed": args.seed,
        "nproc": nproc(), "threads": threads,
        "hardware_concurrency": (info or {}).get("hardware_concurrency"),
        "build_type": (info or {}).get("build_type"),
        "compiler": (info or {}).get("compiler"),
        "git_commit": git_commit(), "source_digest": digest,
        "vertices": (info or {}).get("vertices"), "edges": (info or {}).get("edges"),
        "ranks": (info or {}).get("ranks"), "operations": len(ops),
    }

    print(f"pmcbench {args.workload} seed={args.seed} trace={args.trace}")
    for k, v in provenance.items():
        print(f"  {k}: {v}")
    report("end-to-end (median over operations)", END_TO_END, e2e)
    if args.workload == SERVICE:
        print(f"  ({e2e['batch_samples']} batch samples)")
    if args.trace:
        report("per layer (self time; median over traced operations)", PER_LAYER,
               layers, show_target=True)
        print(f"  spans: {stem}.spans.json")
    for e in errors:
        print(f"FAILED: {e}")

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    source = layers if args.trace else e2e
    result = {"correct": failed == 0 and not errors, "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": source.get(n, 0.0),
                              "unit": (PER_LAYER if args.trace else END_TO_END)[n][0]}
                          for n in names}}
    with open(stem + ".json", "w") as f:
        json.dump({"provenance": provenance, "end_to_end": e2e, "per_layer": layers,
                   "errors": errors, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
