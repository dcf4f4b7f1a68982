#!/usr/bin/env python3
"""Benchmark of record for optrules: builds the harness, runs workloads,
reduces raw samples to the metrics BENCHMARK.json defines.

One workload, one run (prints every metric, then a one-line JSON result):

    python3 benchmark/run.py --workload session_inmem --seed 3 --trace 0

The full record (no --workload): every workload untraced over REPEATS
seeds for the end-to-end metrics, then once traced for the per-layer
metrics; writes build/benchmark/out/<stamp>.json for benchmark/compare.py.

    python3 benchmark/run.py [--smoke]

Standard library only. Exits 1 when the build fails, a correctness gate
fails, or the harness misbehaves.
"""

import argparse
import datetime
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = Path("build/benchmark")  # relative to ROOT: keeps socket paths short
HARNESS = BUILD / "optrules_bench"
HARNESS_TIMEOUT_S = 170
# Untraced runs (seeds 1..REPEATS) per workload in the full record.
REPEATS = 5


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then builds incrementally. Output goes to stderr
    so stdout carries only metrics."""
    if not (ROOT / BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", "benchmark", "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", str(BUILD), "-j", jobs]
    return subprocess.run(command, cwd=ROOT, stdout=sys.stderr).returncode == 0


def run_harness(workload, seed, seconds, traced, smoke, trace_dir):
    """Runs the harness in its own process group; returns its JSON report
    or None. On timeout the whole group is killed and reaped."""
    command = [str(HARNESS), f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--workdir={BUILD / 'tmp'}"]
    if traced:
        command += ["--traced", f"--trace-dir={trace_dir}"]
    if smoke:
        command.append("--smoke")
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        log(f"run.py: {workload} timed out")
        return None
    lines = out.decode().strip().splitlines()
    if not lines:
        log(f"run.py: {workload} printed nothing (exit {child.returncode})")
        return None
    report = json.loads(lines[-1])
    for check in report["checks"]:
        if not check["ok"]:
            log(f"run.py: gate failed: {check['name']} {check['detail']}")
    return report


# ------------------------------------------------------------ reduction ----

def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def ratio(num, den):
    return num / den if den else 0.0


def percentile(values, p):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def walk(nodes):
    for node in nodes:
        yield node
        yield from walk(node.get("children", []))


def session_metrics(raw):
    """Metrics of a mixed-session workload. Each metric maps to the list of
    per-session samples it is the median of (or a one-element list)."""
    sessions = raw["sessions"]
    traced = [s for s in sessions if s["traced"]]
    untraced = [s for s in sessions if not s["traced"]]
    walls = [s["wall_s"] for s in sessions]
    m = {
        "latency_p50_ms": [w * 1e3 for w in walls],
        "sessions_per_s": [len(walls) / sum(walls)],
        "setup_s": raw["setup_s"],
        "peak_rss_mb": [(raw["peak_rss_self_kb"] + raw["peak_rss_children_kb"])
                        / 1024.0],
        "storage.read_amplification": [
            s["rchar_bytes"] / raw["stored_bytes"] for s in sessions],
        "storage.io_wait_frac": [s["io_wait_s"] / s["wall_s"]
                                 for s in sessions],
        "storage.bytes_per_user_byte": [
            raw["stored_bytes"] / raw["user_bytes"]],
        "bufferpool.hit_rate": [ratio(
            sum(s["cache_hits"] for s in sessions),
            sum(s["cache_hits"] + s["cache_misses"] for s in sessions))],
        "dist.retries": [sum(s["retries"] for s in sessions)],
        "dist.partitions_stolen": [
            sum(s["partitions_stolen"] for s in sessions)],
        "serve.physical_scans": [s["counting_scans"] for s in sessions],
        "serve.queue_wait_frac": [0.0],
        "serve.window_frac": [0.0],
        "serve.coalesced_frac": [0.0],
        "serve.engine_cache_hit_rate": [0.0],
        "serve.p99_over_p50": [0.0],
    }
    if not traced:
        return m
    m.update({
        "bufferpool.evictions": [s["evictions"] for s in traced],
        "bucketing.plan_s": [s["prepare_s"] - s["scan_s"] for s in traced],
        "bucketing.scan_s": [s["scan_s"] for s in traced],
        "bucketing.scan_mrows_per_s": [raw["rows"] / s["scan_s"] / 1e6
                                       for s in traced],
        "dist.partition_skew": [
            ratio(max(s["partition_s"]), statistics.mean(s["partition_s"]))
            if s["partition_s"] else 0.0 for s in traced],
        "dist.parallel_efficiency": [
            ratio(sum(s["partition_s"]), s["dist_workers"] * s["scan_s"])
            for s in traced],
        "rules.pairs_s": [s["pairs_s"] for s in traced],
        "rules.generalized_s": [s["generalized_s"] for s in traced],
        "rules.aggregate_s": [s["aggregate_s"] for s in traced],
        "region.mine_s": [s["region_s"] for s in traced],
        "wire.encode_us": [s["encode_s"] * 1e6 for s in traced],
        "wire.decode_us": [s["decode_s"] * 1e6 for s in traced],
        "wire.reply_bytes": [s["reply_bytes"] for s in traced],
        "obs.trace_overhead_frac": [
            ratio(median([s["wall_s"] for s in traced]),
                  median([s["wall_s"] for s in untraced])) - 1.0
            if untraced else 0.0],
        "obs.dropped_spans": [sum(s["dropped_spans"] for s in traced)],
        "session.unaccounted_frac": [
            1.0 - (s["prepare_s"] + s["pairs_s"] + s["generalized_s"]
                   + s["aggregate_s"] + s["region_s"]) / s["wall_s"]
            for s in traced],
    })
    # Scan phases as a share of scan thread-seconds; the serial scans run
    # on one thread, and subprocess workers do not ship their phases.
    for phase in ("locate", "mask", "scatter"):
        m[f"bucketing.{phase}_frac"] = [
            ratio(s[f"{phase}_s"], sum(s["partition_s"]) or s["scan_s"])
            for s in traced]
    return m


def serve_metrics(raw):
    latencies = raw["latency_ms"]
    delta = raw.get("daemon_registry_delta",
                    {"counters": {}, "histograms": {}})
    counters = delta["counters"]
    histograms = delta["histograms"]

    def hist_sum(name):
        return histograms.get(name, {}).get("sum", 0.0)

    def hist_mean(name):
        h = histograms.get(name, {})
        return ratio(h.get("sum", 0.0), h.get("count", 0))

    mean_latency_s = statistics.mean(latencies) / 1e3
    p50 = median(latencies)
    m = {
        "latency_p50_ms": latencies,
        "sessions_per_s": [raw["sessions"] / raw["stream_s"]],
        "setup_s": raw["setup_s"],
        "peak_rss_mb": [raw["peak_rss_daemon_kb"] / 1024.0],
        "storage.read_amplification": [
            raw.get("daemon_rchar_bytes", 0) / raw["stored_bytes"]],
        "storage.io_wait_frac": [
            hist_sum("storage.page_io_wait_seconds") / raw["stream_s"]],
        "storage.bytes_per_user_byte": [
            raw["stored_bytes"] / raw["user_bytes"]],
        "bufferpool.hit_rate": [ratio(
            counters.get("bufferpool.hits", 0),
            counters.get("bufferpool.hits", 0)
            + counters.get("bufferpool.misses", 0))],
        "bufferpool.evictions": [counters.get("bufferpool.evictions", 0)],
        "dist.retries": [counters.get("dist.retries", 0)],
        "dist.partitions_stolen": [counters.get("dist.partitions_stolen", 0)],
        "serve.physical_scans": [counters.get("serve.physical_scans", 0)],
        "serve.queue_wait_frac": [
            hist_mean("serve.queue_wait_seconds") / mean_latency_s],
        "serve.coalesced_frac": [ratio(
            counters.get("serve.coalesced_sessions", 0),
            counters.get("serve.sessions_served", 0))],
        "serve.engine_cache_hit_rate": [ratio(
            counters.get("serve.engine_cache_hits", 0),
            counters.get("serve.engine_cache_hits", 0)
            + counters.get("serve.engine_cache_misses", 0))],
        "serve.p99_over_p50": [ratio(percentile(latencies, 0.99), p50)],
    }
    if "served_span_forest" not in raw:
        return m
    with open(ROOT / raw["served_span_forest"]) as f:
        forest = json.load(f)
    spans = list(walk(forest["spans"]))
    scans = [n for n in spans if n["name"] == "dist.scan"]
    # A window's execution delays every session coalesced into it, so its
    # share of latency is the session-weighted mean window.
    windows = [(n["duration_seconds"],
                n.get("attributes", {}).get("sessions", 0))
               for n in spans if n["name"] == "serve.window"]
    window_s = ratio(sum(d * k for d, k in windows),
                     sum(k for _, k in windows))
    parts = [[c["duration_seconds"] for c in n.get("children", [])
              if c["name"] == "dist.partition"] for n in scans]
    scan_s = [n["duration_seconds"] for n in scans]
    gate = raw["gate_engines"]

    def gate_calls(kind):
        return [t for g in gate for t in g["mine_s"].get(kind, [])]

    partition_thread_s = hist_sum("dist.partition_scan_seconds")
    m.update({
        "bucketing.plan_s": [g["prepare_s"] - g["scan_s"] for g in gate],
        "bucketing.scan_s": scan_s,
        "bucketing.scan_mrows_per_s": [raw["rows"] / s / 1e6 for s in scan_s],
        "dist.partition_skew": [ratio(max(p), statistics.mean(p))
                                for p in parts if p],
        "dist.parallel_efficiency": [
            ratio(sum(p), n.get("attributes", {}).get("workers", 0)
                  * n["duration_seconds"]) for n, p in zip(scans, parts)],
        "rules.pairs_s": gate_calls("all_pairs"),
        "rules.generalized_s": gate_calls("generalized"),
        "rules.aggregate_s": gate_calls("average_range"),
        "region.mine_s": gate_calls("region"),
        "wire.encode_us": raw["encode_us"],
        "wire.decode_us": raw["decode_us"],
        "wire.reply_bytes": raw["reply_bytes"],
        "serve.window_frac": [window_s / mean_latency_s],
        "obs.trace_overhead_frac": [0.0],
        "obs.dropped_spans": [forest["dropped_spans"]],
        "session.unaccounted_frac": [
            1.0 - (hist_mean("serve.queue_wait_seconds") + window_s)
            / mean_latency_s],
    })
    for phase in ("locate", "mask", "scatter"):
        m[f"bucketing.{phase}_frac"] = [
            ratio(hist_sum(f"scan.{phase}_seconds"), partition_thread_s)]
    return m


def reduce_report(report, metric_specs):
    """(name -> {value, q1, q3, n, unit}) for every listed metric."""
    raw = report["raw"]
    samples = (serve_metrics(raw) if report["workload"] == "serve_mixed"
               else session_metrics(raw))
    out = {}
    for spec_entry in metric_specs:
        name = spec_entry["name"]
        values = samples.get(name)
        if not values:
            raise KeyError(f"{report['workload']} produced no {name}")
        q1, q3 = quartiles(values)
        out[name] = {"value": median(values), "q1": q1, "q3": q3,
                     "n": len(values), "unit": spec_entry["unit"]}
    return out


def print_metrics(workload, metrics, stream=sys.stdout):
    for name, m in metrics.items():
        print(f"{workload:28s} {name:30s} {m['value']:.6g} {m['unit']}"
              f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]",
              file=stream)


# ---------------------------------------------------------------- modes ----

def single_run(args, bench):
    trace_dir = BUILD / "out" / "traces"
    (ROOT / trace_dir).mkdir(parents=True, exist_ok=True)
    traced = args.trace == 1
    report = run_harness(args.workload, args.seed, args.seconds, traced,
                         args.smoke, trace_dir)
    if report is None:
        return 1
    specs = bench["per_layer"] if traced else bench["end_to_end"]
    metrics = reduce_report(report, specs)
    print_metrics(args.workload, metrics)
    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"],
              "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if report["correct"] else 1


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform(), "git_commit": commit}


def full_record(args, bench):
    stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    trace_dir = BUILD / "out" / f"{stamp}-traces"
    (ROOT / trace_dir).mkdir(parents=True, exist_ok=True)
    record = {"env": environment(), "seconds": args.seconds,
              "repeats": REPEATS, "smoke": args.smoke, "workloads": {}}
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        runs = []
        for seed in range(1, REPEATS + 1):
            log(f"run.py: {name} seed {seed}")
            report = run_harness(name, seed, args.seconds, False, args.smoke,
                                 trace_dir)
            if report is None:
                return 1
            ok = ok and report["correct"]
            runs.append(report)
        log(f"run.py: {name} traced")
        traced = run_harness(name, 1, args.seconds, True, args.smoke,
                             trace_dir)
        if traced is None:
            return 1
        ok = ok and traced["correct"]
        record["env"]["simd_arm"] = traced["simd_arm"]
        per_run = [reduce_report(r, bench["end_to_end"]) for r in runs]
        end_to_end = {}
        for spec_entry in bench["end_to_end"]:
            metric = spec_entry["name"]
            values = [p[metric]["value"] for p in per_run]
            q1, q3 = quartiles(values)
            end_to_end[metric] = {"value": median(values), "q1": q1, "q3": q3,
                                  "n": len(values), "runs": values,
                                  "unit": spec_entry["unit"]}
        entry = {
            "seeds": list(range(1, REPEATS + 1)),
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failed_frac": ratio(sum(r["failed"] for r in runs),
                                 sum(r["attempted"] for r in runs)),
            "digest": runs[0]["raw"].get("digest"),
            "end_to_end": end_to_end,
            "per_layer": reduce_report(traced, bench["per_layer"]),
            "checks": [c for r in runs + [traced] for c in r["checks"]
                       if not c["ok"]],
        }
        record["workloads"][name] = entry
        print_metrics(name, entry["end_to_end"])
        print_metrics(name, entry["per_layer"])
    out_dir = ROOT / BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{stamp}.json"
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    log(f"run.py: wrote {path.relative_to(ROOT)}"
        f"{'' if ok else ' (CORRECTNESS GATES FAILED)'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    bench = spec()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if not build():
        log("run.py: build failed")
        return 1
    if args.workload is not None:
        return single_run(args, bench)
    return full_record(args, bench)


if __name__ == "__main__":
    sys.exit(main())
