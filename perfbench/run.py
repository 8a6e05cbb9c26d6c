#!/usr/bin/env python3
"""The repo benchmark: one workload per process, end-to-end metrics by
default, per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload train-cpu --seed 1 --seconds 10 --trace 0

Builds the perfbench_workload binary from source (perfbench/CMakeLists.txt over ../src)
into $CARGO_TARGET_DIR or .bench_build/, runs the workload, checks its
outputs, and prints a human-readable summary followed, as the last line, by
{"correct", "attempted", "failed", "metrics"}. Exits non-zero when an output
check fails or the sources are missing. Workloads, metrics and the seed
numbers are described in perfbench/LEDGER.md.
"""

import argparse
import fcntl
import json
import math
import os
import signal
import statistics
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-cpu", "p100sim-wd", "serve-open")
RUN_TIMEOUT_S = 170

# name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "caffepp.conv_ms": "ms",
    "caffepp.other_ms": "ms",
    "core.calls_per_iter": "count",
    "core.host_us_per_call": "us",
    "core.host_us_per_segment": "us",
    "core.planner.optimize_ms": "ms",
    "core.planner.segments_per_kernel": "count",
    "core.planner.est_err_pct": "%",
    "core.benchmarker.ms": "ms",
    "core.benchmarker.useful_ratio": "ratio",
    "mcudnn.algo_runs": "count",
    "core.plan_cache_hit_ratio": "ratio",
    "kernels.compute_ms": "ms",
    "kernels.compute_ms.gemm": "ms",
    "kernels.compute_ms.implicit": "ms",
    "kernels.compute_ms.fft": "ms",
    "kernels.compute_ms.winograd": "ms",
    "kernels.compute_ms.direct": "ms",
    "kernels.gflops": "GFLOP/s",
    "device.workspace_mib": "MiB",
    "device.peak_mib": "MiB",
    "device.model_img_s": "images/s",
    "serve.admit_us": "us",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p90_ms": "ms",
    "serve.exec_ms_per_batch": "ms",
    "serve.occupancy": "requests",
    "serve.useful_ratio": "ratio",
    "serve.gen_late_ms": "ms",
    "serve.cold_fail_ratio": "ratio",
    "serve.cold.rejected": "count",
    "serve.cold.expired": "count",
    "serve.cold.shed": "count",
    "serve.cold.ewma_ms": "ms",
    "serve.steady.rejected": "count",
    "serve.steady.expired": "count",
    "serve.steady.shed": "count",
    "serve.steady.ewma_ms": "ms",
    "serve.overload.goodput_qps": "1/s",
    "serve.overload.occupancy": "requests",
    "serve.overload.useful_ratio": "ratio",
    "serve.overload.rejected": "count",
    "serve.overload.expired": "count",
    "serve.overload.shed": "count",
    "serve.overload.ewma_ms": "ms",
    "breakdown.residual_pct": "%",
    "breakdown.kernels_seen": "count",
    "telemetry.overhead_pct": "%",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_child(cmd, env=None, timeout=None):
    """Runs a child process with its output on stderr and returns its exit
    code; the child never outlives this process's run (timeout, SIGTERM)."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: %s exceeded %d s" % (cmd[0], timeout))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    """Configures and builds the workload binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: library sources (src/) not found next to "
                         "perfbench/; run from a full checkout")
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(build_root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent first runs build once
        steps = [["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build_dir, "--target", "perfbench_workload",
                  "-j", jobs]]
        for cmd in steps:
            if run_child(cmd) != 0:
                raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_workload"), build_root


def run_workload(binary, build_root, args):
    raw_path = os.path.join(build_root, "raw-%s-%d-%d.json"
                            % (args.workload, args.seed, os.getpid()))
    env = dict(os.environ)
    env["UCUDNN_TELEMETRY"] = "1" if args.trace else "0"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", raw_path]
    code = run_child(cmd, env=env, timeout=RUN_TIMEOUT_S)
    if code != 0:
        raise SystemExit("perfbench: workload binary exited with %d" % code)
    with open(raw_path) as f:
        raw = json.load(f)
    os.remove(raw_path)
    return raw


def end_to_end(raw):
    """The gated metrics; see LEDGER.md for what each means per workload."""
    m = {"setup_s": statistics.median(raw["setup_s"]),
         "peak_rss_mib": raw["peak_rss_mib"]}
    if raw["workload"] == "serve-open":
        steady = raw["detail"]["steady"]
        lat = stats.latencies_from_due(steady["requests"])
        m["p50_ms"], _ = stats.percentile(lat, 50)
        m["p90_ms"], _ = stats.percentile(lat, 90)
        m["items_per_s"] = stats.goodput(steady["requests"], steady["window_s"])
    elif raw["workload"] == "train-cpu":
        pooled = [x for rig in raw["samples_ms"] for x in rig]
        m["p50_ms"], _ = stats.percentile(pooled, 50)
        m["p90_ms"], _ = stats.percentile(pooled, 90)
        m["items_per_s"] = raw["items_per_op"] * 1e3 / m["p50_ms"]
    else:
        m["p50_ms"], _ = stats.best_block(raw["samples_ms"], 50)
        m["p90_ms"], _ = stats.best_block(raw["samples_ms"], 90)
        m["items_per_s"] = raw["items_per_op"] * 1e3 / m["p50_ms"]
    return m


def summary(raw, m):
    """Human-readable lines: the paper-level metric names with units."""
    w = raw["workload"]
    lines = ["workload %s seed %d seconds %g" % (w, raw["seed"], raw["seconds"]),
             "  setup_s          %.3f s (median of %s)"
             % (m["setup_s"], ", ".join("%.3f" % s for s in raw["setup_s"]))]
    if w == "train-cpu":
        n = sum(len(rig) for rig in raw["samples_ms"])
        rigs = len(raw["samples_ms"])
        lines += ["  img_s            %.2f images/s" % m["items_per_s"],
                  "  iter_p50_ms      %.3f ms (%d rigs, n=%d)" % (m["p50_ms"], rigs, n),
                  "  iter_p90_ms      %.3f ms (%d rigs, n=%d)" % (m["p90_ms"], rigs, n)]
    elif w == "p100sim-wd":
        n = stats.best_block(raw["samples_ms"], 50)[1]
        lines += ["  host_ms_per_iter %.4f ms p50, %.4f ms p90 (best 0.1 s block, n=%d)"
                  % (m["p50_ms"], m["p90_ms"], n),
                  "  model_img_s      %.2f images/s (model output, not measured)"
                  % raw["layer"]["device.model_img_s"]]
    else:
        d = raw["detail"]
        n = len(d["steady"]["requests"]["ok"])
        for phase in ("cold", "steady", "overload"):
            ok = d[phase]["requests"]["ok"]
            lines.append("  %-16s sent %d, succeeded %d, missed %d"
                         % (phase, len(ok), sum(ok), len(ok) - sum(ok)))
        lines += ["  p50_ms           %.4f ms (steady, n=%d, misses count)" % (m["p50_ms"], n),
                  "  p90_ms           %.4f ms (steady, n=%d, misses count)" % (m["p90_ms"], n),
                  "  steady_goodput   %.1f req/s" % m["items_per_s"],
                  "  cold_fail_ratio  %.4f (n=%d)" % (
                      stats.fail_ratio(d["cold"]["requests"]),
                      len(d["cold"]["requests"]["ok"])),
                  "  goodput_qps      %.1f req/s (overload phase, n=%d)" % (
                      stats.goodput(d["overload"]["requests"], d["overload"]["window_s"]),
                      len(d["overload"]["requests"]["ok"]))]
    lines.append("  peak_rss_mib     %.1f MiB" % m["peak_rss_mib"])
    for name, value in sorted(raw["info"].items()):
        lines.append("  %-16s %s" % (name, value))
    for label, plan in sorted(raw["plans"].items()):
        lines.append("  plan %s: %s" % (label, plan))
    for c in raw["checks"]:
        lines.append("  check %-28s %s max_err=%.3g %s"
                     % (c["name"], "ok" if c["ok"] else "FAILED", c["max_err"], c["detail"]))
    return lines


def per_layer(raw, checks):
    """Per-layer metrics of a traced run (0 where a layer is not exercised).

    Appends a failing check when a traced breakdown does not sum to its
    measured total within tolerance or misses a convolution kernel.
    """
    m = {name: 0.0 for name in PER_LAYER}
    m.update({k: v for k, v in raw["layer"].items() if k in PER_LAYER})
    d = raw["detail"]
    w = raw["workload"]
    if w == "train-cpu":
        b = stats.train_breakdown(d["iterations"], d["spans"], d["kernels"],
                                  raw["algo_families"])
        m["kernels.compute_ms"] = b["compute_ms"]
        for fam, ms in b["family_ms"].items():
            m["kernels.compute_ms." + fam] = ms
        m["kernels.gflops"] = b["flops"] / (b["compute_ms"] * 1e6)
        m["breakdown.residual_pct"] = b["residual_pct"]
        m["breakdown.kernels_seen"] = b["kernels_seen"]
        m["telemetry.overhead_pct"] = stats.overhead_pct(raw["samples_ms"][-1],
                                                         d["traced_ms"])
        ok = (b["residual_pct"] <= stats.TRAIN_SUM_TOLERANCE * 100
              and b["kernels_seen"] == b["kernels_expected"])
        checks.append({"name": "train_breakdown_sums", "ok": ok, "failures": 1})
        for label, ms in sorted(b["rows"].items()):
            log("  row %-40s %9.4f ms" % (label, ms))
        log("  rows sum %.4f ms vs measured %.4f ms (residual %.2f%%, %d/%d kernels)"
            % (b["sum_ms"], b["total_ms"], b["residual_pct"], b["kernels_seen"],
               b["kernels_expected"]))
    elif w == "p100sim-wd":
        untraced = [x for block in raw["samples_ms"] for x in block]
        m["telemetry.overhead_pct"] = stats.overhead_pct(untraced, d["traced_ms"])
    else:
        steady = d["steady"]
        req = steady["requests"]
        b = stats.serve_breakdown(req, steady["spans"])
        m["serve.queue_wait_p50_ms"], _ = stats.percentile(b["queue_ms"], 50)
        m["serve.queue_wait_p90_ms"], _ = stats.percentile(b["queue_ms"], 90)
        execs = [s for s in steady["spans"] if s["name"] == "serve_exec"]
        convs = [s for s in steady["spans"] if s["name"] == "mcudnn_conv"]
        m["serve.exec_ms_per_batch"] = statistics.median(s["dur"] for s in execs) / 1e3
        fam = raw["algo_families"]["Forward"]
        for c in convs:
            algo = int(c["detail"].rsplit("algo=", 1)[1])
            m["kernels.compute_ms." + fam[algo]] += c["dur"] / 1e3 / len(execs)
        compute_ms = sum(c["dur"] for c in convs) / 1e3 / len(execs)
        m["kernels.compute_ms"] = compute_ms
        samples = sum(int(s["detail"].rsplit("total=", 1)[1]) for s in execs)
        m["kernels.gflops"] = (d["flops_per_sample"] * samples / len(execs)
                               / (compute_ms * 1e6))
        m["serve.admit_us"] = statistics.median(req["admit_us"])
        m["serve.gen_late_ms"], _ = stats.percentile(req["late_ms"], 90)
        m["serve.cold_fail_ratio"] = stats.fail_ratio(d["cold"]["requests"])
        m["serve.overload.goodput_qps"] = stats.goodput(
            d["overload"]["requests"], d["overload"]["window_s"])
        m["breakdown.residual_pct"] = b["residual_pct"]
        m["breakdown.kernels_seen"] = len({c["detail"] for c in convs})
        lat = stats.latencies_from_due(req)
        traced = [x for x, t in zip(lat, req["traced"]) if t]
        untraced = [x for x, t in zip(lat, req["traced"]) if not t]
        m["telemetry.overhead_pct"] = stats.overhead_pct(untraced, traced)
        checks.append({"name": "serve_breakdown_sums",
                       "ok": b["residual_pct"] <= stats.SERVE_SUM_TOLERANCE * 100,
                       "failures": 1})
        for name, ms in b["rows"].items():
            log("  row %-10s %9.4f ms (median over %d traced requests)"
                % (name, ms, b["requests"]))
        log("  rows sum %.4f ms vs measured %.4f ms (median residual %.2f%%)"
            % (b["sum_ms"], b["total_ms"], b["residual_pct"]))
    return m


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    binary, build_root = build()
    raw = run_workload(binary, build_root, args)
    checks = [dict(c) for c in raw["checks"]]
    e2e = end_to_end(raw)
    for line in summary(raw, e2e):
        print(line)
    if args.trace:
        values, units = per_layer(raw, checks), PER_LAYER
    else:
        values, units = e2e, END_TO_END
    for name, value in values.items():
        if not math.isfinite(value):
            raise SystemExit("perfbench: %s is not finite (%r)" % (name, value))
    failed = sum(int(c["failures"]) for c in checks if not c["ok"])
    result = {
        "correct": failed == 0,
        "attempted": int(raw["attempted"]),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
