"""The benchmark's arithmetic: percentiles, miss accounting, goodput, and the
traced breakdowns whose rows must sum to the measured totals.

Everything here is a pure function of the raw measurements the workload
binary writes, so test_stats.py can pin it on synthetic inputs.
"""

import bisect
import math
import statistics

MISS = math.inf  # latency of a refused, expired or failed request

# Share of a measured total the traced rows may leave unexplained.
TRAIN_SUM_TOLERANCE = 0.05
SERVE_SUM_TOLERANCE = 0.05

FAMILIES = ("gemm", "implicit", "fft", "winograd", "direct")


def percentile(values, q):
    """Linear-interpolated q-th percentile (0..100) and the sample count.

    Misses (inf) sort last, so a percentile that lands on one is inf: the
    request at that rank did not meet its deadline.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    if frac == 0.0 or xs[lo] == xs[hi]:
        return xs[lo], n
    if math.isinf(xs[hi]):
        return MISS, n
    return xs[lo] + (xs[hi] - xs[lo]) * frac, n


def best_block(groups, q):
    """Lowest q-th percentile over time blocks, and that block's sample
    count. Blocks with under half the samples of the fullest block (the cut
    end of the window) are skipped."""
    full = max(len(g) for g in groups)
    return min(percentile(g, q) for g in groups if 2 * len(g) >= full)


def latencies_from_due(requests):
    """Latency of each request from its due time; misses count as MISS."""
    return [lat if ok else MISS
            for lat, ok in zip(requests["latency_ms"], requests["ok"])]


def goodput(requests, window_s):
    """Requests due inside the offered window that succeeded, per second."""
    good = sum(1 for due, ok in zip(requests["due_ms"], requests["ok"])
               if ok and due < window_s * 1e3)
    return good / window_s


def fail_ratio(requests):
    """Share of attempted requests that were refused, expired or failed."""
    n = len(requests["ok"])
    return sum(1 for ok in requests["ok"] if not ok) / n


def overhead_pct(untraced, traced):
    """Traced versus untraced median, as a percentage of the untraced one."""
    base = statistics.median(untraced)
    return (statistics.median(traced) - base) / base * 100.0


def _inside(spans, starts, outer):
    """Spans (sorted by start, with `starts` their start times) that lie
    within `outer` on the same thread."""
    lo = bisect.bisect_left(starts, outer["ts"])
    hi = bisect.bisect_right(starts, outer["ts"] + outer["dur"])
    end = outer["ts"] + outer["dur"] + 1e-3
    return [s for s in spans[lo:hi]
            if s["tid"] == outer["tid"] and s["ts"] + s["dur"] <= end]


def train_breakdown(iterations, spans, kernels, families):
    """Decomposes traced training iterations.

    iteration -> layer (forward/backward spans) -> conv kernel -> segment ->
    {kernel compute (mcudnn_conv span), wrapper host (rest of the segment)},
    plus each conv layer's own host time outside its segments (facade call
    and bias) and the framework time outside every layer span (the
    residual).

    Segments inside a conv layer's backward span are attributed in call
    order: BackwardFilter first, then BackwardData, each taking as many
    segments as its plan has, and each must match its planned micro-batch
    and algorithm. Returns per-iteration averages: rows {label: ms}, sum_ms
    (layer spans), total_ms (measured), residual_pct, kernels_seen,
    kernels_expected, compute_ms, family_ms {family: ms}, flops.
    """
    plan = {k["label"]: k for k in kernels}
    by_name = {}
    for s in sorted(spans, key=lambda s: s["ts"]):
        by_name.setdefault(s["name"], []).append(s)
    segments = by_name.get("segment_exec", [])
    seg_starts = [s["ts"] for s in segments]
    convs = by_name.get("mcudnn_conv", [])
    conv_starts = [s["ts"] for s in convs]
    layers = sorted(by_name.get("layer.forward", []) + by_name.get("layer.backward", []),
                    key=lambda s: s["ts"])
    layer_starts = [s["ts"] for s in layers]

    rows = {}
    family_ms = {f: 0.0 for f in FAMILIES}
    seen = set()
    compute = flops = total = layer_sum = 0.0

    def add(key, ms):
        rows[key] = rows.get(key, 0.0) + ms

    for it in iterations:
        total += it["total_ms"]
        lo = bisect.bisect_left(layer_starts, it["t0"])
        hi = bisect.bisect_right(layer_starts, it["t1"])
        for layer in layers[lo:hi]:
            phase = "forward" if layer["name"] == "layer.forward" else "backward"
            name = layer["detail"]
            dur_ms = layer["dur"] / 1e3
            layer_sum += dur_ms
            key = "%s.%s" % (name, phase)
            add(key, dur_ms)
            segs = _inside(segments, seg_starts, layer)
            if not segs:
                continue
            order = (["Forward"] if phase == "forward"
                     else ["BackwardFilter", "BackwardData"])
            cursor = 0
            seg_ms = 0.0
            for ktype in order:
                label = "%s(%s)" % (name, ktype)
                if label not in plan:
                    continue
                expected = plan[label]["segments"]
                mine = segs[cursor:cursor + len(expected)]
                cursor += len(expected)
                if len(mine) != len(expected):
                    raise ValueError("segments of %s do not match its plan" % label)
                seen.add(label)
                flops += plan[label]["flops"]
                for seg, want in zip(mine, expected):
                    if seg["detail"] != "batch=%d algo=%d" % (want["batch"], want["algo"]):
                        raise ValueError("segment %r of %s differs from plan %r"
                                         % (seg["detail"], label, want))
                    kernel_ms = sum(c["dur"] for c in _inside(convs, conv_starts, seg)) / 1e3
                    family_ms[families[ktype][want["algo"]]] += kernel_ms
                    compute += kernel_ms
                    add(label + ".compute", kernel_ms)
                    add(label + ".segment_host", seg["dur"] / 1e3 - kernel_ms)
                    seg_ms += seg["dur"] / 1e3
            if cursor != len(segs):
                raise ValueError("unattributed segments in %s" % key)
            add(key + ".layer_host", dur_ms - seg_ms)
    n = len(iterations)
    total /= n
    layer_sum /= n
    return {
        "rows": {k: v / n for k, v in rows.items()},
        "sum_ms": layer_sum,
        "total_ms": total,
        "residual_pct": abs(total - layer_sum) / total * 100.0,
        "kernels_seen": len(seen),
        "kernels_expected": len(plan),
        "compute_ms": compute / n,
        "family_ms": {f: v / n for f, v in family_ms.items()},
        "flops": flops / n,
    }


def serve_breakdown(requests, spans):
    """Decomposes traced requests: due -> submit (generator lateness) ->
    queue (submit to batch pickup) -> gather (pickup to execution) -> exec
    -> resolve, against each request's measured latency from its due time.

    Only requests whose queue, exec and resolve spans were all recorded are
    used. Returns medians over those requests: rows {name: ms}, sum_ms,
    total_ms, residual_pct (median per-request |total - sum| / total), and
    the queue-wait samples.
    """
    by_trace = {}
    for s in spans:
        if s["trace"]:
            by_trace.setdefault(int(s["trace"]), {})[s["name"]] = s
    parts = {"late": [], "queue": [], "gather": [], "exec": [], "resolve": []}
    residuals = []
    totals = []
    sums = []
    for i, tid in enumerate(requests["trace_id"]):
        if not (requests["traced"][i] and requests["ok"][i]):
            continue
        got = by_trace.get(int(tid), {})
        if not all(k in got for k in ("serve_queue", "serve_exec_request", "serve_resolve")):
            continue
        q, e, r = got["serve_queue"], got["serve_exec_request"], got["serve_resolve"]
        row = {
            "late": requests["late_ms"][i],
            "queue": q["dur"] / 1e3,
            "gather": (e["ts"] - (q["ts"] + q["dur"])) / 1e3,
            "exec": e["dur"] / 1e3,
            "resolve": (r["ts"] - (e["ts"] + e["dur"])) / 1e3,
        }
        for k, v in row.items():
            parts[k].append(v)
        total = requests["latency_ms"][i]
        s = sum(row.values())
        totals.append(total)
        sums.append(s)
        residuals.append(abs(total - s) / total * 100.0)
    if not totals:
        raise ValueError("no completely traced request")
    return {
        "rows": {k: statistics.median(v) for k, v in parts.items()},
        "sum_ms": statistics.median(sums),
        "total_ms": statistics.median(totals),
        "residual_pct": statistics.median(residuals),
        "requests": len(totals),
        "queue_ms": parts["queue"],
    }
