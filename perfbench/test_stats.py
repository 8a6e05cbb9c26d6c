"""Unit tests of the benchmark's arithmetic on synthetic inputs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_reports_value_and_sample_count(self):
        self.assertEqual(stats.percentile([3.0, 1.0, 2.0], 50), (2.0, 3))
        self.assertEqual(stats.percentile([5.0], 90), (5.0, 1))

    def test_interpolates_between_ranks(self):
        value, n = stats.percentile([0.0, 10.0, 20.0, 30.0, 40.0], 90)
        self.assertAlmostEqual(value, 36.0)
        self.assertEqual(n, 5)

    def test_empty_input_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_rank_on_a_miss_is_a_miss(self):
        values = [1.0] * 8 + [stats.MISS] * 2
        self.assertEqual(stats.percentile(values, 50)[0], 1.0)
        self.assertTrue(math.isinf(stats.percentile(values, 90)[0]))


class BestBlockTest(unittest.TestCase):
    def test_best_block_skips_the_cut_end(self):
        groups = [[5.0] * 10, [3.0] * 10, [1.0] * 4]
        self.assertEqual(stats.best_block(groups, 50), (3.0, 10))
        self.assertEqual(stats.best_block(groups + [[2.0] * 5], 90), (2.0, 5))


    def test_a_block_whose_percentile_is_a_miss_loses(self):
        blocks = [[1.0] * 9 + [stats.MISS] * 3, [2.0] * 12]
        self.assertEqual(stats.best_block(blocks, 90), (2.0, 12))


class MissAccountingTest(unittest.TestCase):
    REQUESTS = {
        "due_ms": [0.0, 10.0, 20.0, 30.0, 990.0, 1500.0],
        "latency_ms": [1.0, 2.0, 0.1, 3.0, 4.0, 1.0],
        "ok": [1, 1, 0, 1, 1, 1],
    }

    def test_refused_expired_or_failed_requests_are_misses(self):
        lat = stats.latencies_from_due(self.REQUESTS)
        self.assertEqual(lat[:2], [1.0, 2.0])
        self.assertTrue(math.isinf(lat[2]))  # its 0.1 ms does not count
        # The fast failure cannot pull the median down.
        self.assertEqual(stats.percentile(lat, 50)[0], 2.5)

    def test_fail_ratio(self):
        self.assertAlmostEqual(stats.fail_ratio(self.REQUESTS), 1 / 6)
        self.assertEqual(stats.fail_ratio({"ok": [0, 0, 0]}), 1.0)

    def test_goodput_counts_successes_due_inside_the_window(self):
        # 4 successes due before 1 s; the one due at 1.5 s is outside.
        self.assertAlmostEqual(stats.goodput(self.REQUESTS, 1.0), 4.0)
        self.assertAlmostEqual(stats.goodput(self.REQUESTS, 2.0), 2.5)


class OverheadTest(unittest.TestCase):
    def test_relative_to_untraced_median(self):
        self.assertAlmostEqual(stats.overhead_pct([10, 10, 12], [11, 11, 50]), 10.0)


def span(name, ts, dur, detail="", tid=0, trace=0):
    return {"name": name, "ts": ts, "dur": dur, "detail": detail, "tid": tid,
            "trace": trace}


FAMILIES = {"Forward": ["implicit", "implicit", "gemm", "direct", "fft", "fft",
                        "winograd", "winograd"],
            "BackwardData": ["direct", "gemm", "fft", "fft", "winograd", "winograd"],
            "BackwardFilter": ["direct", "gemm", "fft", "gemm"]}

KERNELS = [
    {"label": "conv1(Forward)", "type": "Forward", "flops": 1e6,
     "segments": [{"batch": 2, "algo": 2}, {"batch": 2, "algo": 2}]},
    {"label": "conv1(BackwardFilter)", "type": "BackwardFilter", "flops": 2e6,
     "segments": [{"batch": 4, "algo": 2}]},
    {"label": "conv1(BackwardData)", "type": "BackwardData", "flops": 3e6,
     "segments": [{"batch": 4, "algo": 0}]},
]


def train_iteration(t0, gap_us):
    """One synthetic iteration: 1000 us of layers -- conv1 forward (2
    segments), relu, conv1 backward (filter then data) -- plus `gap_us` of
    framework time outside every layer span."""
    s = [
        span("layer.forward", t0, 400, "conv1"),
        span("segment_exec", t0 + 10, 150, "batch=2 algo=2"),
        span("mcudnn_conv", t0 + 20, 120),
        span("segment_exec", t0 + 200, 150, "batch=2 algo=2"),
        span("mcudnn_conv", t0 + 210, 130),
        span("layer.forward", t0 + 400, 100, "relu1"),
        span("layer.backward", t0 + 500, 500, "conv1"),
        span("segment_exec", t0 + 510, 200, "batch=4 algo=2"),
        span("mcudnn_conv", t0 + 520, 180),
        span("segment_exec", t0 + 720, 200, "batch=4 algo=0"),
        span("mcudnn_conv", t0 + 730, 150),
    ]
    total_us = 1000.0 + gap_us
    it = {"t0": t0, "t1": t0 + total_us, "total_ms": total_us / 1e3}
    return it, s


class TrainBreakdownTest(unittest.TestCase):
    def test_rows_sum_to_total_and_every_kernel_appears(self):
        it, spans = train_iteration(0.0, 0.0)
        b = stats.train_breakdown([it], spans, KERNELS, FAMILIES)
        self.assertAlmostEqual(b["sum_ms"], 1.0)
        self.assertAlmostEqual(b["residual_pct"], 0.0)
        self.assertEqual(b["kernels_seen"], 3)
        self.assertEqual(b["kernels_expected"], 3)
        rows = b["rows"]
        self.assertAlmostEqual(rows["conv1(Forward).compute"], 0.25)
        self.assertAlmostEqual(rows["conv1(Forward).segment_host"], 0.05)
        self.assertAlmostEqual(rows["conv1.forward.layer_host"], 0.1)
        self.assertAlmostEqual(rows["conv1(BackwardData).compute"], 0.15)
        self.assertAlmostEqual(b["compute_ms"], 0.58)
        self.assertAlmostEqual(b["family_ms"]["gemm"], 0.25)
        self.assertAlmostEqual(b["family_ms"]["fft"], 0.18)
        self.assertAlmostEqual(b["family_ms"]["direct"], 0.15)
        self.assertAlmostEqual(b["flops"], 6e6)

    def test_time_outside_layers_is_the_residual(self):
        it, spans = train_iteration(0.0, 100.0)
        b = stats.train_breakdown([it], spans, KERNELS, FAMILIES)
        self.assertAlmostEqual(b["sum_ms"], 1.0)
        self.assertAlmostEqual(b["residual_pct"], 100 / 11)
        self.assertGreater(b["residual_pct"], stats.TRAIN_SUM_TOLERANCE * 100)

    def test_averages_over_iterations(self):
        it1, s1 = train_iteration(0.0, 0.0)
        it2, s2 = train_iteration(5000.0, 50.0)
        b = stats.train_breakdown([it1, it2], s1 + s2, KERNELS, FAMILIES)
        self.assertAlmostEqual(b["total_ms"], 1.025)
        self.assertAlmostEqual(b["residual_pct"], 2.5 / 1.025)

    def test_segments_that_contradict_the_plan_are_an_error(self):
        it, spans = train_iteration(0.0, 0.0)
        spans[1]["detail"] = "batch=2 algo=6"
        with self.assertRaises(ValueError):
            stats.train_breakdown([it], spans, KERNELS, FAMILIES)

    def test_missing_segment_is_an_error(self):
        it, spans = train_iteration(0.0, 0.0)
        del spans[3:5]
        with self.assertRaises(ValueError):
            stats.train_breakdown([it], spans, KERNELS, FAMILIES)


class ServeBreakdownTest(unittest.TestCase):
    def requests(self, latency):
        return {"trace_id": [7, 8, 9], "traced": [1, 1, 0], "ok": [1, 1, 1],
                "late_ms": [0.05, 0.05, 0.0], "latency_ms": [latency, latency, 1.0]}

    def spans(self):
        out = []
        for tid, base in ((7, 0.0), (8, 10000.0)):
            out += [span("serve_queue", base, 300, trace=tid),
                    span("serve_exec_request", base + 350, 500, trace=tid),
                    span("serve_resolve", base + 900, 0, trace=tid)]
        return out

    def test_rows_sum_to_latency_from_due(self):
        b = stats.serve_breakdown(self.requests(0.95), self.spans())
        self.assertEqual(b["requests"], 2)  # the untraced request is skipped
        self.assertAlmostEqual(b["rows"]["queue"], 0.3)
        self.assertAlmostEqual(b["rows"]["gather"], 0.05)
        self.assertAlmostEqual(b["rows"]["exec"], 0.5)
        self.assertAlmostEqual(b["rows"]["resolve"], 0.05)
        self.assertAlmostEqual(b["sum_ms"], 0.95)
        self.assertAlmostEqual(b["residual_pct"], 0.0)

    def test_unexplained_latency_is_the_residual(self):
        b = stats.serve_breakdown(self.requests(1.9), self.spans())
        self.assertAlmostEqual(b["residual_pct"], 50.0)

    def test_no_complete_trace_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.serve_breakdown(self.requests(1.0), self.spans()[:2])


if __name__ == "__main__":
    unittest.main()
