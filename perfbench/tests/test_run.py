"""Tests of the benchmark's own logic: the request stream, the tail rule,
open-loop accounting and the metric declarations.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

HEXES = [f"4881c0{i:08x}" for i in range(2000)]


def answer(status, latency_us, lag_us=0.0, **fields):
    response = None if status is None else dict(status=status, **fields)
    latency = None if latency_us is None else int(latency_us * 1000)
    return int(lag_us * 1000), latency, response


class StreamTest(unittest.TestCase):
    def test_same_seed_same_stream_other_seed_other_stream(self):
        first = run.serve_stream(HEXES, 7, 3)
        self.assertEqual(first, run.serve_stream(HEXES, 7, 3))
        self.assertNotEqual(first, run.serve_stream(HEXES, 8, 3))

    def test_stream_is_open_loop_at_the_fixed_rate(self):
        stream = run.serve_stream(HEXES, 1, 2, rate=400)
        dues = [due for due, *_ in stream]
        self.assertEqual(dues, sorted(set(dues)))
        self.assertTrue(all(due % 2500 == 0 for due in dues))
        # Every slot from the first miss's settling on is used; before
        # it only the misses' slots are.
        settle = dues[0] + run.SETTLE_US
        settled = [due for due in dues if due >= settle]
        self.assertEqual(settled, list(range(settle, 800 * 2500, 2500)))
        early = [kind for due, _, kind, _, _ in stream if due < settle]
        self.assertEqual(set(early), {"miss"})
        self.assertLess(len(early), run.SETTLE_US / 2500 / 2)

    def test_misses_arrive_at_their_share_of_the_rate_from_the_start(self):
        stream = run.serve_stream(HEXES, 5, 10, rate=400)
        for start in (0, 5_000_000):
            misses = [due for due, _, kind, _, _ in stream
                      if kind == "miss" and start <= due < start + 2_000_000]
            self.assertAlmostEqual(len(misses) / 2, 400 * (1 - run.REPEAT_SHARE), delta=12)

    def test_the_rate_is_the_stated_share_of_the_miss_capacity(self):
        misses_per_s = run.SERVE_RATE * (1 - run.REPEAT_SHARE)
        self.assertAlmostEqual(misses_per_s, run.MISS_CAPACITY * run.MISS_LOAD)
        # The serve-mixed corpus has first-seen blocks to spare.
        hexes = [f"{i:08x}" for i in range(10 * run.serve_scale(20))]
        stream = run.serve_stream(hexes, 1, 20)
        misses = sum(kind == "miss" for _, _, kind, _, _ in stream)
        self.assertLess(misses, len(hexes) / 1.4)

    def test_repeats_are_settled_warm_hits_and_misses_are_first_seen(self):
        stream = run.serve_stream(HEXES, 3, 10, rate=400)
        first_due = {}
        for due, conn, kind, block, line in stream:
            request = json.loads(line)
            self.assertEqual(request["hex"], block)
            if kind == "miss":
                self.assertNotIn(block, first_due)
                self.assertEqual(conn, run.COLD_CONN)
                first_due[block] = due
            else:
                self.assertEqual(conn, run.WARM_CONN)
                self.assertLessEqual(first_due[block], due - run.SETTLE_US)
        settled = [kind for due, _, kind, _, _ in stream if due >= run.SETTLE_US]
        hit_share = settled.count("hit") / len(settled)
        self.assertAlmostEqual(hit_share, run.REPEAT_SHARE, delta=0.03)

    def test_a_corpus_too_small_for_the_stream_is_refused(self):
        with self.assertRaises(run.BenchError):
            run.serve_stream(HEXES[:50], 1, 10)


class TailTest(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond_it(self):
        values = list(range(1, 1001))
        p, value, beyond = run.tail(values)
        self.assertEqual((p, value, beyond), (99.0, 990, 10))
        self.assertEqual(run.tail(list(range(1, 10001))), (99.9, 9990, 10))
        self.assertEqual(run.tail(list(range(20)))[0], 50.0)
        self.assertEqual(run.tail(list(range(200)))[:1], (95.0,))
        self.assertIsNone(run.tail(list(range(19))))

    def test_tail_is_the_highest_qualifying_percentile(self):
        for n in (20, 37, 101, 999, 1000, 4000, 10000, 20000):
            p, _, beyond = run.tail(list(range(n)))
            self.assertGreaterEqual(beyond, run.TAIL_BEYOND)
            higher = [q for q in run.TAIL_LADDER if q / 10 > p]
            for q in higher:
                rank = -(-n * q // 1000)
                self.assertLess(n - rank, run.TAIL_BEYOND)


class AccountingTest(unittest.TestCase):
    def stream(self, n):
        return [(i * 1000, i % 2, "hit" if i % 2 == 0 else "miss", "00", "{}") for i in range(n)]

    def test_latency_is_taken_from_due_time_and_lag_is_reported(self):
        requests = self.stream(4)
        answers = [
            answer("ok", 100, source="cache", throughput=1.0),
            answer("ok", 900, source="measured", throughput=2.0),
            answer("ok", 5100, lag_us=5000, source="cache", throughput=1.0),
            answer("failed", 700, category="crash"),
        ]
        summary = run.summarize_answers(requests, answers)
        self.assertEqual(summary["hit_count"], 2)
        self.assertEqual(summary["hit_p50_us"], (100 + 5100) / 2)
        self.assertEqual(summary["lag_ms"], 5.0)
        self.assertAlmostEqual(summary["waited_s"], (100 + 900 + 5100 + 700) / 1e6)
        self.assertEqual(summary["span_s"], (2000 + 5100) / 1e6)
        # Two hits and two misses (one dropped by a filter), each at
        # its kind's median.
        self.assertAlmostEqual(summary["typical_wait_s"],
                               (2 * (100 + 5100) / 2 + 2 * (900 + 700) / 2) / 1e6)
        self.assertEqual(summary["failed"], 0)
        self.assertEqual(summary["dropped"], 1)

    def test_refused_shed_expired_and_unanswered_requests_fail(self):
        requests = self.stream(6)
        answers = [
            answer("ok", 50, source="cache", throughput=1.0),
            answer("rejected", 40, reason="queue-full", retry_after_ms=100),
            answer("rejected", 40, reason="shedding", retry_after_ms=100),
            answer("error", 30, reason="deadline-expired", detail=""),
            answer(None, None),
            answer("ok", run.SLO_US + 1, source="measured", throughput=2.0),
        ]
        summary = run.summarize_answers(requests, answers)
        self.assertEqual(summary["failed"], 4)
        self.assertEqual(summary["failed_share"], 4 / 6)
        self.assertEqual(summary["slo_miss_share"], 5 / 6)
        self.assertEqual(summary["answered"], 2)

    def test_every_serve_figure_is_printed_with_its_unit(self):
        requests = self.stream(40)
        answers = [answer("ok", 100 + i, source="cache", throughput=1.0) for i in range(40)]
        summary = run.summarize_answers(requests, answers)
        figures = run.other_figures("serve-mixed", summary, 40, 0,
                                    {"measured_share": {"value": 1.0}})
        names = {name: unit for name, _, unit, _ in figures}
        for name in ("failed_share", "dropped_share", "slo_miss_share", "lag_ms",
                     "hit_p50_us", "hit_tail_us", "miss_p50_us", "miss_tail_us"):
            self.assertIn(name, names)
        tails = [note for name, _, _, note in figures if name.endswith("_tail_us")]
        self.assertTrue(all("samples beyond" in note for note in tails))

    def test_answer_count_must_match_the_stream(self):
        with self.assertRaises(run.BenchError):
            run.summarize_answers(self.stream(2), [answer("ok", 1, source="cache")])


class DeclarationTest(unittest.TestCase):
    SPEC = json.loads((Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text())
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    def test_metric_and_workload_names_are_plain(self):
        names = [m["name"] for m in self.SPEC["end_to_end"] + self.SPEC["per_layer"]]
        names += [w["name"] for w in self.SPEC["workloads"]]
        for name in names:
            self.assertRegex(name, self.NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_workloads_and_end_to_end_metrics_match_the_runner(self):
        declared = [w["name"] for w in self.SPEC["workloads"]]
        self.assertEqual(declared, [w for w in run.WORKLOADS if w in declared])
        self.assertEqual(set(run.WORKLOADS) - set(declared), {"serve-mixed"})
        produced = run.metric_block(*range(1, 8))
        declared = {m["name"]: m["unit"] for m in self.SPEC["end_to_end"]}
        self.assertEqual({k: unit for k, (_, unit) in produced.items()}, declared)

    def test_bounds_and_set_up_metric(self):
        for metric in self.SPEC["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
            self.assertIn(metric["better"], ("lower", "higher"))
        setup = [m for m in self.SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.SPEC["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
