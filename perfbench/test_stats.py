"""Self-tests for perfbench/stats.py. run.py runs them before every
measurement; run them alone with `python3 perfbench/test_stats.py`."""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def record(sched, sent, recv, status="solved", expired=False, pool=0,
           nodes=500, programs=40, answer="a"):
    return {"sched": sched, "sent": sent, "recv": recv, "status": status,
            "deadline_expired": expired, "pool": pool, "nodes": nodes,
            "programs": programs, "answer": answer}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile(list(reversed(xs)), 90), 90)

    def test_refuses_thin_tail(self):
        xs = list(range(1000))
        self.assertEqual(stats.percentile(xs, 99), 989)  # 10 beyond
        with self.assertRaises(stats.ThinTail):
            stats.percentile(xs[:999], 99)  # 9 beyond
        with self.assertRaises(stats.ThinTail):
            stats.percentile(list(range(15)), 90)
        with self.assertRaises(stats.ThinTail):
            stats.percentile([], 50)

    def test_median_needs_no_tail(self):
        self.assertEqual(stats.percentile([3.0, 1.0, 2.0], 50), 2.0)


class ScheduleTest(unittest.TestCase):
    def test_reproduces_exactly(self):
        a = stats.poisson_schedule(7, 60.0, 500)
        self.assertEqual(a, stats.poisson_schedule(7, 60.0, 500))
        self.assertNotEqual(a, stats.poisson_schedule(8, 60.0, 500))

    def test_rate_and_order(self):
        s = stats.poisson_schedule(1, 100.0, 20000)
        self.assertTrue(all(x < y for x, y in zip(s, s[1:])))
        self.assertAlmostEqual(len(s) / s[-1], 100.0, delta=3.0)


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_schedule(self):
        # The generator stalled: sent 30 ms late. Latency must include it.
        r = record(sched=1.000, sent=1.030, recv=1.040)
        self.assertAlmostEqual(stats.open_loop_latencies_ms([r])[0], 40.0)
        self.assertAlmostEqual(stats.lateness_ms([r])[0], 30.0)

    def test_failures_count_against_attempted(self):
        rs = [record(0, 0, 0.01),
              record(0, 0, 0.01, status="no_solution"),
              record(0, 0, 0.01, status="error:overloaded"),
              record(0, 0, 0.01, status="error:timeout"),
              record(0, 0, 0.01, status="bad"),
              record(0, 0, 0.0, status="lost"),
              record(0, 0, 0.01, expired=True)]
        self.assertEqual(stats.failure_count(rs), 5)
        self.assertEqual(len(stats.open_loop_latencies_ms(rs)), 2)


class RepeatedAnswerTest(unittest.TestCase):
    def test_same_task_must_get_the_same_answer(self):
        rs = [record(0, 0, 0.01, pool=3),
              record(0, 0, 0.01, pool=4, status="no_solution", answer="b"),
              record(0, 0, 0.01, pool=3),
              record(0, 0, 0.01, pool=3, nodes=501),
              record(0, 0, 0.01, pool=4, status="no_solution", answer="b"),
              record(0, 0, 0.01, pool=4, status="solved", answer="c"),
              record(0, 0, 0.01, pool=3, answer="x")]
        self.assertEqual(stats.answer_mismatches(rs), [rs[3], rs[5], rs[6]])
        self.assertEqual(stats.tasks_sent_twice(rs), 2)
        self.assertEqual(stats.answers_by_task(rs[:2]),
                         {"3": ["solved", 500, 40, "a"],
                          "4": ["no_solution", 500, 40, "b"]})

    def test_failed_sends_are_not_compared(self):
        rs = [record(0, 0, 0.01, pool=1),
              record(0, 0, 0.01, pool=1, status="error:overloaded",
                     nodes=0, programs=0, answer=""),
              record(0, 0, 0.01, pool=1, expired=True, nodes=7)]
        self.assertEqual(stats.answer_mismatches(rs), [])
        self.assertEqual(stats.tasks_sent_twice(rs), 0)
        self.assertEqual(list(stats.answers_by_task(rs)), ["1"])


class PeakRssTest(unittest.TestCase):
    def test_reads_the_child_not_the_parent(self):
        # A parent far larger than its child: the child's number must not
        # include the parent's resident set it was forked from.
        parent = bytearray(128 << 20)
        parent[::4096] = b"x" * len(parent[::4096])
        child = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; b = bytearray(32 << 20);"
             "b[::4096] = b'x' * len(b[::4096]);"
             "print('ready', flush=True); sys.stdin.read()"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.assertEqual(child.stdout.readline().strip(), "ready")
            rss = stats.peak_rss_mb(child.pid)
        finally:
            child.stdin.close()
            child.stdout.close()
            self.assertEqual(child.wait(), 0)
        self.assertGreater(rss, 32)
        self.assertLess(rss, 128)
        self.assertGreater(stats.peak_rss_mb(os.getpid()), 128)
        del parent


if __name__ == "__main__":
    unittest.main()
