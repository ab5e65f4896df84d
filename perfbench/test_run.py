#!/usr/bin/env python3
"""Self-tests of the benchmark harness (percentiles, output parsing, failure
accounting, crash and hang handling).  They need no build:

    python3 perfbench/test_run.py
"""

import os
import statistics
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def child_script(body):
    """argv running `body` in a fresh Python interpreter."""
    return [sys.executable, "-c", "import os, sys, time\n" + body]


def iter_event(ok=True, fail=None, wall=1.0, sim=0.5, phase="untraced", items=10):
    e = {"ev": "iter", "phase": phase, "wall_ms": wall, "sim_ms": sim, "insns": 100,
         "items": items, "sim_counted": 1, "t_ms": 1.0, "cpu_ms": 1.0, "ok": 1 if ok else 0}
    if fail:
        e["fail"] = fail
        e["err"] = "boom"
    return e


def fake_child(events, lost=None, done=True, rss_kib=2048):
    c = run.ChildRun()
    c.events = events
    c.lost = lost
    c.done = done
    c.max_rss_kib = rss_kib
    return c


class PercentileTest(unittest.TestCase):
    def test_matches_inclusive_quartiles(self):
        values = [7.0, 1.0, 3.0, 9.0, 4.0, 4.5, 12.0, 2.0]
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        self.assertAlmostEqual(run.percentile(values, 0.25), q1)
        self.assertAlmostEqual(run.percentile(values, 0.5), q2)
        self.assertAlmostEqual(run.percentile(values, 0.75), q3)

    def test_edges(self):
        self.assertEqual(run.percentile([5.0], 0.9), 5.0)
        self.assertEqual(run.percentile([1.0, 2.0, 3.0], 0.0), 1.0)
        self.assertEqual(run.percentile([1.0, 2.0, 3.0], 1.0), 3.0)
        with self.assertRaises(ValueError):
            run.percentile([], 0.5)

    def test_samples_beyond_p90(self):
        values = list(range(1, 101))
        self.assertEqual(run.samples_beyond(values, 0.9), 10)


class ParseTest(unittest.TestCase):
    def test_event(self):
        self.assertEqual(run.parse_line('{"ev":"done"}\n'), {"ev": "done"})

    def test_rejects_non_events(self):
        for line in ["", "trace written", "{not json", "[1, 2]", '{"x": 1}',
                     "*** stack smashing detected ***: terminated"]:
            self.assertIsNone(run.parse_line(line), line)


class AccountTest(unittest.TestCase):
    def test_iteration_failures(self):
        child = fake_child([iter_event(), iter_event(ok=False, fail="output"),
                            iter_event(ok=False, fail="repro")])
        attempted, failed, reasons = run.account([child], in_flight=3, unrun_ops=0)
        self.assertEqual((attempted, failed), (3, 2))
        self.assertTrue(any("output" in r for r in reasons))

    def test_lost_child_in_flight_and_unrun(self):
        lost = fake_child([iter_event(), iter_event()], lost="hang", done=False)
        attempted, failed, _ = run.account([lost], in_flight=16, unrun_ops=5)
        self.assertEqual((attempted, failed), (2 + 16 + 5, 16 + 5))

    def test_loss_in_service_phase(self):
        lost = fake_child([], lost="hang", done=False)
        lost.last_phase = "service"
        self.assertEqual(run.account([lost], in_flight=1, unrun_ops=0)[:2], (16, 16))

    def test_loss_at_exit_fails_only_teardown(self):
        lost = fake_child([iter_event()], lost="crash", done=True)
        attempted, failed, reasons = run.account([lost], in_flight=16, unrun_ops=0)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertTrue(any("at exit" in r for r in reasons))

    def test_reported_error_counts_once(self):
        child = fake_child([{"ev": "error", "err": "warm-up round: map[3] = 1, expected 2"}],
                           lost="error", done=False)
        attempted, failed, reasons = run.account([child], in_flight=3, unrun_ops=0)
        self.assertEqual((attempted, failed), (1, 1))
        self.assertTrue(any("set-up failed: warm-up round" in r for r in reasons))

    def test_service_count_failures(self):
        child = fake_child([iter_event(), {"ev": "service", "phase": "untraced", "jobs": 1,
                                           "insns": 10, "ref_insns": 20,
                                           "count_failures": 1}])
        self.assertEqual(run.account([child], 1, 0)[:2], (1, 1))


class MetricsTest(unittest.TestCase):
    def events(self):
        iters = [dict(iter_event(wall=float(w), sim=2.0), cpu_ms=3.0 * w, ref_cpu_ms=0.5 * w,
                      ref_slices=w) for w in range(1, 11)]
        iters.append(dict(iter_event(ok=False, fail="exception", wall=1000.0), cpu_ms=33.0,
                          ref_cpu_ms=22.0, ref_slices=11))  # a 2 ms slice
        events = iters + [{"ev": "setup", "wall_s": s, "cpu_s": 2 * s, "cold_ms": 0.0,
                           "ref_cpu_ms": s, "ref_slices": 2 * s} for s in (3, 1, 2)]
        events.append({"ev": "phase_end", "phase": "untraced", "wall_s": 2.0})
        return events

    def test_end_to_end(self):
        m = run.end_to_end([fake_child(self.events(), rss_kib=4096)], "untraced")
        # Median set-up CPU seconds, at the speed of the last set-up's 0.5 ms
        # slices.
        self.assertEqual(m["setup_s"], 4 * run.REFERENCE_SLICE_MS / 0.5)
        # Every iteration costs CPU, at the speed of the window's 2 ms slices.
        self.assertEqual(m["iter_cpu_ms"], 33.0 / 11 * run.REFERENCE_SLICE_MS / 2.0)
        self.assertEqual(m["iter_sim_ms"], 2.0)
        self.assertEqual(m["peak_rss_mb"], 4.0)

    def test_wall_metrics(self):
        m = run.wall_metrics([fake_child(self.events())], "untraced")
        self.assertEqual(m["iter_wall_ms_p50"], 5.5)  # the exception is not timed
        self.assertAlmostEqual(m["iter_wall_ms_p90"], 9.1)
        self.assertEqual(m["items_per_s"], 10 * 10 / 2.0)
        self.assertEqual(m["setup_wall_s"], 2)
        self.assertEqual((m["samples"], m["beyond_p90"]), (10, 1))

    def test_window_of_a_lost_child(self):
        events = [iter_event(), dict(iter_event(), t_ms=1500.0)]
        lost = fake_child(events, lost="crash", done=False)
        self.assertEqual(run.window_seconds(lost, "untraced"), 1.5)
        self.assertEqual(run.wall_metrics([lost], "untraced")["items_per_s"], 20 / 1.5)

    def test_cpu_over_children(self):
        # Each child's CPU time is scaled by its own slices.
        a = fake_child([dict(iter_event(), cpu_ms=4.0, ref_cpu_ms=0.0, ref_slices=0),
                        dict(iter_event(), cpu_ms=10.0, ref_cpu_ms=2.0, ref_slices=1)])
        b = fake_child([dict(iter_event(), cpu_ms=5.0, ref_cpu_ms=1.0, ref_slices=2)],
                       lost="crash", done=False)
        self.assertEqual(run.cpu_per_iter([a, b], "untraced"),
                         (10.0 / 2.0 + 5.0 / 0.5) * run.REFERENCE_SLICE_MS / 3)

    def test_child_without_slices_is_left_out(self):
        a = fake_child([dict(iter_event(), cpu_ms=4.0, ref_cpu_ms=2.0, ref_slices=2)])
        b = fake_child([dict(iter_event(), cpu_ms=9.0, ref_cpu_ms=0.0, ref_slices=0)],
                       lost="crash", done=False)
        self.assertEqual(run.cpu_per_iter([a, b], "untraced"), 4.0 * run.REFERENCE_SLICE_MS)
        with self.assertRaises(run.BenchError):
            run.cpu_per_iter([b], "untraced")

    def test_no_iterations(self):
        with self.assertRaises(run.BenchError):
            run.end_to_end([fake_child([])], "untraced")


class ChildTest(unittest.TestCase):
    def test_clean_child(self):
        c = run.run_child(child_script('print(\'{"ev":"iter","x":1}\'); print(\'{"ev":"done"}\')'),
                          dict(os.environ), wall_limit=30, hang_seconds=10)
        self.assertIsNone(c.lost)
        self.assertTrue(c.done)
        self.assertEqual([e["ev"] for e in c.events], ["iter", "done"])
        self.assertGreater(c.max_rss_kib, 0)

    def test_crash_keeps_events_and_stderr_tail(self):
        body = ('print(\'{"ev":"iter"}\', flush=True)\n'
                'sys.stderr.write("*** stack smashing detected ***\\n"); sys.stderr.flush()\n'
                'os.abort()')
        c = run.run_child(child_script(body), dict(os.environ), wall_limit=30, hang_seconds=10)
        self.assertEqual(c.lost, "crash")
        self.assertFalse(c.done)
        self.assertNotEqual(c.returncode, 0)
        self.assertEqual(len(c.events), 1)
        self.assertIn("stack smashing", c.stderr_tail)

    def test_reported_error(self):
        body = 'print(\'{"ev":"error","err":"bad"}\', flush=True)\nsys.exit(1)'
        c = run.run_child(child_script(body), dict(os.environ), 30, 10)
        self.assertEqual((c.lost, c.returncode), ("error", 1))

    def test_nonzero_exit_is_a_crash(self):
        c = run.run_child(child_script("sys.exit(3)"), dict(os.environ), 30, 10)
        self.assertEqual((c.lost, c.returncode), ("crash", 3))

    def test_hang_is_killed(self):
        body = 'print(\'{"ev":"phase","phase":"untraced"}\', flush=True)\ntime.sleep(600)'
        start = time.monotonic()
        c = run.run_child(child_script(body), dict(os.environ), wall_limit=60, hang_seconds=1)
        self.assertLess(time.monotonic() - start, 30)
        self.assertEqual(c.lost, "hang")
        self.assertEqual(c.last_phase, "untraced")
        self.assertLess(c.returncode, 0)  # killed by a signal

    def test_hang_at_exit(self):
        saved = run.EXIT_GRACE_SECONDS
        run.EXIT_GRACE_SECONDS = 1.0
        try:
            body = 'print(\'{"ev":"done"}\', flush=True)\ntime.sleep(600)'
            c = run.run_child(child_script(body), dict(os.environ), wall_limit=60,
                              hang_seconds=30)
        finally:
            run.EXIT_GRACE_SECONDS = saved
        self.assertEqual(c.lost, "hang")
        self.assertTrue(c.done)

    def test_child_env_replaces_skelcl_variables(self):
        os.environ["SKELCL_THREADS"] = "3"
        os.environ["SKELCL_KC_OPT"] = "0"
        try:
            env = run.child_env()
            self.assertEqual(env["SKELCL_THREADS"], str(run.POOL_THREADS))
            self.assertNotIn("SKELCL_KC_OPT", env)
            self.assertNotIn("SKELCL_THREADS", run.child_env(0))
        finally:
            del os.environ["SKELCL_THREADS"]
            del os.environ["SKELCL_KC_OPT"]


if __name__ == "__main__":
    unittest.main()
