"""Tests of the benchmark's metric math.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import metrics  # noqa: E402


def trial(status="ok", ms=(1.0,), **fields):
    t = {"status": status, "ms": list(ms), "k_final": 3, "lower_bound": 2,
         "startup_msgs": 10, "mdst_msgs": 90, "startup_time": 4,
         "mdst_time": 6}
    t.update(fields)
    return t


def raw_run(trials, slowdown=1.0):
    """A run on a host that runs the reference unit `slowdown` times slower
    than REFERENCE_MS; every time lies in reference segment 0."""
    for t in trials:
        t["segment"] = [0] * len(t["ms"])
    return {"trials": trials,
            "setup_ms": [[300.0 * slowdown], [100.0 * slowdown],
                         [200.0 * slowdown]],
            "setup_segment": [[0]] * 3,
            "reference_ms": [metrics.REFERENCE_MS * slowdown] * 2,
            "peak_rss_bytes": 5_000_000}


class TailPercentile(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertIsNone(metrics.tail_percentile(range(99), 90))
        self.assertAlmostEqual(metrics.tail_percentile(range(100), 90), 89.1)

    def test_p99_needs_a_thousand_samples(self):
        self.assertIsNone(metrics.tail_percentile(range(999), 99))
        self.assertIsNotNone(metrics.tail_percentile(range(1000), 99))

    def test_median_of_one_sample_is_allowed(self):
        self.assertEqual(metrics.tail_percentile([7.0] * 20, 50), 7.0)
        self.assertIsNone(metrics.tail_percentile([7.0] * 19, 50))

    def test_percentile_interpolates_between_ranks(self):
        self.assertEqual(metrics.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(metrics.percentile([5], 90), 5)


class OkFrac(unittest.TestCase):
    def test_thrown_wedged_and_failed_checks_count_against(self):
        trials = [trial(), trial(), trial("threw"), trial("wedged"),
                  trial("check_failed")]
        self.assertAlmostEqual(metrics.ok_frac(trials), 2 / 5)

    def test_all_ok(self):
        self.assertEqual(metrics.ok_frac([trial()] * 3), 1.0)

    def test_thrown_trial_lowers_the_end_to_end_metric(self):
        values, _ = metrics.end_to_end(raw_run(
            [trial(), trial("threw", startup_msgs=0, mdst_msgs=0)]))
        self.assertEqual(values["ok_frac"][0], 0.5)
        # The thrown trial has no counts; it does not dilute the means.
        self.assertEqual(values["sim_msgs_per_trial"][0], 100)

    def test_no_trials_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.ok_frac([])


class TrialP90(unittest.TestCase):
    def test_omitted_under_100_trials(self):
        trials = [trial(ms=(float(i),)) for i in range(99)]
        values, notes = metrics.end_to_end(raw_run(trials))
        self.assertIn("trial_p90_ms", notes)
        self.assertEqual(values["trial_p90_ms"][0], values["trial_p50_ms"][0])

    def test_reported_from_100_trials(self):
        trials = [trial(ms=(float(i),)) for i in range(100)]
        values, notes = metrics.end_to_end(raw_run(trials))
        self.assertNotIn("trial_p90_ms", notes)
        self.assertAlmostEqual(values["trial_p90_ms"][0], 89.1)

    def test_a_trial_counts_once_whatever_its_pass_count(self):
        # Each trial contributes the median of its passes, so 99 trials
        # timed over many passes still hold too few samples for a p90.
        trials = [trial(ms=(float(i),) * 5) for i in range(99)]
        _, notes = metrics.end_to_end(raw_run(trials))
        self.assertIn("trial_p90_ms", notes)


class EndToEnd(unittest.TestCase):
    def test_medians_and_rates(self):
        raw = raw_run([trial(ms=(1.0, 3.0, 2.0)), trial(ms=(4.0, 4.0, 4.0))])
        values, _ = metrics.end_to_end(raw)
        self.assertEqual(values["setup_s"], (0.2, "s"))
        self.assertEqual(values["trial_p50_ms"][0], 3.0)
        # Passes: 1 + 4 ms, 3 + 4 ms, 2 + 4 ms; the median pass is 6 ms.
        self.assertEqual(values["wall_s"][0], 0.006)
        self.assertEqual(values["msgs_per_s"][0], 200 / 0.006)
        self.assertEqual(values["mean_gap"][0], 1)
        self.assertEqual(values["peak_rss_mb"][0], 5.0)


class ReferenceSpeed(unittest.TestCase):
    def test_times_at_reference_speed_are_unchanged(self):
        ref = metrics.REFERENCE_MS
        self.assertEqual(metrics.scaled([2.0, 4.0], [0, 1], [ref] * 3),
                         [2.0, 4.0])

    def test_a_segment_takes_the_mean_of_the_samples_around_it(self):
        ref = metrics.REFERENCE_MS
        samples = [2 * ref, 2 * ref, ref / 2, ref / 2]
        # Segment 0 lies between samples 0 and 1, segment 2 between 2 and 3,
        # segment 1 between a slow and a fast sample.
        self.assertEqual(metrics.scaled([4.0, 4.0, 5.0], [0, 2, 1], samples),
                         [2.0, 8.0, 4.0])

    def test_a_uniformly_slower_host_reads_the_same(self):
        fast = raw_run([trial(ms=(1.5, 3.0)), trial(ms=(4.0, 4.0))])
        slow = raw_run([trial(ms=(3.0, 6.0)), trial(ms=(8.0, 8.0))],
                       slowdown=2.0)
        self.assertEqual(metrics.end_to_end(slow), metrics.end_to_end(fast))

    def test_a_time_needs_its_segment(self):
        with self.assertRaises(ValueError):
            metrics.scaled([1.0, 2.0], [0], [metrics.REFERENCE_MS] * 2)


if __name__ == "__main__":
    unittest.main()
