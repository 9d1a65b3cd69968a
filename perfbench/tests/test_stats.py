"""Tests of the benchmark's arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import stats  # noqa: E402


def span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent, "flow": 0}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_at_40_flows(self):
        values = list(range(40, 0, -1))  # unsorted on purpose
        self.assertEqual(stats.percentile(values, 50), (20, 20))
        # p75 is the highest percentile with at least ten flows beyond it.
        self.assertEqual(stats.percentile(values, 75), (30, 10))
        self.assertEqual(stats.percentile(values, 80), (32, 8))

    def test_sample_count_scales_the_tail(self):
        values = list(range(1, 241))
        self.assertEqual(stats.percentile(values, 75), (180, 60))

    def test_mean_over_passes_gives_one_sample_per_flow(self):
        keys = ["a", "b", "a", "b"]
        self.assertEqual(stats.mean_per_key(keys, [2.0, 1.0, 1.5, 3.0]), [1.75, 2.0])

    def test_small_and_empty(self):
        self.assertEqual(stats.percentile([7.5], 50), (7.5, 0))
        self.assertEqual(stats.percentile([3, 1], 0), (1, 1))
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class ReferenceSpeedTest(unittest.TestCase):
    def test_scales_by_the_median_probe(self):
        # Probes twice the reference: the machine ran at half speed.
        self.assertEqual(stats.at_reference_speed(6.0, [2.0, 2.0, 2.0], 1.0), 3.0)

    def test_a_few_disturbed_probes_do_not_move_the_time(self):
        self.assertEqual(stats.at_reference_speed(6.0, [2.0, 9.0, 2.0, 0.1, 2.0], 1.0), 3.0)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_covered_interval_once(self):
        spans = [span("synth", 0.0, 10.0),
                 span("a", 1.0, 3.0, 0),
                 span("b", 2.0, 5.0, 0),   # overlaps a: counted once
                 span("c", 8.0, 12.0, 0)]  # clipped to the parent's end
        self.assertAlmostEqual(stats.self_times(spans)[0], 10.0 - 4.0 - 2.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span("synth", 0.0, 10.0),
                 span("decomp", 0.0, 6.0, 0),
                 span("inner", 1.0, 2.0, 1)]
        self.assertEqual(stats.self_times(spans), [4.0, 5.0, 1.0])

    def test_layer_totals_sum_self_times_by_name(self):
        spans = [span("synth", 0.0, 4.0), span("decomp", 1.0, 3.0, 0),
                 span("synth", 5.0, 6.0), span("decomp", 5.0, 5.5, 2)]
        layers = stats.layer_self_times(spans)
        self.assertEqual(layers["decomp"], (2, 2.5, 2.5))
        self.assertEqual(layers["synth"], (2, 5.0, 2.5))

    def test_self_times_sum_to_root_time(self):
        spans = [span("synth", 0.0, 9.0), span("a", 1.0, 4.0, 0),
                 span("b", 4.0, 7.0, 0), span("c", 2.0, 3.0, 1)]
        self.assertAlmostEqual(sum(stats.self_times(spans)), 9.0)


class RatioTest(unittest.TestCase):
    def test_ratio_with_empty_base_is_zero(self):
        self.assertEqual(stats.ratio(0, 0), 0.0)
        self.assertEqual(stats.ratio(3, 4), 0.75)

    def test_cache_ratio_base_is_hits_plus_misses(self):
        reports = [{"counters": {"cache.flow.hits": 1, "cache.flow.misses": 3}},
                   {"counters": {"cache.flow.misses": 4}}]
        m = stats.report_metrics(reports)
        self.assertEqual(m["cache.flow.lookups"], (8, "count"))
        self.assertEqual(m["cache.flow.hit_ratio"], (0.125, "ratio"))
        self.assertEqual(m["cache.alpha_pool.lookups"], (0, "count"))
        self.assertEqual(m["cache.alpha_pool.hit_ratio"], (0.0, "ratio"))

    def test_portfolio_and_odc_ratio_bases(self):
        reports = [{"counters": {"synth.portfolio_runs": 2,
                                 "synth.portfolio_conservative_won": 1,
                                 "pass.odc.nodes_scanned": 10, "pass.odc.rewrites": 4}},
                   {"counters": {"synth.portfolio_runs": 2}}]
        m = stats.report_metrics(reports)
        self.assertEqual(m["synth.portfolio_win_ratio"], (0.25, "ratio"))
        self.assertEqual(m["net.odc.rewrite_ratio"], (0.4, "ratio"))

    def test_bdd_hit_rate_weights_by_lookups(self):
        reports = [{"gauges": {"bdd.cache_hits": 90, "bdd.cache_lookups": 100,
                               "bdd.peak_nodes": 5}},
                   {"gauges": {"bdd.cache_hits": 0, "bdd.cache_lookups": 900,
                               "bdd.peak_nodes": 7}}]
        m = stats.report_metrics(reports)
        self.assertEqual(m["bdd.cache_hit_rate"], (0.09, "ratio"))
        self.assertEqual(m["bdd.peak_nodes"], (7, "nodes"))


class PhaseSecondsTest(unittest.TestCase):
    def test_counts_outermost_occurrence_per_path(self):
        tree = {"name": "total", "children": [
            {"name": "decompose", "seconds": 5.0, "children": [
                {"name": "boundset", "seconds": 2.0},
                {"name": "recurse", "seconds": 2.5, "children": [
                    {"name": "boundset", "seconds": 1.0}]}]}]}
        self.assertEqual(stats.phase_seconds(tree, "boundset"), 3.0)
        self.assertEqual(stats.phase_seconds(tree, "decompose"), 5.0)
        self.assertEqual(stats.phase_seconds(tree, "sift"), 0)


if __name__ == "__main__":
    unittest.main()
