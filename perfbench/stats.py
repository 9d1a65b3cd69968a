"""Arithmetic of the benchmark: speed scaling, percentiles, span self times,
ratios and the aggregation of per-flow library reports. Pure functions,
tested by perfbench/tests/test_stats.py."""

import math
import statistics


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it. Returns (value, samples strictly above it)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def at_reference_speed(seconds, probes, ref_probe_s):
    """`seconds` measured while the speed probe took `probes` seconds, scaled
    to the machine speed at which the probe takes ref_probe_s. The median of
    the probes stands for the machine's speed."""
    return seconds * ref_probe_s / statistics.median(probes)


def mean_per_key(keys, values):
    """The mean of the values of each key, one sample per key, in order of
    first appearance."""
    groups = {}
    for k, v in zip(keys, values):
        groups.setdefault(k, []).append(v)
    return [statistics.mean(v) for v in groups.values()]


def ratio(num, base):
    """num / base, 0.0 for an empty base (the base is reported alongside)."""
    return num / base if base else 0.0


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Per span: its duration minus the part of its interval that its child
    spans cover. `spans` are dicts with start, end and parent (an index into
    the list, -1 for a root)."""
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start"], s["end"]))
    return [
        (s["end"] - s["start"]) - covered_length(children[i], s["start"], s["end"])
        for i, s in enumerate(spans)
    ]


def layer_self_times(spans):
    """{span name: (calls, total seconds, self seconds)} over all spans."""
    out = {}
    for s, own in zip(spans, self_times(spans)):
        calls, total, self_s = out.get(s["name"], (0, 0.0, 0.0))
        out[s["name"]] = (calls + 1, total + s["end"] - s["start"], self_s + own)
    return out


def phase_seconds(node, name):
    """Seconds of every phase called `name` in an obs phase tree, counting
    only the outermost occurrence on each path."""
    if node.get("name") == name:
        return node.get("seconds", 0.0)
    return sum(phase_seconds(c, name) for c in node.get("children", []))


def report_metrics(reports):
    """Per-layer metrics summed (or maxed) over the obs reports of one pass."""
    def counter(name):
        return sum(r.get("counters", {}).get(name, 0) for r in reports)

    def gauge(name):
        return [r.get("gauges", {}).get(name, 0.0) for r in reports]

    def phases(name):
        return sum(phase_seconds(r.get("phases", {}), name) for r in reports)

    m = {
        "decomp.boundset_s": (phases("boundset"), "s"),
        "decomp.sift_s": (phases("sift"), "s"),
        "decomp.symmetrize_s": (phases("symmetrize"), "s"),
        "decomp.encode_s": (phases("encode"), "s"),
        "boundset.candidates": (counter("boundset.candidates_evaluated"), "count"),
        "boundset.searches": (counter("boundset.searches"), "count"),
        "boundset.found_ratio": (
            ratio(counter("boundset.found"), counter("boundset.searches")), "ratio"),
        "decomp.steps": (counter("decomp.steps"), "count"),
        "decomp.shannon_fallbacks": (counter("decomp.shannon_fallbacks"), "count"),
        "synth.portfolio_runs": (counter("synth.portfolio_runs"), "count"),
        "synth.portfolio_win_ratio": (
            ratio(counter("synth.portfolio_conservative_won"),
                  counter("synth.portfolio_runs")), "ratio"),
        "sym.symmetrize.pairs": (
            counter("sym.symmetrize.pairs_ne") + counter("sym.symmetrize.pairs_e"), "count"),
        "decomp.share.ncc_cut": (
            counter("decomp.share.ncc_before") - counter("decomp.share.ncc_after"), "count"),
        "decomp.per_output.ncc_cut": (
            counter("decomp.per_output.ncc_before") - counter("decomp.per_output.ncc_after"),
            "count"),
        "coloring.calls": (counter("coloring.calls"), "count"),
        "coloring.exact_nodes": (counter("coloring.exact_nodes"), "count"),
        "net.odc.nodes_scanned": (counter("pass.odc.nodes_scanned"), "count"),
        "net.odc.rewrite_ratio": (
            ratio(counter("pass.odc.rewrites"), counter("pass.odc.nodes_scanned")), "ratio"),
        "net.odc.cone_skips": (counter("pass.odc.cone_skips"), "count"),
        "bdd.peak_nodes": (max(gauge("bdd.peak_nodes"), default=0.0), "nodes"),
        "bdd.cache_hit_rate": (
            ratio(sum(gauge("bdd.cache_hits")), sum(gauge("bdd.cache_lookups"))), "ratio"),
        "bdd.gc_runs": (sum(gauge("bdd.gc_runs")), "count"),
        "bdd.reorder_swaps": (sum(gauge("bdd.reorder_swaps")), "count"),
        "clb.matching.mergeable_edges": (counter("clb.matching.mergeable_edges"), "count"),
    }
    for cache in ("multiplicity", "flow", "alpha_pool"):
        hits = counter("cache.%s.hits" % cache)
        lookups = hits + counter("cache.%s.misses" % cache)
        m["cache.%s.lookups" % cache] = (lookups, "count")
        m["cache.%s.hit_ratio" % cache] = (ratio(hits, lookups), "ratio")
    return m
