#!/usr/bin/env python3
"""Benchmark of the mfd synthesis library (see perfbench/README.md).

    python3 perfbench/run.py --workload <table1-noodc|dc-specs|table1>
                             --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the library from src/ plus the driver) into
.bench_build/perfbench, runs the driver for one workload in a fresh process,
checks every flow, and prints the metrics. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. --write-golden records this run's per-flow results as the expected
ones in perfbench/golden.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
GOLDEN = HERE / "golden.json"
WORKLOADS = ("table1", "table1-noodc", "dc-specs")
# Seconds one pass of a workload takes at the reference speed (see
# REF_PROBE_S). An untraced run makes max(1, seconds // nominal) passes: the
# count depends only on --seconds, so two commits always do the same work.
NOMINAL_PASS_S = {"table1": 125.0, "table1-noodc": 36.0, "dc-specs": 19.0}
PRESETS = ("mulopII", "mulop-dc")
# Seconds the driver's speed probe takes at the reference speed. Times are
# reported at that speed (see at_reference_speed in stats.py): the probe runs
# no library code, so a library change moves the reported times as it moves
# the wall time, while the machine's own drift in speed cancels out.
REF_PROBE_S = 0.004
# The driver is stopped after this long; a table1 run takes minutes.
DRIVER_TIMEOUT_S = {"table1": 900.0, "table1-noodc": 170.0, "dc-specs": 170.0}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: library sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return BUILD / "perfbench_driver"


def run_driver(binary, args, passes, out):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--passes", str(passes), "--trace", str(args.trace), "--out", str(out)]
    subprocess.run(cmd, stdout=sys.stderr, check=True,
                   timeout=DRIVER_TIMEOUT_S[args.workload])
    with open(out) as f:
        return json.load(f)


def quality(flow):
    return [flow["clb_greedy"], flow["clb_matching"], flow["luts"], flow["depth"], flow["hash"]]


def key(flow):
    return "%s/%s" % (flow["input"], flow["preset"])


def flow_failed(flow):
    return bool(flow["error"]) or not flow["verified"] or bool(flow["ref_error"])


def check_determinism(flows):
    """Every later pass (and the traced pass) must reproduce pass 0 flow by
    flow. Returns a list of mismatch descriptions."""
    first = {key(f): quality(f) for f in flows if f["pass"] == 0}
    problems = []
    for f in flows:
        if f["pass"] != 0 and not flow_failed(f) and quality(f) != first.get(key(f)):
            problems.append("%s pass %d%s: %s != %s" % (
                key(f), f["pass"], " (traced)" if f["traced"] else "", quality(f),
                first.get(key(f))))
    return problems


def check_golden(workload, flows):
    """Per-flow quality and network hash against perfbench/golden.json."""
    if not GOLDEN.is_file():
        return ["perfbench/golden.json missing"]
    expected = json.loads(GOLDEN.read_text()).get(workload)
    if expected is None:
        return ["no golden results for workload %s" % workload]
    got = {key(f): quality(f) for f in flows if f["pass"] == 0}
    return ["%s: %s, expected %s" % (k, got.get(k), v)
            for k, v in sorted(expected.items()) if got.get(k) != v] + \
           ["%s: not in golden.json" % k for k in sorted(set(got) - set(expected))]


def write_golden(workload, flows):
    data = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    data[workload] = {key(f): quality(f) for f in flows if f["pass"] == 0}
    # One flow per line, so a changed network shows as one changed line.
    blocks = [" %s: {\n%s\n }" % (json.dumps(wl), ",\n".join(
        "  %s: %s" % (json.dumps(k), json.dumps(v)) for k, v in sorted(rows.items())))
        for wl, rows in sorted(data.items())]
    GOLDEN.write_text("{\n%s\n}\n" % ",\n".join(blocks))
    log("perfbench: wrote %d golden flows for %s" % (len(data[workload]), workload))


def totals(flows, field, preset):
    return sum(f[field] for f in flows if f["preset"] == preset)


def at_reference_speed(flow):
    """A flow's seconds at the reference speed: the machine's speed during
    the flow is taken from the probes run just before and just after it."""
    return stats.at_reference_speed(
        flow["seconds"], [flow["probe_before_s"], flow["probe_after_s"]], REF_PROBE_S)


def flow_samples(untraced):
    """One time per flow: its mean over the passes at the reference speed."""
    return stats.mean_per_key([key(f) for f in untraced],
                              [at_reference_speed(f) for f in untraced])


def setup_seconds(doc):
    """Median set-up time at the reference speed."""
    return stats.at_reference_speed(statistics.median(doc["setup_s"]),
                                    doc["setup_probe_s"], REF_PROBE_S)


def end_to_end(doc, untraced, samples):
    first = [f for f in untraced if f["pass"] == 0]
    m = {
        "setup_s": (setup_seconds(doc), "s"),
        "sweep_s": (sum(samples), "s"),
        "peak_rss_mb": (doc["peak_rss_kb"] / 1024.0, "MiB"),
        "clb_greedy.mulopII": (totals(first, "clb_greedy", "mulopII"), "CLBs"),
        "clb_greedy.mulop-dc": (totals(first, "clb_greedy", "mulop-dc"), "CLBs"),
        "clb_matching.mulop-dc": (totals(first, "clb_matching", "mulop-dc"), "CLBs"),
        "luts.mulop-dc": (totals(first, "luts", "mulop-dc"), "LUTs"),
        "depth.mulop-dc": (totals(first, "depth", "mulop-dc"), "levels"),
    }
    return m


def per_layer(doc, untraced, traced):
    spans = doc["spans"]
    layers = stats.layer_self_times(spans)
    traced_sweep = sum(f["seconds"] for f in traced)

    def self_s(name):
        return layers.get(name, (0, 0.0, 0.0))[2]

    m = {name: (self_s(span), "s") for name, span in (
        ("circuits.build_s", "circuits.build"), ("io.parse_s", "io.parse"),
        ("io.write_s", "io.write"), ("decomp.s", "decomp"),
        ("net.simplify_s", "net.simplify"), ("net.odc_s", "net.odc"),
        ("map.pack_s", "map.pack"), ("verify.s", "verify"), ("synth.self_s", "synth"))}
    m["trace.sweep_s"] = (traced_sweep, "s")
    # Both passes at the reference speed, so that drift between them does not
    # read as overhead.
    m["trace.overhead_s"] = (
        sum(at_reference_speed(f) for f in traced) -
        sum(at_reference_speed(f) for f in untraced if f["pass"] == 0), "s")
    m["trace.coverage"] = (stats.ratio(traced_sweep - self_s("synth"), traced_sweep), "ratio")
    # The traced pass runs every pass for real (no flow-result cache hits).
    dc_flows = [f for f in traced if f["preset"] == "mulop-dc"]
    for p in ("decompose", "simplify", "odc_resubst"):
        m["luts_out." + p] = (sum(f["luts_out"].get(p, 0) for f in dc_flows), "LUTs")
    m.update(stats.report_metrics([f["report"] for f in untraced if f["pass"] == 0]))
    return m, layers, traced_sweep


def print_layer_table(layers, traced_sweep):
    print("per-layer self time of the traced pass (%.3f s over all flows):" % traced_sweep)
    print("  %-16s %7s %12s %12s %8s" % ("span", "calls", "total_s", "self_s", "self%"))
    for name, (calls, total, self_s) in sorted(layers.items(), key=lambda kv: -kv[1][2]):
        print("  %-16s %7d %12.6f %12.6f %7.2f%%" % (
            name, calls, total, self_s, 100.0 * stats.ratio(self_s, traced_sweep)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()

    binary = build()
    passes = 1 if args.trace else max(1, int(args.seconds // NOMINAL_PASS_S[args.workload]))
    runs = BUILD / "runs"
    runs.mkdir(exist_ok=True)
    out = runs / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    doc = run_driver(binary, args, passes, out)

    flows = doc["flows"]
    untraced = [f for f in flows if not f["traced"]]
    traced = [f for f in flows if f["traced"]]
    failed = [f for f in flows if flow_failed(f)]
    for f in failed:
        log("perfbench: FAILED %s pass %d: %s" % (
            key(f), f["pass"], f["error"] or f["ref_error"] or "not verified"))

    if args.write_golden and not failed:
        write_golden(args.workload, flows)
    problems = check_determinism(flows) + check_golden(args.workload, flows)
    for p in problems:
        log("perfbench: MISMATCH %s" % p)

    samples = flow_samples(untraced)
    if args.trace:
        metrics, layers, traced_sweep = per_layer(doc, untraced, traced)
        print_layer_table(layers, traced_sweep)
    else:
        metrics = end_to_end(doc, untraced, samples)
        print("wall seconds per pass: %s; median probe %.6f s (reference %.6f s)" % (
            ", ".join("%.3f" % sum(f["seconds"] for f in untraced if f["pass"] == p)
                      for p in range(passes)),
            statistics.median(f["probe_before_s"] for f in untraced), REF_PROBE_S))

    first = [f for f in untraced if f["pass"] == 0]
    print("perfbench run: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "traced_passes": 1 if traced else 0,
        "flows_per_pass": len(first), "samples": len(samples),
        "timed_executions": len(untraced),
        # Per-flow percentiles are printed, not metrics: single 10-30 ms flows
        # varied by up to 2x between runs on a shared machine.
        "flow_s": {"p%d" % p: dict(zip(("value", "beyond"), stats.percentile(samples, p)))
                   for p in (50, 75)},
        "flow_order": [key(f) for f in first],
        "pipeline": doc["pipeline"], "boundset_jobs": doc["boundset_jobs"],
        "build_type": doc["build_type"], "nproc": os.cpu_count(),
        "totals": {p: [totals(first, "clb_greedy", p), totals(first, "clb_matching", p)]
                   for p in PRESETS},
        "mismatches": len(problems), "raw": str(out.relative_to(ROOT)),
    }))
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(flows),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
