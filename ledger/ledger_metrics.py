"""Turns the raw output of one dalut_ledger run into the ledger's metrics.

dalut_ledger (the C++ half) records raw samples: per-operation wall times
and MEDs, set-up repetitions, serve rates, swap latency splits, telemetry
counters and, for traced runs, a Chrome trace. This module reduces them to
the end-to-end metrics of BENCHMARK.json (untraced runs) and the per-layer
metrics (traced runs). README.md in this directory defines every metric.
"""

import math
import statistics
from collections import defaultdict

# name -> unit; must match the end_to_end list of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "op_cost_ms": "ms",
    "peak_rss_mb": "MB",
}

# Span name -> layer, for the wall-time attribution of a traced pass. Spans
# named ledger.* are the benchmark's own, placed around public calls; the
# others are the library's.
SPAN_LAYERS = {
    "build_bit_costs": "core.bit_cost",
    "ledger.reset_memo": "core.eval_workspace",
    "sa.sweep": "core.sa_search",
    "bssa.nd_round": "core.partition_opt",
    "bssa.beam_bit": "core.bssa",
    "bssa.refine_bit": "core.bssa",
    "ledger.bssa": "core.bssa",
    "ledger.search": "core.bssa",
    "dalta.bit": "core.dalta",
    "ledger.dalta": "core.dalta",
    "error_report": "core.evaluate",
    "checkpoint.save": "core.checkpoint",
    "ledger.checkpoint": "core.checkpoint",
    "ledger.check": "core.decomposition",
    "ledger.design": "core.decomposition",
    "ledger.realize": "core.decomposition",
    "ledger.hw_build": "hw.architectures",
    "ledger.hw_verify": "hw.simulator",
    "ledger.stream_nd": "hw.stream_engine",
    "ledger.stream_mono": "hw.stream_engine",
    "ledger.prefix_check": "hw.simulator",
    "ledger.engine": "hw.stream_engine",
    "ledger.swap_mono": "hw.reconfig",
    "ledger.swap_nd": "hw.reconfig",
    "ledger.inputs": "ledger.inputs",
}
LAYERS = sorted(set(SPAN_LAYERS.values()))

# Per-layer metric name -> unit; must match the per_layer list of
# BENCHMARK.json. Every traced run prints all of them; a layer that does no
# work in a workload reads 0.
PER_LAYER = {
    "func.materialize_s": "s",
    "stream.compile_s": "s",
    "bit_cost.calls": "count",
    "bit_cost.s": "s",
    "evalcache.gathers": "count",
    "evalcache.hits": "count",
    "evalcache.misses": "count",
    "evalcache.slices": "count",
    "evalcache.bytes": "B",
    "evalcache.lookups": "count",
    "evalcache.hit_ratio": "ratio",
    "gather.ns_per_call": "ns",
    "opt_for_part.ns_per_call": "ns",
    "opt_for_part_bto.ns_per_call": "ns",
    "gather.est_s": "s",
    "opt_for_part.est_s": "s",
    "sa.sweeps": "count",
    "sa.proposals": "count",
    "sa.evaluated": "count",
    "sa.dedup_skipped": "count",
    "sa.useful_ratio": "ratio",
    "sa.sweep_s": "s",
    "sa.self_s": "s",
    "bssa.nd_trials": "count",
    "nd_round_s": "s",
    "bssa.bit_steps": "count",
    "bssa.beam_candidates": "count",
    "beam_bit.self_s": "s",
    "refine_bit.self_s": "s",
    "dalta.bit_steps": "count",
    "dalta.candidates": "count",
    "dalta.bit.self_s": "s",
    "error_report.s": "s",
    "checkpoint.saves": "count",
    "checkpoint.bytes": "B",
    "checkpoint.save_s": "s",
    "pool.parallel_for_calls": "count",
    "pool.tasks": "count",
    "pool.idle_ns": "ns",
    "pool.idle_frac": "ratio",
    "hw.build_s": "s",
    "hw.verify_s": "s",
    "hw.verify_reads": "count",
    "hw.mismatches": "count",
    "stream.eval_ns_per_read.nd": "ns",
    "stream.eval_ns_per_read.mono": "ns",
    "stream.account_ns_per_read": "ns",
    "stream.reads": "count",
    "stream.batches": "count",
    "ring.wait_spins": "count",
    "engine.vs_stream_ratio": "ratio",
    "reconfig.wait_retire_us.mono": "us",
    "reconfig.call_us.mono": "us",
    "reconfig.first_retire_us.mono": "us",
    "reconfig.observed.mono": "count",
    "reconfig.issued.mono": "count",
    "reconfig.wait_retire_us.nd": "us",
    "reconfig.call_us.nd": "us",
    "reconfig.first_retire_us.nd": "us",
    "reconfig.observed.nd": "count",
    "reconfig.issued.nd": "count",
    "bssa_s": "s",
    "dalta_s": "s",
    "nd_design_s": "s",
    "bssa_med": "MED",
    "dalta_med": "MED",
    "bssa_med_stdev": "MED",
    "sim_energy_fj": "fJ",
    "serve_nd_rps": "1/s",
    "serve_mono_rps": "1/s",
    "engine_mono_rps": "1/s",
    "swap_mono_p50_us": "us",
    "swap_mono_p99_us": "us",
    "swap_nd_p50_us": "us",
    "trace.overhead_frac": "ratio",
    "trace.dropped_spans": "count",
    "trace.wall_s": "s",
    **{f"layer.{layer}.share": "ratio" for layer in LAYERS},
    "layer.unattributed.share": "ratio",
}


# ---- Statistics --------------------------------------------------------

def percentile(values, p):
    """The p-th percentile (0..100), interpolating between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0 <= p <= 100:
        raise ValueError("percentile outside 0..100")
    k = (len(xs) - 1) * p / 100.0
    lo, hi = math.floor(k), math.ceil(k)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def median(values):
    return percentile(values, 50)


def iqr(values):
    """Distance between the first and third quartile, as
    statistics.quantiles(values, n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def iqr_share(values):
    """IQR as a share of the median: the ledger's run-to-run spread."""
    return iqr(values) / statistics.median(values)


def geomean(values):
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---- Spans -------------------------------------------------------------

def span_times(trace):
    """Per span name: count, total seconds and self seconds (duration minus
    the part its direct children on the same thread cover). Returns the
    table over all threads and the table of the main thread alone (the
    thread of the ledger.pass spans). Missing names read as zeros."""
    by_tid = defaultdict(list)
    for event in trace.get("traceEvents", []):
        if event.get("ph") == "X":
            by_tid[event["tid"]].append(event)
    stats = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    main_stats = defaultdict(lambda: {"count": 0, "total_s": 0.0,
                                      "self_s": 0.0})
    main_tid = None
    for tid, events in by_tid.items():
        if any(e["name"] == "ledger.pass" for e in events):
            main_tid = tid
    for tid, events in by_tid.items():
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end_us, event, covered_us]

        def finish(entry, tid=tid):
            _, event, covered = entry
            for table in (stats, main_stats) if tid == main_tid else (stats,):
                row = table[event["name"]]
                row["count"] += 1
                row["total_s"] += event["dur"] * 1e-6
                row["self_s"] += max(0.0, event["dur"] - covered) * 1e-6

        for event in events:
            while stack and event["ts"] >= stack[-1][0]:
                finish(stack.pop())
            if stack:
                parent_end = stack[-1][0]
                stack[-1][2] += min(event["dur"], parent_end - event["ts"])
            stack.append([event["ts"] + event["dur"], event, 0.0])
        while stack:
            finish(stack.pop())
    return stats, main_stats


def attribution(main_stats):
    """Share of the traced pass's wall time per layer (self time on the
    main thread), and the unattributed remainder: the part of the pass no
    span inside it covers."""
    pass_row = main_stats.get("ledger.pass")
    if not pass_row or pass_row["total_s"] <= 0:
        raise ValueError("trace has no ledger.pass span")
    wall = pass_row["total_s"]
    shares = {layer: 0.0 for layer in LAYERS}
    for name, row in main_stats.items():
        layer = SPAN_LAYERS.get(name)
        if layer is not None:
            shares[layer] += row["self_s"] / wall
    unattributed = pass_row["self_s"] / wall
    for name, row in main_stats.items():
        if name != "ledger.pass" and name not in SPAN_LAYERS:
            unattributed += row["self_s"] / wall
    return shares, unattributed


# ---- Metrics -----------------------------------------------------------

def _ops(raw, kind=None, quality_only=False):
    return [op for op in raw.get("ops", [])
            if (kind is None or op["kind"] == kind)
            and (not quality_only or op["quality"])]


def _swap_latency_us(series):
    return [c + f for c, f in zip(series["call_us"], series["first_retire_us"])]


def end_to_end(raw):
    """The BENCHMARK.json end-to-end metrics of one untraced run.

    A search or design run is a batch job: its cost is CPU time (all
    threads), which a shared host's descheduled virtual CPUs do not inflate
    the way they inflate wall time. A swap is a wait: its cost is its wall
    latency. Wall-time and rate figures of every workload are in the traced
    run."""
    metrics = {"setup_s": median(raw["setup_s"]),
               "peak_rss_mb": raw["peak_rss_mb"]}
    if "serve" in raw:
        serve = raw["serve"]
        metrics["op_cost_ms"] = geomean(
            median(_swap_latency_us(serve[k])) for k in ("swap_mono", "swap_nd")
        ) / 1e3
    else:
        ops = _ops(raw)
        kinds = sorted({op["kind"] for op in ops})
        metrics["op_cost_ms"] = geomean(
            median([op["cpu_s"] for op in ops if op["kind"] == k])
            for k in kinds) * 1e3
    return {name: metrics[name] for name in END_TO_END}


def _stdev_geomean(ops):
    """Geomean over functions of the MED stdev across seeds."""
    by_function = defaultdict(list)
    for op in ops:
        by_function[op["function"]].append(op["med"])
    stdevs = [statistics.stdev(v) for v in by_function.values() if len(v) > 1]
    return geomean(stdevs) if stdevs and min(stdevs) > 0 else 0.0


def _median_or_zero(values):
    values = list(values)
    return median(values) if values else 0.0


def per_layer(raw, trace):
    """The BENCHMARK.json per-layer metrics of one traced run."""
    counters = raw.get("counters", {})
    stats, main_stats = span_times(trace)

    def count(name):
        return float(counters.get(name, 0))

    def span_total(name):
        return stats[name]["total_s"]

    def span_self(name):
        return stats[name]["self_s"]

    threads = raw["threads"]
    traced_wall = raw["traced_wall_s"]
    search = raw.get("search_probe", {})
    serve_probe = raw.get("serve_probe", {})
    traced_partitions = sum(op["partitions"] for op in raw.get("traced_ops", []))

    m = {}
    m["func.materialize_s"] = median(raw["materialize_s"])
    m["stream.compile_s"] = _median_or_zero(raw.get("compile_s", []))
    m["bit_cost.calls"] = float(stats["build_bit_costs"]["count"])
    m["bit_cost.s"] = span_total("build_bit_costs")
    for name in ("gathers", "hits", "misses", "slices"):
        m[f"evalcache.{name}"] = count(f"evalcache.{name}")
    m["evalcache.bytes"] = float(raw.get("memo_peak_bytes", 0))
    lookups = m["evalcache.hits"] + m["evalcache.misses"]
    m["evalcache.lookups"] = lookups
    m["evalcache.hit_ratio"] = m["evalcache.hits"] / lookups if lookups else 0.0
    m["gather.ns_per_call"] = search.get("gather_ns_per_call", 0.0)
    m["opt_for_part.ns_per_call"] = search.get("opt_for_part_ns_per_call", 0.0)
    m["opt_for_part_bto.ns_per_call"] = search.get("opt_for_part_bto_ns_per_call", 0.0)
    m["gather.est_s"] = m["gather.ns_per_call"] * m["evalcache.gathers"] * 1e-9
    m["opt_for_part.est_s"] = m["opt_for_part.ns_per_call"] * traced_partitions * 1e-9
    for name in ("sweeps", "proposals", "evaluated", "dedup_skipped"):
        m[f"sa.{name}"] = count(f"sa.{name}")
    m["sa.useful_ratio"] = (m["sa.evaluated"] / m["sa.proposals"]
                            if m["sa.proposals"] else 0.0)
    m["sa.sweep_s"] = span_total("sa.sweep")
    m["sa.self_s"] = span_self("sa.sweep")
    m["bssa.nd_trials"] = count("bssa.nd_trials")
    m["nd_round_s"] = span_total("bssa.nd_round")
    m["bssa.bit_steps"] = count("bssa.bit_steps")
    m["bssa.beam_candidates"] = count("bssa.beam_candidates")
    m["beam_bit.self_s"] = span_self("bssa.beam_bit")
    m["refine_bit.self_s"] = span_self("bssa.refine_bit")
    m["dalta.bit_steps"] = count("dalta.bit_steps")
    m["dalta.candidates"] = count("dalta.candidates")
    m["dalta.bit.self_s"] = span_self("dalta.bit")
    m["error_report.s"] = span_total("error_report")
    m["checkpoint.saves"] = count("checkpoint.saves")
    m["checkpoint.bytes"] = count("checkpoint.bytes")
    m["checkpoint.save_s"] = span_total("checkpoint.save")
    m["pool.parallel_for_calls"] = count("pool.parallel_for_calls")
    m["pool.tasks"] = count("pool.tasks")
    m["pool.idle_ns"] = count("pool.idle_ns")
    workers = threads["pool"] - 1
    m["pool.idle_frac"] = (m["pool.idle_ns"] * 1e-9 / (workers * traced_wall)
                           if workers > 0 and traced_wall > 0 else 0.0)
    m["hw.build_s"] = span_total("ledger.hw_build")
    m["hw.verify_s"] = span_total("ledger.hw_verify")
    traced_ops = raw.get("traced_ops", [])
    m["hw.verify_reads"] = float(sum(op["verify_reads"] for op in traced_ops))
    m["hw.mismatches"] = float(sum(op["mismatches"] for op in traced_ops))
    m["stream.eval_ns_per_read.nd"] = serve_probe.get("eval_ns_per_read_nd", 0.0)
    m["stream.eval_ns_per_read.mono"] = serve_probe.get("eval_ns_per_read_mono", 0.0)
    m["stream.account_ns_per_read"] = serve_probe.get("account_ns_per_read", 0.0)
    m["stream.reads"] = count("stream.reads")
    m["stream.batches"] = count("stream.batches")
    m["ring.wait_spins"] = count("stream.consumer.wait_spins")

    serve = raw.get("serve")
    for target in ("mono", "nd"):
        series = serve[f"swap_{target}"] if serve else None
        for split in ("wait_retire_us", "call_us", "first_retire_us"):
            m[f"reconfig.{split}.{target}"] = (
                _median_or_zero(series[split]) if series else 0.0)
        m[f"reconfig.observed.{target}"] = float(series["observed"]) if series else 0.0
        m[f"reconfig.issued.{target}"] = float(series["issued"]) if series else 0.0

    # Wall-time and quality figures of the untraced pass of this run.
    bssa = _ops(raw, "bssa", quality_only=True)
    dalta = _ops(raw, "dalta", quality_only=True)
    design = _ops(raw, "design", quality_only=True)
    m["bssa_s"] = _median_or_zero(op["wall_s"] for op in bssa)
    m["dalta_s"] = _median_or_zero(op["wall_s"] for op in dalta)
    m["nd_design_s"] = _median_or_zero(op["wall_s"] for op in design)
    searched = bssa + design
    m["bssa_med"] = geomean(op["med"] for op in searched) if searched else 0.0
    m["dalta_med"] = geomean(op["med"] for op in dalta) if dalta else 0.0
    m["bssa_med_stdev"] = _stdev_geomean(searched)
    m["sim_energy_fj"] = geomean(op["energy_fj"] for op in design) if design else 0.0
    if serve:
        m["serve_nd_rps"] = median(serve["nd_rps"])
        m["serve_mono_rps"] = median(serve["mono_rps"])
        m["engine_mono_rps"] = median(serve["engine_rps"])
        mono = _swap_latency_us(serve["swap_mono"])
        m["swap_mono_p50_us"] = median(mono)
        m["swap_mono_p99_us"] = percentile(mono, 99)
        m["swap_nd_p50_us"] = median(_swap_latency_us(serve["swap_nd"]))
    else:
        for name in ("serve_nd_rps", "serve_mono_rps", "engine_mono_rps",
                     "swap_mono_p50_us", "swap_mono_p99_us", "swap_nd_p50_us"):
            m[name] = 0.0
    m["engine.vs_stream_ratio"] = (m["engine_mono_rps"] / m["serve_mono_rps"]
                                   if m["serve_mono_rps"] else 0.0)

    m["trace.overhead_frac"] = traced_wall / raw["untraced_wall_s"] - 1.0
    m["trace.dropped_spans"] = float(trace.get("dropped_spans", 0))
    m["trace.wall_s"] = traced_wall
    shares, unattributed = attribution(main_stats)
    for layer, share in shares.items():
        m[f"layer.{layer}.share"] = share
    m["layer.unattributed.share"] = unattributed
    return {name: float(m[name]) for name in PER_LAYER}
