"""Workload table, metric definitions and result checks of the serving
benchmark. Pure functions over the JSON records perfbench_serve prints,
so the arithmetic and the checks are testable without a build.
"""

import statistics

# Each run serves at least `worlds` independent worlds (sub-seeds of the
# run seed): the query trace's popularity draw moves one world's found
# rate and cost by up to 2x, and figures over several worlds keep one
# lucky or unlucky draw from setting a run's figures. Every world has the
# same size and churn (kNodes, kScale, kOffline in serve_bench.cpp): 5k
# nodes over a scale-0.015 crawl with an 8-regular overlay, 30% of peers
# offline in the churn's steady state; caches start empty. The stream is
# open-loop in simulated time: arrivals carry trace timestamps rescaled
# to `qps`; on the host it is served as fast as possible (saturation
# throughput).
WORKLOADS = {
    "serve-flood": {
        "engine": "flood", "top_k": 0, "browse": 0.0, "qps": 200.0,
        "queries": 60000, "compact_delta": 20000, "worlds": 8,
    },
    "serve-hybrid-ranked": {
        "engine": "hybrid", "top_k": 10, "browse": 0.3, "qps": 5.0,
        "queries": 2000, "compact_delta": 200, "worlds": 10,
    },
    "serve-adaptive": {
        "engine": "adaptive", "top_k": 0, "browse": 0.0, "qps": 200.0,
        "queries": 40000, "compact_delta": 20000, "worlds": 8,
    },
}

# name -> (unit, better). Host-time metrics come from untraced runs only.
END_TO_END = {
    "qps_1t": ("1/s", "higher"),
    "qps_2t": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "msgs_per_query": ("msg/query", "lower"),
    "maint_msgs_per_query": ("msg/query", "lower"),
    "found_rate": ("ratio", "higher"),
    "sim_p50_ms": ("sim_ms", "lower"),
    "sim_p99_ms": ("sim_ms", "lower"),
}

# name -> (unit, better), emitted by the traced run.
PER_LAYER = {
    "trace.crawl_s": ("s", "lower"),
    "trace.query_trace_s": ("s", "lower"),
    "sim.store.build_s": ("s", "lower"),
    "overlay.topology_s": ("s", "lower"),
    "sim.serving.ctor_s": ("s", "lower"),
    "sim.dht.publish_s": ("s", "lower"),
    "sim.dht.publish_msgs": ("msg", "lower"),
    "sim.dht.search_term_us": ("us", "lower"),
    "sim.dht.postings_per_term": ("count", "lower"),
    "sim.engine.search_us_p50": ("us", "lower"),
    "sim.engine.search_us_p99": ("us", "lower"),
    "sim.engine.search_samples": ("count", "higher"),
    "sim.engine.search_s": ("s", "lower"),
    "sim.engine.peers_probed_per_query": ("count", "lower"),
    "sim.engine.dup_msg_ratio": ("ratio", "lower"),
    "sim.engine.dht_fallback_share": ("ratio", "lower"),
    "sim.engine.guided_share": ("ratio", "higher"),
    "sim.store.match_ns": ("ns", "lower"),
    "sim.store.may_match_ns": ("ns", "lower"),
    "sim.store.match_scored_ns": ("ns", "lower"),
    "sim.store.compact_s": ("s", "lower"),
    "sim.cache.peek_routed_ns": ("ns", "lower"),
    "sim.cache.prime_ns": ("ns", "lower"),
    "sim.cache.hit_ratio": ("ratio", "higher"),
    "overlay.apply_delta_ms": ("ms", "lower"),
    "sim.adaptive.refresh_ms": ("ms", "lower"),
    "sim.serving.refreezes": ("count", "lower"),
    "sim.serving.compactions": ("count", "lower"),
    "sim.serving.content_adds": ("count", "lower"),
    "sim.serving.cache_invalidations": ("count", "lower"),
    "sim.serving.readvertisements": ("count", "lower"),
    "sim.serving.windows": ("count", "lower"),
    "sim.serving.speedup_2t": ("ratio", "higher"),
    "sim.serving.unattributed_s": ("s", "lower"),
}

# Fields of a serve's aggregate that must not depend on the thread count
# or on which repetition produced them.
DETERMINISTIC_FIELDS = (
    "stream_queries", "queries", "found", "cache_hits", "timed", "messages",
    "p50_s", "p99_s", "p999_s", "refreezes", "compactions", "content_adds",
    "cache_invalidations", "readvertisements", "windows", "publish_messages",
)


def workload_flags(name):
    """perfbench_serve flags selecting workload `name`."""
    w = WORKLOADS[name]
    return [
        "--engine", w["engine"], "--top-k", str(w["top_k"]),
        "--browse", repr(w["browse"]), "--qps", repr(w["qps"]),
        "--queries", str(w["queries"]),
        "--compact-delta", str(w["compact_delta"]),
        "--worlds", str(w["worlds"]),
    ]


def aggregate_mismatches(aggregates):
    """Reasons the serves of one world disagree or left queries unserved.

    Every serve of a world uses the same inputs, so its deterministic
    aggregate must be identical at 1 and 2 threads, and every stream
    query must be retired.
    """
    problems = []
    if not aggregates:
        return ["no serve aggregate"]
    first = aggregates[0]
    for i, agg in enumerate(aggregates):
        if agg["queries"] != agg["stream_queries"]:
            problems.append(f"serve {i}: retired {agg['queries']} of "
                            f"{agg['stream_queries']} stream queries")
        for field in DETERMINISTIC_FIELDS:
            if agg[field] != first[field]:
                problems.append(f"serve {i}: {field} {agg[field]!r} != "
                                f"{first[field]!r}")
    return problems


def world_mismatches(serves, worlds):
    """aggregate_mismatches() of every world a run served, plus a check
    that worlds 0..worlds-1 were each served at 1 and 2 threads."""
    by_world = {}
    for s in serves:
        by_world.setdefault(s["world"], []).append(s)
    problems = []
    for i in range(worlds):
        threads = sorted(s["threads"] for s in by_world.get(i, []))
        if threads != [1, 2]:
            problems.append(f"world {i}: served at threads {threads}")
    for i, group in sorted(by_world.items()):
        problems += [f"world {i} {p}" for p in
                     aggregate_mismatches([s["aggregate"] for s in group])]
    return problems


def serve_metrics(serves, pooled, worlds):
    """End-to-end metrics of an untraced run.

    Host times are medians over every serve of the run. Simulated metrics
    pool the 1-thread serves of worlds 0..worlds-1 (sums of counts, and
    the quantiles of their merged latency histogram, from the `pooled`
    record), so they are the same on every run of a seed.
    """
    def qps(threads):
        return statistics.median(s["aggregate"]["queries"] / s["run_s"]
                                 for s in serves if s["threads"] == threads)
    sim = [s["aggregate"] for s in serves
           if s["threads"] == 1 and s["world"] < worlds]
    def per_query(field):
        return sum(a[field] for a in sim) / sum(a["queries"] for a in sim)
    return {
        "qps_1t": qps(1),
        "qps_2t": qps(2),
        "setup_s": statistics.median(s["setup"]["total_s"] for s in serves),
        "peak_rss_mib": pooled["peak_rss_mib"],
        "msgs_per_query": per_query("messages"),
        "maint_msgs_per_query": per_query("publish_messages"),
        "found_rate": per_query("found"),
        "sim_p50_ms": pooled["p50_s"] * 1e3,
        "sim_p99_ms": pooled["p99_s"] * 1e3,
    }


def unattributed_s(layer, agg, engine):
    """1-thread run() wall time the timed layer calls do not explain.

    Each layer's measured unit cost is scaled by how often the serve
    performed it; what remains is window replay, holder-index and engine
    rebuilds, which timers outside the program cannot see.
    """
    refresh_windows = agg["windows"] if engine == "adaptive" else 0
    parts = [
        (layer["sim.dht.publish_s"], 1 + agg["compactions"]),
        (layer["sim.store.compact_s"], agg["compactions"]),
        (layer["overlay.apply_delta_ms"] / 1e3, agg["refreezes"]),
        (layer["sim.adaptive.refresh_ms"] / 1e3, refresh_windows),
        (layer["sim.engine.search_s"] / layer["sim.engine.search_samples"],
         agg["queries"] - agg["cache_hits"]),
        (layer["sim.cache.peek_routed_ns"] / 1e9, agg["queries"]),
        (layer["sim.cache.prime_ns"] / 1e9, agg["found"]),
    ]
    return layer["run1_s"] - sum(unit * count for unit, count in parts)


def trace_metrics(layer, engine):
    """Per-layer metrics of a traced run from its layer record."""
    agg = layer["aggregate1"]
    values = {name: layer[name] for name in PER_LAYER if name in layer}
    values.update({
        "sim.cache.hit_ratio": agg["cache_hits"] / agg["queries"],
        "sim.serving.refreezes": agg["refreezes"],
        "sim.serving.compactions": agg["compactions"],
        "sim.serving.content_adds": agg["content_adds"],
        "sim.serving.cache_invalidations": agg["cache_invalidations"],
        "sim.serving.readvertisements": agg["readvertisements"],
        "sim.serving.windows": agg["windows"],
        "sim.serving.speedup_2t": layer["run1_s"] / layer["run2_s"],
        "sim.serving.unattributed_s": unattributed_s(layer, agg, engine),
    })
    return values


def result(values, table, attempted, failed):
    """The final JSON object: every metric of `table`, with its unit."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in table.items()},
    }
