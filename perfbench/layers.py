"""Per-layer metrics: definitions, what each should move, and how to derive them.

Each entry of :data:`PER_LAYER` names a metric of one layer of
``src/repro``, its unit, which direction is better, the end-to-end metric
(and workload) it should move, and the workloads where its layer runs.
Where a layer does not run, the traced result reports 0 and lists the
metric under ``not_applicable``.

Span metrics come from the traced phase's spans (:mod:`perfbench.tracing`);
counter metrics are deltas of ``GraphService.statistics()`` (through
``TenantRegistry.serving_statistics()`` in the server) between the start
and the end of the traced phase, so warm-up is excluded.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from perfbench.common import latency_block, percentile, ratio
from perfbench.tracing import Span, self_times

SERVED, POINT, CHURN = "served_mix", "point_checks", "churn_community"
ALL = (SERVED, POINT, CHURN)

#: (name, unit, better, moves, workloads where the layer runs)
PER_LAYER = (
    ("serving.frame_codec_us", "us", "lower", "check_p50_ms on served_mix", (SERVED,)),
    ("serving.queue_wait_ms_p50", "ms", "lower", "check_p50_ms, audience_p50_ms on served_mix", (SERVED,)),
    ("serving.batch_execute_ms_p50", "ms", "lower", "check_tail_ms on served_mix", (SERVED,)),
    ("serving.batch_execute_ms_tail", "ms", "lower", "check_tail_ms on served_mix", (SERVED,)),
    ("serving.batch_size_mean", "count", "higher", "throughput_ops_s on served_mix", (SERVED,)),
    ("serving.coalesced_share", "ratio", "higher", "throughput_ops_s on served_mix", (SERVED,)),
    ("serving.admission_rejected", "count", "lower", "failed_share on served_mix", (SERVED,)),
    ("serving.fallbacks", "count", "lower", "*_tail_ms on served_mix", (SERVED,)),
    ("service.overhead_us", "us", "lower", "check_p50_ms, throughput_ops_s on point_checks; negligible on churn_community", ALL),
    ("service.plan_us", "us", "lower", "check_p50_ms, throughput_ops_s on point_checks", ALL),
    ("service.plan_cache_hit_ratio", "ratio", "higher", "check_p50_ms, throughput_ops_s on point_checks", ALL),
    ("service.to_text_calls_per_query", "count", "lower", "check_p50_ms, throughput_ops_s on point_checks", ALL),
    ("service.engine_maintain_ms", "ms", "lower", "read_after_write_p50_ms on churn_community", ALL),
    ("policy.check_us", "us", "lower", "check_p50_ms on point_checks", ALL),
    ("policy.bulk_ms", "ms", "lower", "check_tail_ms on served_mix; audience_p50_ms on churn_community", (SERVED, CHURN)),
    ("reachability.evaluate_us", "us", "lower", "reach_p50_ms, check_p50_ms on point_checks", ALL),
    ("reachability.states_visited", "count", "lower", "reach_p50_ms, check_p50_ms on point_checks", ALL),
    ("reachability.edges_expanded", "count", "lower", "reach_p50_ms, check_p50_ms on point_checks", ALL),
    ("reachability.memo_hit_ratio", "ratio", "higher", "throughput_ops_s on point_checks", ALL),
    ("reachability.sweep_ms", "ms", "lower", "audience_p50_ms on churn_community; check_tail_ms on served_mix", (SERVED, CHURN)),
    ("reachability.reverse_share", "ratio", "lower", "audience_p50_ms on churn_community", (SERVED, CHURN)),
    ("graph.compile_ms", "ms", "lower", "read_after_write_p50_ms on churn_community", (CHURN,)),
    ("graph.mutation_us", "us", "lower", "nothing end to end; context for the churn cost", (CHURN,)),
    ("graph.snapshot_checkpoint_ms", "ms", "lower", "refresh_p50_ms on churn_community", (CHURN,)),
    ("graph.snapshot_load_ms", "ms", "lower", "setup_s on churn_community", (CHURN,)),
    ("graph.snapshot_delta_segments", "count", "lower", "reported beside refresh_p50_ms on churn_community", (CHURN,)),
    ("graph.snapshot_disk_mb", "MB", "lower", "reported beside refresh_p50_ms on churn_community", (CHURN,)),
    ("sharding.build_s", "s", "lower", "setup_s on churn_community", (CHURN,)),
    ("sharding.routed_share", "ratio", "higher", "audience_p50_ms on churn_community", (CHURN,)),
    ("sharding.sweep_ms", "ms", "lower", "audience_p50_ms on churn_community", (CHURN,)),
    ("sharding.rounds", "count", "lower", "audience_p50_ms on churn_community", (CHURN,)),
    ("sharding.messages", "count", "lower", "audience_p50_ms on churn_community", (CHURN,)),
    ("sharding.escalated_share", "ratio", "lower", "audience_p50_ms on churn_community", (CHURN,)),
    ("sharding.summary_prunes", "count", "higher", "audience_p50_ms on churn_community", (CHURN,)),
    ("reliability.queries_degraded", "count", "lower", "failed_share on any workload", ALL),
    ("reliability.breaker_trips", "count", "lower", "failed_share on any workload", ALL),
    ("trace.overhead_share", "ratio", "lower", "none: traced check_p50_ms / untraced check_p50_ms - 1", ALL),
)


_ENGINE_LAYERS = frozenset({"policy", "reachability", "sharding"})
_QUERY_CALLS = frozenset(
    f"GraphService.{name}"
    for name in ("check", "is_allowed", "reach", "is_reachable", "audience",
                 "bulk_access", "reach_many")
)
_ROUTED = frozenset(
    f"GraphService.{name}" for name in ("audience", "bulk_access", "reach_many")
)
_BACKEND_MEMOS = ("bfs", "dfs", "transitive-closure", "cluster-index", "sharded")


def _mean(values: Sequence[float], scale: float = 1.0) -> Dict[str, float]:
    return {"value": (sum(values) / len(values)) * scale if values else 0.0,
            "base": len(values)}


def _duration(span: Span) -> float:
    return span[5] - span[4]


def derive_from_spans(
    spans: Sequence[Span],
    setup_spans: Sequence[Span] = (),
    calls: Optional[Dict[str, int]] = None,
) -> Dict[str, Dict[str, float]]:
    """Span-based per-layer metrics of one traced phase."""
    calls = calls or {}
    by_id = {span[0]: span for span in spans}
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append(span)
    own = self_times(spans)

    def named(*names: str) -> List[Span]:
        wanted = set(names)
        return [span for span in spans if span[2] in wanted]

    def is_root_of_layer(span: Span) -> bool:
        parent = by_id.get(span[1]) if span[1] is not None else None
        return parent is None or parent[3] != span[3]

    def engine_time(span: Span) -> float:
        total = 0.0
        for child in children.get(span[0], ()):
            total += _duration(child) if child[3] in _ENGINE_LAYERS else engine_time(child)
        return total

    out: Dict[str, Dict[str, float]] = {}

    # serving
    decodes = named("decode_frame")
    codec = sum(map(_duration, decodes)) + sum(map(_duration, named("encode_frame")))
    out["serving.frame_codec_us"] = {
        "value": codec / len(decodes) * 1e6 if decodes else 0.0, "base": len(decodes)}
    batches = {span[6]: _duration(span) for span in named("RequestCoalescer.batch")}
    waits = [
        _duration(span) - batches[span[7]["batch"]]
        for span in named("RequestCoalescer.submit")
        if span[7] and span[7].get("batch") in batches
    ]
    out["serving.queue_wait_ms_p50"] = {
        "value": percentile(waits, 0.5) * 1e3 if waits else 0.0, "base": len(waits)}
    executes = latency_block(list(batches.values()))
    out["serving.batch_execute_ms_p50"] = {
        "value": executes["p50_ms"] or 0.0, "base": executes["samples"]}
    out["serving.batch_execute_ms_tail"] = {
        "value": executes["tail_ms"] or 0.0, "base": executes["samples"],
        "percentile": executes["tail_percentile"]}

    # service
    queries = [span for span in spans
               if span[2] in _QUERY_CALLS and is_root_of_layer(span)]
    out["service.overhead_us"] = _mean(
        [_duration(span) - engine_time(span) for span in queries], 1e6)
    out["service.plan_us"] = _mean(
        [own[span[0]] for span in spans if span[2].startswith("QueryPlanner.plan_")], 1e6)
    to_text = calls.get("PathExpression.to_text", 0)
    out["service.to_text_calls_per_query"] = {
        "value": to_text / len(queries) if queries else 0.0, "base": len(queries)}
    out["service.engine_maintain_ms"] = _mean(
        [_duration(span) for span in named("GraphService.engine")
         if span[7] and span[7].get("rebuilt")], 1e3)

    # policy
    out["policy.check_us"] = _mean(
        [own[span[0]] for span in named("AccessControlEngine.check_access")], 1e6)
    out["policy.bulk_ms"] = _mean(
        [_duration(span) for span in named("AccessControlEngine.audiences_with_plans",
                                           "AccessControlEngine.authorized_audiences")
         if is_root_of_layer(span)], 1e3)

    # reachability
    evaluations = named("ReachabilityEngine.evaluate")
    out["reachability.evaluate_us"] = _mean([_duration(span) for span in evaluations], 1e6)
    counted = [span[7] for span in evaluations if span[7]]
    out["reachability.states_visited"] = _mean([flags["states"] for flags in counted])
    out["reachability.edges_expanded"] = _mean([flags["edges"] for flags in counted])
    sweeps = named("ReachabilityEngine.sweep_targets_many")
    out["reachability.sweep_ms"] = _mean([own[span[0]] for span in sweeps], 1e3)
    directions = [span[7]["direction"] for span in sweeps if span[7]]
    out["reachability.reverse_share"] = ratio(
        sum(1 for direction in directions if direction == "reverse"), len(directions))

    # graph
    out["graph.compile_ms"] = _mean(
        [_duration(span) for span in named("compile_graph")
         if span[7] and span[7].get("refreshed")], 1e3)
    out["graph.mutation_us"] = _mean(
        [_duration(span) for span in named("SocialGraph.mutation") if span[1] is None], 1e6)
    out["graph.snapshot_checkpoint_ms"] = _mean(
        [_duration(span) for span in named("SnapshotStore.checkpoint")], 1e3)
    out["graph.snapshot_load_ms"] = _mean(
        [_duration(span) for span in setup_spans if span[2] == "SnapshotStore.load"], 1e3)

    # sharding
    out["sharding.build_s"] = _mean(
        [_duration(span) for span in setup_spans if span[2] == "ShardedGraph.build"])
    routed = [span[7].get("route") for span in spans if span[2] in _ROUTED and span[7]]
    out["sharding.routed_share"] = ratio(
        sum(1 for route in routed if route == "sharded"), len(routed))
    out["sharding.sweep_ms"] = _mean(
        [own[span[0]] for span in named("ShardRouter.sweep_targets_many")], 1e3)
    return out


def self_time_by_layer(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Total self time and span count of each layer in one traced phase.

    Coroutine spans of the serving layer include time spent waiting, so
    its total is wall time in flight, not busy time.
    """
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span[3], {"self_ms": 0.0, "spans": 0})
        entry["self_ms"] += own[span[0]] * 1e3
        entry["spans"] += 1
    return totals


def counter_deltas(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0.0) for key in after}


def derive_from_counters(
    deltas: Dict[str, float], gauges: Dict[str, float]
) -> Dict[str, Dict[str, float]]:
    """Counter-based per-layer metrics from statistics() deltas and end gauges."""
    d = lambda key: deltas.get(key, 0.0)  # noqa: E731
    hits = sum(d(f"{name}_hits") for name in _BACKEND_MEMOS)
    misses = sum(d(f"{name}_misses") for name in _BACKEND_MEMOS)
    plan_hits = d("planner_plan_cache_hits")
    return {
        "serving.batch_size_mean": ratio(d("coalescer_requests_submitted"),
                                         d("coalescer_batches_executed")),
        "serving.coalesced_share": ratio(d("coalescer_requests_coalesced"),
                                         d("coalescer_requests_submitted")),
        "serving.admission_rejected": {"value": d("admission_rejected")},
        "serving.fallbacks": {"value": d("serving_fallbacks")},
        "service.plan_cache_hit_ratio": ratio(plan_hits,
                                              plan_hits + d("planner_plan_cache_misses")),
        "reachability.memo_hit_ratio": ratio(hits, hits + misses),
        "graph.snapshot_delta_segments": {"value": gauges.get("snapshot_delta_segments", 0.0)},
        "graph.snapshot_disk_mb": {"value": gauges.get("snapshot_disk_bytes", 0.0) / 2**20},
        "sharding.rounds": ratio(d("shard_rounds"), d("shard_queries")),
        "sharding.messages": ratio(d("shard_messages"), d("shard_queries")),
        "sharding.escalated_share": ratio(d("shard_escalated_queries"),
                                          d("shard_point_queries")),
        "sharding.summary_prunes": {"value": d("shard_summary_prunes")},
        "reliability.queries_degraded": {"value": d("queries_degraded")},
        "reliability.breaker_trips": {
            "value": sum(value for key, value in deltas.items()
                         if key.startswith("breaker_") and key.endswith("_trips"))},
    }


def finish(
    workload: str,
    measured: Dict[str, Dict[str, float]],
    by_layer: Dict[str, Dict[str, float]],
) -> Dict[str, object]:
    """Every per-layer metric for one workload, 0 where its layer does not run."""
    metrics: Dict[str, Dict[str, float]] = {}
    not_applicable: List[str] = []
    for name, unit, _better, moves, where in PER_LAYER:
        entry = dict(measured.get(name, {"value": 0.0}))
        if workload not in where:
            not_applicable.append(name)
            entry = {"value": 0.0}
        entry["unit"] = unit
        entry["moves"] = moves
        metrics[name] = entry
    return {"metrics": metrics, "not_applicable": not_applicable,
            "self_time_by_layer": by_layer}


def layer_map() -> List[Dict[str, object]]:
    """The metric -> end-to-end metric and workload map, as printed."""
    return [
        {"metric": name, "unit": unit, "better": better, "moves": moves,
         "workloads": list(where)}
        for name, unit, better, moves, where in PER_LAYER
    ]
