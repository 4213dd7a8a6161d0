"""``churn_community``: write bursts and sweep-bound reads on a sharded graph.

Closed loop, in-process, on a 50k-user ``planted-partition`` graph served by
``GraphService(snapshot_path=..., shards=2)``, README's configuration for
community graphs (one shard per usable CPU).  Set-up is a restart over a
persisted snapshot: the mmap load, the shard build and the first answer.
Each cycle:

1. a burst of 100 ``WorkloadSpec`` churn ops (``apply_churn_op``);
2. ``refresh()``, which writes a delta checkpoint;
3. the first ``check`` after the burst (read after write);
4. a slice of 48 checks;
5. one ``bulk_access`` over 64 resources and two 128-owner ``audience``
   calls on two expressions.

It is the only workload with writes, the only one that reaches
``sharding`` and ``SnapshotStore``, and its reads are sweep-bound.
"""

from __future__ import annotations

import gc
import random
import shutil
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Tuple

from perfbench import layers
from perfbench.calibrate import Calibrator, normalized
from perfbench.common import (
    DATASET_SEED,
    DEFAULT_MEMO_ENTRIES,
    EXPRESSIONS,
    GRANT_SHARE,
    GrantDenySampler,
    latency_block,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
    split_keys,
)
from perfbench.tracing import OP_ID, Tracer, install_program_wrappers

USERS = 50_000
OWNERS = 300
SHARDS = 2
BURST_OPS = 100
BURSTS = 150
CHECKS_PER_CYCLE = 48
BULK_RESOURCES = 64
AUDIENCE_OWNERS = 128
AUDIENCE_EXPRESSIONS = ("friend+[1,2]", "friend+[1]/colleague+[1]")
WARMUP_CYCLES = 1


def spec():
    """The fixed dataset: graph, rules and churn trace (``--seed`` drives reads)."""
    from repro.workloads import WorkloadSpec

    return WorkloadSpec(
        family="planted-partition", users=USERS, seed=DATASET_SEED, owners=OWNERS,
        rules_per_owner=1, requests=0, expressions=EXPRESSIONS,
        churn_bursts=BURSTS, churn_burst_size=BURST_OPS,
    )


def fingerprint(audiences) -> Dict:
    """Size and hash of each audience: compared with the twin, not stored."""
    return {key: (len(members), hash(frozenset(members)))
            for key, members in audiences.items()}


def make_inputs(seed: int, store_path: Path):
    """Graph, persisted snapshot, and every cycle's ops and queries.

    A throwaway service over the graph computes the grant keys and writes
    the snapshot store the measured service then restarts from.
    """
    from repro.service import GraphService
    from repro.workloads import build_workload, install_policies

    workload = build_workload(spec())
    graph = workload.graph
    users = sorted(graph.users(), key=str)
    service = GraphService(graph, snapshot_path=store_path)
    install_policies(service, workload)
    resource_ids = [rid for rid, _owner, _exprs in workload.resources]
    audiences = {rid: set(a) for rid, a in service.bulk_access(resource_ids).audiences.items()}
    # Key pools and their popularity order belong to the dataset; the
    # seed only drives which keys the traffic draws, and when.
    grants, denies = split_keys(workload.resources, audiences, users,
                                random.Random(DATASET_SEED))
    rng = random.Random(seed * 7919 + 23)
    checks = GrantDenySampler(grants, denies, GRANT_SHARE, rng)
    setup_owners = rng.sample(users, AUDIENCE_OWNERS)
    setup_query = (setup_owners, AUDIENCE_EXPRESSIONS[0])
    setup_expected = fingerprint(service.audience(*setup_query).audiences)
    cycles = []
    for burst in workload.churn:
        cycles.append({
            "burst": burst,
            "checks": [checks.draw() for _ in range(1 + CHECKS_PER_CYCLE)],
            "bulk": rng.sample(resource_ids, BULK_RESOURCES),
            "audiences": [(rng.sample(users, AUDIENCE_OWNERS), expression)
                          for expression in AUDIENCE_EXPRESSIONS],
        })
    info = {
        "dataset_seed": DATASET_SEED,
        "graph": {"family": "planted-partition", "users": graph.number_of_users(),
                  "relationships": graph.number_of_relationships()},
        "resources": len(resource_ids),
        "grant_share": GRANT_SHARE,
        "key_pools": {"grants": len(grants), "denies": len(denies)},
        "burst_ops": BURST_OPS,
        "checks_per_cycle": CHECKS_PER_CYCLE,
        "bulk_resources": BULK_RESOURCES,
        "audience_owners": AUDIENCE_OWNERS,
        "audience_expressions": list(AUDIENCE_EXPRESSIONS),
        "shards": SHARDS,
        "memo_entries": DEFAULT_MEMO_ENTRIES,
    }
    policies = SimpleNamespace(resources=workload.resources)
    return graph, policies, (setup_query, setup_expected), cycles, info


def execute_cycle(service, cycle, tracer=None, calibrator=None) -> Tuple[Dict, Dict]:
    """One cycle; returns its timings (seconds) and its answers.

    With a ``calibrator``, the reference kernel runs after each step, outside
    the step's timing, and its CPU is kept out of the cycle's.
    """
    from repro.workloads.generator import apply_churn_op

    sample = calibrator.sample if calibrator is not None else (lambda: None)
    ref_before = calibrator.cpu_s if calibrator is not None else 0.0
    clock = time.perf_counter
    cpu = time.process_time()
    graph = service.graph
    timing: Dict[str, object] = {"check": [], "audience": [], "routes": []}
    checks: List[bool] = []
    started = clock()
    for op in cycle["burst"]:
        apply_churn_op(graph, op)
    timing["burst"] = clock() - started
    sample()
    started = clock()
    service.refresh()
    timing["refresh"] = clock() - started
    sample()
    for index, ((rid, user), _expected) in enumerate(cycle["checks"]):
        if tracer is not None:
            OP_ID.set(f"check-{index}")
        started = clock()
        granted = service.check(user, rid, explain=False).granted
        elapsed = clock() - started
        if index == 0:
            timing["read_after_write"] = elapsed
        else:
            timing["check"].append(elapsed)
        checks.append(granted)
    sample()
    started = clock()
    bulk = service.bulk_access(cycle["bulk"])
    timing["bulk"] = clock() - started
    sample()
    audiences = []
    for owners, expression in cycle["audiences"]:
        started = clock()
        audiences.append(service.audience(owners, expression))
        timing["audience"].append(clock() - started)
        sample()
    timing["cpu"] = time.process_time() - cpu
    if calibrator is not None:
        timing["cpu"] -= calibrator.cpu_s - ref_before
    timing["busy"] = (timing["burst"] + timing["refresh"] + timing["read_after_write"]
                      + sum(timing["check"]) + timing["bulk"] + sum(timing["audience"]))
    timing["routes"] = [result.plan.route for result in [bulk] + audiences]
    answers = {
        "checks": checks,
        "bulk": fingerprint(bulk.audiences),
        "audiences": [fingerprint(result.audiences) for result in audiences],
    }
    return timing, answers


def drive(service, cycles, start: int, seconds: float, tracer=None,
          calibrate: bool = False) -> Dict[str, object]:
    """Run cycles for ``seconds``; with ``calibrate``, sample the reference
    kernel after each step of every cycle (see :func:`execute_cycle`)."""
    timings, answers = [], []
    calibrator = Calibrator() if calibrate else None
    index = start
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and index < len(cycles):
        timing, answer = execute_cycle(service, cycles[index], tracer, calibrator)
        timings.append(timing)
        answers.append(answer)
        index += 1
    out = {"start": start, "end": index, "timings": timings, "answers": answers,
           "exhausted": index >= len(cycles)}
    if calibrator is not None:
        out.update(calibrator.state())
    return out


def verify(policies, cycles, runs) -> Dict[str, int]:
    """Replay every executed cycle on an unsharded twin with no snapshot store."""
    from repro.service import GraphService
    from repro.workloads import build_graph, install_policies

    twin = GraphService(build_graph(spec()))
    install_policies(twin, policies)
    checked = wrong = 0
    for run in runs:
        for offset, measured in enumerate(run["answers"]):
            _timing, truth = execute_cycle(twin, cycles[run["start"] + offset])
            for got, expected in zip(measured["checks"], truth["checks"]):
                checked += 1
                wrong += got != expected
            checked += 1 + len(truth["audiences"])
            wrong += measured["bulk"] != truth["bulk"]
            wrong += sum(a != b for a, b in zip(measured["audiences"], truth["audiences"]))
    return {"checked": checked, "wrong": wrong}


def run(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    from repro.service import GraphService
    from repro.workloads import install_policies

    tmp = Path.cwd() / ".perfbench_tmp" / f"churn-{seed}-{time.monotonic_ns()}"
    tmp.mkdir(parents=True)
    try:
        return _run(seed, seconds, trace, tmp, GraphService, install_policies)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(seed, seconds, trace, tmp, GraphService, install_policies):
    store_path = tmp / "graph"
    graph, policies, (setup_query, setup_expected), cycles, info = make_inputs(seed, store_path)
    gc.collect()
    reset_peak_rss()

    # The traced run times only the two set-up layers: wrapping every
    # mutation would put a span on each edge the shard build mirrors.
    setup_tracer = Tracer()
    if trace:
        from repro.graph.snapshot import SnapshotStore
        from repro.sharding.shard import ShardedGraph

        setup_tracer.wrap(SnapshotStore, "load", "SnapshotStore.load", "graph")
        setup_tracer.wrap(ShardedGraph, "__init__", "ShardedGraph.build", "sharding")
    started = time.perf_counter()
    service = GraphService(graph, snapshot_path=store_path, shards=SHARDS)
    install_policies(service, policies)
    first = service.audience(*setup_query)
    setup_s = time.perf_counter() - started
    setup_tracer.uninstall()
    setup_ok = fingerprint(first.audiences) == setup_expected
    info["warm_start"] = service.warm_start
    info["setup_route"] = first.plan.route

    warm = {"start": 0, "end": WARMUP_CYCLES, "timings": [], "answers": []}
    for cycle in cycles[:WARMUP_CYCLES]:
        timing, answer = execute_cycle(service, cycle)
        warm["timings"].append(timing)
        warm["answers"].append(answer)
    runs = [warm]
    result: Dict[str, object] = {"loop": "closed, 1 in-process caller", "inputs": info}
    if not trace:
        measured = drive(service, cycles, warm["end"], seconds, calibrate=True)
        runs.append(measured)
        end_to_end = summarize(measured, setup_s, peak_rss_mb())
    else:
        untraced = drive(service, cycles, warm["end"], seconds / 2, calibrate=True)
        end_to_end = summarize(untraced, setup_s, peak_rss_mb())
        tracer = Tracer()
        install_program_wrappers(tracer)
        tracer.begin("measured")
        tracer.compiled_epoch[id(graph)] = graph.epoch
        before = service.statistics()
        try:
            measured = drive(service, cycles, untraced["end"], seconds / 2, tracer)
        finally:
            tracer.uninstall()
        after = service.statistics()
        runs += [untraced, measured]
        per_layer = layers.derive_from_spans(tracer.measured(), setup_tracer.spans,
                                             tracer.calls)
        per_layer.update(layers.derive_from_counters(layers.counter_deltas(before, after), after))
        base = percentile([t for c in untraced["timings"] for t in c["check"]], 0.5)
        traced_p50 = percentile([t for c in measured["timings"] for t in c["check"]], 0.5)
        per_layer["trace.overhead_share"] = {"value": traced_p50 / base - 1.0}
        tracer.spans[:0] = setup_tracer.spans
        result["per_layer"] = layers.finish(layers.CHURN, per_layer,
                                            layers.self_time_by_layer(tracer.measured()))
        result["tracer"] = tracer
    if measured["exhausted"]:
        result["note"] = "ran out of generated cycles before the time was up"
    info["cycles_measured"] = measured["end"] - measured["start"]
    info["memo_working_set_keys"] = len({key for cycle in cycles[measured["start"]:measured["end"]]
                                         for key, _expected in cycle["checks"]})
    routes = [r for t in measured["timings"] for r in t["routes"]]
    info["sharded_route_share"] = routes.count("sharded") / len(routes) if routes else 0.0

    del service, graph, first
    gc.collect()
    checked = verify(policies, cycles, runs)
    queries = sum(len(a["checks"]) + 1 + len(a["audiences"]) for r in runs for a in r["answers"])
    attempted = 1 + queries + sum(2 * (r["end"] - r["start"]) for r in runs)
    failed = checked["wrong"] + (not setup_ok)
    end_to_end["failed_share"] = {"value": failed / attempted, "unit": "ratio"}
    result.update(end_to_end=end_to_end, verification=checked, attempted=attempted,
                  failed=failed, correct=failed == 0)
    return result


def summarize(run, setup_s, rss) -> Dict[str, Dict[str, object]]:
    timings = run["timings"]
    checks = latency_block([t for c in timings for t in c["check"]])
    audiences = latency_block([t for c in timings for t in c["audience"]])
    refresh = [c["refresh"] for c in timings]
    raw = [c["read_after_write"] for c in timings]
    bulk = [c["bulk"] for c in timings]
    calls = sum(len(c["check"]) + 1 + 1 + 1 + len(c["audience"]) for c in timings)
    busy = sum(c["busy"] for c in timings)
    cpu_ms_per_op = sum(c["cpu"] for c in timings) / calls * 1e3
    return {
        "setup_s": {"value": setup_s, "unit": "s", "samples": 1},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "throughput_ops_s": {"value": calls / busy, "unit": "1/s", "samples": calls,
                             "note": "service calls per second of busy time; bursts count as busy time"},
        "cpu_ms_per_op": {"value": cpu_ms_per_op, "unit": "ms", "samples": calls},
        "norm_cpu_per_op": {**normalized(cpu_ms_per_op, run["ref_cpu_s"], run["ref_passes"]),
                            "samples": calls},
        "check_p50_ms": {"value": checks["p50_ms"], "unit": "ms", "samples": checks["samples"]},
        "check_tail_ms": {"value": checks["tail_ms"], "unit": "ms",
                          "samples": checks["samples"], "percentile": checks["tail_percentile"]},
        "audience_p50_ms": {"value": audiences["p50_ms"], "unit": "ms",
                            "samples": audiences["samples"]},
        "audience_tail_ms": {"value": audiences["tail_ms"], "unit": "ms",
                             "samples": audiences["samples"],
                             "percentile": audiences["tail_percentile"]},
        "bulk_p50_ms": {"value": percentile(bulk, 0.5) * 1e3, "unit": "ms", "samples": len(bulk)},
        "refresh_p50_ms": {"value": percentile(refresh, 0.5) * 1e3, "unit": "ms",
                           "samples": len(refresh)},
        "read_after_write_p50_ms": {"value": percentile(raw, 0.5) * 1e3, "unit": "ms",
                                    "samples": len(raw)},
    }
