"""``point_checks``: closed loop, one in-process caller, Zipf-skewed point keys.

About 80% ``check(explain=False)`` and 20% ``is_reachable`` on the 20k-user
graph of ``served_mix``, through a ``GraphService`` with default settings.
Keys are Zipf-skewed over a working set several times the default
4096-entry memo, so memo hits and misses both occur.  The workload isolates
the per-query path (parse, plan, memo, point kernel) and bypasses serving,
sweeps, writes and sharding: it is the "no change" workload for work on
those layers.
"""

from __future__ import annotations

import gc
import random
import time
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

USERS = 20_000
OWNERS = 400
CHECK_SHARE = 0.8
ZIPF_EXPONENT = 0.8
OPS = 200_000
WARMUP_S = 1.0
SETUP_REPEATS = 3


def spec():
    """The 20k-user dataset shared with ``served_mix``: graph and rules.

    The dataset is fixed (``DATASET_SEED``); ``--seed`` drives the traffic.
    """
    from repro.workloads import WorkloadSpec

    return WorkloadSpec(
        family="barabasi-albert", users=USERS, seed=DATASET_SEED, owners=OWNERS,
        rules_per_owner=1, requests=0, expressions=EXPRESSIONS,
    )


def audiences_of(workload) -> Dict[str, set]:
    """Every resource's authorized audience, from a throwaway service."""
    from repro.service import GraphService
    from repro.workloads import install_policies

    service = GraphService(workload.graph)
    install_policies(service, workload)
    result = service.bulk_access([rid for rid, _owner, _exprs in workload.resources])
    return {rid: set(audience) for rid, audience in result.audiences.items()}


def make_inputs(seed: int):
    from repro.workloads import build_workload

    workload = build_workload(spec())
    users = sorted(workload.graph.users(), key=str)
    audiences = audiences_of(workload)
    # Key pools and their popularity order belong to the dataset; the
    # seed only drives which keys the traffic draws, and when.
    grants, denies = split_keys(workload.resources, audiences, users,
                                random.Random(DATASET_SEED))
    rng = random.Random(seed * 7919 + 11)
    g_cut, d_cut = len(grants) * 3 // 4, len(denies) * 3 // 4
    checks = GrantDenySampler(grants[:g_cut], denies[:d_cut], GRANT_SHARE, rng,
                              exponent=ZIPF_EXPONENT)
    reaches = GrantDenySampler(grants[g_cut:], denies[d_cut:], GRANT_SHARE, rng,
                               exponent=ZIPF_EXPONENT)
    owner_of = {rid: owner for rid, owner, _exprs in workload.resources}
    expression_of = {rid: exprs[0] for rid, _owner, exprs in workload.resources}
    ops: List[Tuple] = []
    for _ in range(OPS):
        if rng.random() < CHECK_SHARE:
            (rid, user), expected = checks.draw()
            ops.append(("check", user, rid, expected))
        else:
            (rid, user), expected = reaches.draw()
            ops.append(("reach", owner_of[rid], user, expression_of[rid], expected))
    info = {
        "dataset_seed": DATASET_SEED,
        "graph": {"family": "barabasi-albert", "users": workload.graph.number_of_users(),
                  "relationships": workload.graph.number_of_relationships()},
        "resources": len(workload.resources),
        "grant_share": GRANT_SHARE,
        "zipf_exponent": ZIPF_EXPONENT,
        "key_pools": {"check_grants": g_cut, "check_denies": d_cut,
                      "reach_grants": len(grants) - g_cut, "reach_denies": len(denies) - d_cut},
        "memo_entries": DEFAULT_MEMO_ENTRIES,
    }
    return SimpleNamespace(resources=workload.resources), ops, info


def execute(service, op) -> bool:
    if op[0] == "check":
        return service.check(op[1], op[2], explain=False).granted
    return service.is_reachable(op[1], op[2], op[3])


def drive(service, ops, start: int, seconds: float, tracer=None,
          calibrate: bool = False) -> Dict[str, object]:
    """Run ops back to back for ``seconds``; per-kind latencies and answers.

    With ``calibrate``, the reference kernel runs between operations every
    0.05 s; its CPU and wall time are reported and kept out of ``cpu`` and
    ``wall``.
    """
    latencies: Dict[str, List[float]] = {"check": [], "reach": []}
    answers: List[bool] = []
    calibrator = Calibrator() if calibrate else None
    index = start
    clock = time.perf_counter
    cpu = time.process_time()
    began = clock()
    deadline = began + seconds
    while clock() < deadline:
        op = ops[index % len(ops)]
        if tracer is not None:
            OP_ID.set(index)
        started = clock()
        answer = execute(service, op)
        latencies[op[0]].append(clock() - started)
        answers.append(answer)
        index += 1
        if calibrator is not None:
            calibrator.maybe()
    out = {"latencies": latencies, "answers": answers, "start": start, "end": index,
           "wall": clock() - began, "cpu": time.process_time() - cpu}
    if calibrator is not None:
        out.update(calibrator.state())
        out["cpu"] -= calibrator.cpu_s
        out["wall"] -= calibrator.wall_s
    return out


def setup_once(spec_obj, resources, first_op) -> Tuple[object, float, bool]:
    """Construct the service on a fresh graph and time it to a correct answer."""
    from repro.service import GraphService
    from repro.workloads import build_graph, install_policies

    graph = build_graph(spec_obj)
    # Start every set-up from the same collector state, whatever garbage
    # the untimed input generation left behind.
    gc.collect()
    started = time.perf_counter()
    service = GraphService(graph)
    install_policies(service, resources)
    answer = execute(service, first_op)
    return service, time.perf_counter() - started, answer == first_op[-1]


def verify(resources, ops, runs) -> Dict[str, int]:
    """Replay every distinct executed key on a freshly built twin service."""
    from repro.service import GraphService
    from repro.workloads import build_graph, install_policies

    twin = GraphService(build_graph(spec()))
    install_policies(twin, resources)
    truth: Dict[Tuple, bool] = {}
    checked = wrong = disagree_with_inputs = 0
    for run in runs:
        for offset, answer in enumerate(run["answers"]):
            op = ops[(run["start"] + offset) % len(ops)]
            key = op[:-1]
            expected = truth.get(key)
            if expected is None:
                expected = truth[key] = execute(twin, op)
                disagree_with_inputs += expected != op[-1]
            checked += 1
            wrong += answer != expected
    return {"checked": checked, "wrong": wrong, "distinct_keys": len(truth),
            "twin_vs_generated_mismatches": disagree_with_inputs}


def run(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    spec_obj = spec()
    resources, ops, info = make_inputs(seed)
    gc.collect()
    reset_peak_rss()

    setups: List[float] = []
    setup_ok = True
    service = None
    for _ in range(1 if trace else SETUP_REPEATS):
        service = None
        service, elapsed, ok = setup_once(spec_obj, resources, ops[0])
        setups.append(elapsed)
        setup_ok &= ok

    warm = drive(service, ops, 1, WARMUP_S)
    runs = [warm]
    result: Dict[str, object] = {"loop": "closed, 1 in-process caller", "inputs": info}
    if not trace:
        measured = drive(service, ops, warm["end"], seconds, calibrate=True)
        runs.append(measured)
        rss = peak_rss_mb()
        end_to_end = summarize(measured, setups, rss)
    else:
        untraced = drive(service, ops, warm["end"], seconds / 2, calibrate=True)
        end_to_end = summarize(untraced, setups, peak_rss_mb())
        tracer = Tracer()
        install_program_wrappers(tracer)
        tracer.begin("measured")
        before = service.statistics()
        try:
            traced = drive(service, ops, untraced["end"], seconds / 2, tracer)
        finally:
            tracer.uninstall()
        after = service.statistics()
        runs += [untraced, traced]
        measured_spans = tracer.measured()
        per_layer = layers.derive_from_spans(measured_spans, (), tracer.calls)
        per_layer.update(layers.derive_from_counters(layers.counter_deltas(before, after), after))
        base = percentile(untraced["latencies"]["check"], 0.5)
        per_layer["trace.overhead_share"] = {
            "value": percentile(traced["latencies"]["check"], 0.5) / base - 1.0}
        result["per_layer"] = layers.finish(layers.POINT, per_layer,
                                            layers.self_time_by_layer(measured_spans))
        result["tracer"] = tracer
        measured = traced

    checked = verify(resources, ops, runs)
    distinct = {ops[i % len(ops)][:-1] for i in range(measured["start"], measured["end"])}
    info["memo_working_set_keys"] = len(distinct)
    attempted = sum(run["end"] - run["start"] for run in runs) + len(setups)
    failed = checked["wrong"] + checked["twin_vs_generated_mismatches"] + (not setup_ok)
    end_to_end["failed_share"] = {"value": failed / attempted, "unit": "ratio"}
    answers = [a for run in runs for a in run["answers"]]
    info["measured_grant_share"] = sum(answers) / len(answers)
    result.update(end_to_end=end_to_end, verification=checked, attempted=attempted,
                  failed=failed, correct=failed == 0)
    return result


def summarize(run, setups, rss) -> Dict[str, Dict[str, object]]:
    checks = latency_block(run["latencies"]["check"])
    reaches = latency_block(run["latencies"]["reach"])
    done = run["end"] - run["start"]
    cpu_ms_per_op = run["cpu"] / done * 1e3
    return {
        "setup_s": {"value": percentile(setups, 0.5), "unit": "s", "samples": len(setups)},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "throughput_ops_s": {"value": done / run["wall"], "unit": "1/s", "samples": done},
        "cpu_ms_per_op": {"value": cpu_ms_per_op, "unit": "ms", "samples": done},
        "norm_cpu_per_op": {**normalized(cpu_ms_per_op, run["ref_cpu_s"], run["ref_passes"]),
                            "samples": done},
        "check_p50_ms": {"value": checks["p50_ms"], "unit": "ms", "samples": checks["samples"]},
        "check_tail_ms": {"value": checks["tail_ms"], "unit": "ms",
                          "samples": checks["samples"], "percentile": checks["tail_percentile"]},
        "reach_p50_ms": {"value": reaches["p50_ms"], "unit": "ms", "samples": reaches["samples"]},
        "reach_tail_ms": {"value": reaches["tail_ms"], "unit": "ms",
                          "samples": reaches["samples"], "percentile": reaches["tail_percentile"]},
    }
