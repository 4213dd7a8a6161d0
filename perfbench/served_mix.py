"""``served_mix``: an open loop over TCP against the serving process.

The server (``perfbench/served_server.py``) runs in its own process with
one tenant and default serving settings over the 20k-user
``barabasi-albert`` graph.  This process is the load generator: two
connections send seeded Poisson arrivals (``open_loop_arrivals``) at a
fixed offered rate of 500 requests/s.  The server's single interpreter
saturates near 2000/s on a 2-CPU box (one CPU busy); at 500/s batches form
with room to spare, so noise from the host never grows a backlog or trips
admission control.  The mix is 70% ``check``, 20% boolean ``reach`` and
10% single-owner ``audience`` over 8 shared expressions; 30% of checks and
reaches are grants.  Latency is timed from each request's due time.  This
is the only workload that goes through ``serving``; the serving layer plus
coalesced sweeps dominate a request.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import layers
from perfbench.calibrate import normalized
from perfbench.common import (
    DATASET_SEED,
    DEFAULT_MEMO_ENTRIES,
    EXPRESSIONS,
    GRANT_SHARE,
    LATE_AFTER_S,
    GrantDenySampler,
    latency_block,
    open_loop_accounting,
    percentile,
    split_keys,
)
from perfbench.point_checks import audiences_of, spec

RATE = 500.0
CONNECTIONS = 2
MIX = (("check", 0.7), ("reach", 0.2), ("audience", 0.1))
WARMUP_S = 1.0
SETUP_REPEATS = 3
#: How long after the last due time unanswered requests count as timed out.
DRAIN_S = 10.0
#: A generator this late is flagged: its run offered less load than stated.
LATE_FLAG_SHARE = 0.05
LATE_FLAG_MAX_MS = 100.0
TENANT = "t0"


def make_inputs(seed: int, count: int):
    """The probe check, ``count`` requests and their arrival offsets."""
    from repro.workloads import build_workload, open_loop_arrivals

    workload = build_workload(spec())
    users = sorted(workload.graph.users(), key=str)
    audiences = audiences_of(workload)
    # Key pools and their popularity order belong to the dataset; the
    # seed only drives which keys the traffic draws, and when.
    grants, denies = split_keys(workload.resources, audiences, users,
                                random.Random(DATASET_SEED))
    rng = random.Random(seed * 7919 + 17)
    g_cut, d_cut = len(grants) * 3 // 4, len(denies) * 3 // 4
    checks = GrantDenySampler(grants[:g_cut], denies[:d_cut], GRANT_SHARE, rng)
    reaches = GrantDenySampler(grants[g_cut:], denies[d_cut:], GRANT_SHARE, rng)
    owner_of = {rid: owner for rid, owner, _exprs in workload.resources}
    expression_of = {rid: exprs[0] for rid, _owner, exprs in workload.resources}

    def check():
        (rid, user), expected = checks.draw()
        return ("check", user, rid, expected)

    probe = check()
    requests: List[Tuple] = []
    kinds = [kind for kind, _share in MIX]
    weights = [share for _kind, share in MIX]
    for _ in range(count):
        kind = rng.choices(kinds, weights)[0]
        if kind == "check":
            requests.append(check())
        elif kind == "reach":
            (rid, user), expected = reaches.draw()
            requests.append(("reach", owner_of[rid], user, expression_of[rid], expected))
        else:
            requests.append(("audience", rng.choice(users), rng.choice(EXPRESSIONS), None))
    offsets = open_loop_arrivals(count, RATE, seed=seed)
    info = {
        "dataset_seed": DATASET_SEED,
        "graph": {"family": "barabasi-albert", "users": workload.graph.number_of_users(),
                  "relationships": workload.graph.number_of_relationships()},
        "resources": len(workload.resources),
        "offered_rate_per_s": RATE,
        "connections": CONNECTIONS,
        "mix": dict(MIX),
        "grant_share": GRANT_SHARE,
        "key_pools": {"check_grants": g_cut, "check_denies": d_cut,
                      "reach_grants": len(grants) - g_cut,
                      "reach_denies": len(denies) - d_cut},
        "memo_entries": DEFAULT_MEMO_ENTRIES,
        "serving": {"window_s": 0.002, "max_batch": 64, "max_pending": 256},
    }
    return probe, requests, offsets, info


def frame(request_id: int, request) -> bytes:
    kind = request[0]
    if kind == "check":
        body = {"op": "check", "requester": request[1], "resource": request[2]}
    elif kind == "reach":
        body = {"op": "reach", "source": request[1], "target": request[2],
                "expression": request[3]}
    else:
        body = {"op": "audience", "owner": request[1], "expression": request[2]}
    body.update(id=request_id, tenant=TENANT)
    return (json.dumps(body) + "\n").encode()


def answer_of(kind: str, response: dict):
    """The comparable answer in a response frame, or ``None`` on an error."""
    if not response.get("ok"):
        return None
    result = response["result"]
    if kind == "check":
        return result["granted"]
    if kind == "reach":
        return result["reachable"]
    return frozenset(result["audience"])


# ----------------------------------------------------------- the server



class Server:
    """One server process: spawn, command over stdin, collect its report."""

    def __init__(self, trace: bool, spans: Optional[Path]) -> None:
        root = Path.cwd()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        command = [sys.executable, "-m", "perfbench.served_server"]
        if trace:
            command.append("--trace")
        if spans is not None:
            command += ["--spans", str(spans)]
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        ready = self._read()
        self.port, self.t0 = ready["port"], ready["t0"]

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited early with {self.process.wait()}")
        return json.loads(line)

    def command(self, word: str) -> dict:
        self.process.stdin.write(word + "\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.flush()
            self.process.stdin.close()
            report = self._read()["report"]
            self.process.wait(timeout=60)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


# ---------------------------------------------------------- the client


async def _request(port: int, payload: dict) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write((json.dumps(payload) + "\n").encode())
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()


def statistics(port: int) -> Dict[str, float]:
    response = asyncio.run(_request(port, {"id": 0, "op": "stats", "tenant": TENANT}))
    return response["result"]["statistics"]


def probe_setup(server: Server, probe) -> Tuple[float, bool]:
    """Seconds from the server's construction to a correct first answer."""
    response = asyncio.run(_request(server.port, json.loads(frame(0, probe))))
    elapsed = time.monotonic() - server.t0
    return elapsed, answer_of("check", response) == probe[-1]


async def _open_loop(port: int, frames: List[bytes], offsets: List[float]):
    connections = [await asyncio.open_connection("127.0.0.1", port)
                   for _ in range(CONNECTIONS)]
    count = len(frames)
    sent: List[Optional[float]] = [None] * count
    done: List[Optional[float]] = [None] * count
    responses: List[Optional[dict]] = [None] * count
    finished = asyncio.Event()
    remaining = count

    async def read(reader):
        nonlocal remaining
        while remaining:
            line = await reader.readline()
            if not line:
                return
            at = time.monotonic()
            response = json.loads(line)
            index = response["id"] - 1
            done[index] = at
            responses[index] = response
            remaining -= 1
        finished.set()

    readers = [asyncio.ensure_future(read(reader)) for reader, _writer in connections]
    clock = time.monotonic
    epoch = clock() + 0.01
    due = [epoch + offset for offset in offsets]
    for index in range(count):
        delay = due[index] - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        writer = connections[index % CONNECTIONS][1]
        writer.write(frames[index])
        sent[index] = clock()
        if index % 64 == 63:
            await writer.drain()
    try:
        await asyncio.wait_for(finished.wait(), due[-1] + DRAIN_S - clock())
    except asyncio.TimeoutError:
        pass
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for _reader, writer in connections:
        writer.close()
        await writer.wait_closed()
    return due, sent, done, responses


def open_loop(port: int, requests, offsets) -> Dict[str, object]:
    frames = [frame(index + 1, request) for index, request in enumerate(requests)]
    start = offsets[0]
    # The generator's own collector pauses would make it send late.
    gc.collect()
    gc.disable()
    try:
        due, sent, done, responses = asyncio.run(
            _open_loop(port, frames, [offset - start for offset in offsets]))
    finally:
        gc.enable()
    accounting = open_loop_accounting(due, sent, done)
    return {"requests": requests, "due": due, "done": done, "responses": responses,
            **accounting}


def phase(server: Server, requests, offsets, warm: int):
    """Warm up, then measure one open-loop phase with counters around it.

    Returns the warm-up and the measured run; both are verified.
    """
    warmup = open_loop(server.port, requests[:warm], offsets[:warm])
    before = statistics(server.port)
    before_ack = server.command("mark")
    measured = open_loop(server.port, requests[warm:], offsets[warm:])
    after_ack = server.command("unmark")
    # The server samples the reference kernel while untraced; its CPU is
    # kept out of the server's.
    for key in ("cpu_s", "ref_cpu_s", "ref_passes"):
        measured[key] = after_ack[key] - before_ack[key]
    measured["server_cpu_s"] = measured["cpu_s"] - measured["ref_cpu_s"]
    measured["counters"] = layers.counter_deltas(before, statistics(server.port))
    return warmup, measured


# -------------------------------------------------------- verification


def verify(probe, phases) -> Dict[str, int]:
    """Replay every distinct request on a freshly built twin service."""
    from repro.service import GraphService
    from repro.workloads import build_workload, install_policies

    workload = build_workload(spec())
    twin = GraphService(workload.graph)
    install_policies(twin, workload)
    truth: Dict[Tuple, object] = {}

    def expected(request):
        key = request[:-1]
        if key not in truth:
            kind = request[0]
            if kind == "check":
                truth[key] = twin.check(request[1], request[2], explain=False).granted
            elif kind == "reach":
                truth[key] = twin.is_reachable(request[1], request[2], request[3])
            else:
                result = twin.audience(request[1], request[2])
                truth[key] = frozenset(result.audiences.get(request[1], ()))
        return truth[key]

    checked = wrong = errors = disagree = 0
    disagree += expected(probe) != probe[-1]
    for measured in phases:
        for request, response in zip(measured["requests"], measured["responses"]):
            if response is None:
                continue
            got = answer_of(request[0], response)
            if got is None:
                errors += 1
                continue
            checked += 1
            truth_value = expected(request)
            wrong += got != truth_value
            if request[-1] is not None:
                disagree += truth_value != request[-1]
    return {"checked": checked, "wrong": wrong, "error_responses": errors,
            "distinct_keys": len(truth), "twin_vs_generated_mismatches": disagree}


# ----------------------------------------------------------------- run


def summarize(measured, setups, rss) -> Dict[str, Dict[str, object]]:
    by_kind: Dict[str, List[float]] = {"check": [], "reach": [], "audience": []}
    completed = 0
    for request, latency, response in zip(measured["requests"], measured["latencies"],
                                          measured["responses"]):
        if latency is not None and response is not None and response.get("ok"):
            by_kind[request[0]].append(latency)
            completed += 1
    finished = [at for at in measured["done"] if at is not None]
    span = (max(finished) - measured["due"][0]) if finished else float("inf")
    cpu_ms_per_op = measured["server_cpu_s"] / completed * 1e3
    out: Dict[str, Dict[str, object]] = {
        "setup_s": {"value": percentile(setups, 0.5) if setups else None, "unit": "s",
                    "samples": len(setups)},
        "peak_rss_mb": {"value": rss, "unit": "MB", "process": "server"},
        "throughput_ops_s": {"value": completed / span, "unit": "1/s", "samples": completed,
                             "offered_rate": RATE},
        "cpu_ms_per_op": {"value": cpu_ms_per_op, "unit": "ms",
                          "samples": completed, "process": "server"},
    }
    if measured["ref_passes"]:
        out["norm_cpu_per_op"] = {
            **normalized(cpu_ms_per_op, measured["ref_cpu_s"], measured["ref_passes"]),
            "samples": completed, "process": "server"}
    for kind, values in by_kind.items():
        block = latency_block(values)
        out[f"{kind}_p50_ms"] = {"value": block["p50_ms"], "unit": "ms",
                                 "samples": block["samples"]}
        out[f"{kind}_tail_ms"] = {"value": block["tail_ms"], "unit": "ms",
                                  "samples": block["samples"],
                                  "percentile": block["tail_percentile"]}
    return out


def generator_block(measured) -> Dict[str, object]:
    late = measured["late_share"] > LATE_FLAG_SHARE or measured["max_late_ms"] > LATE_FLAG_MAX_MS
    return {"late_after_ms": LATE_AFTER_S * 1e3, "late_share": measured["late_share"],
            "max_late_ms": measured["max_late_ms"], "flagged_late": late}


def run(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    warm = int(RATE * WARMUP_S)
    phase_s = seconds / 2 if trace else seconds
    per_phase = warm + int(RATE * phase_s)
    probe, requests, offsets, info = make_inputs(seed, per_phase * (2 if trace else 1))
    result: Dict[str, object] = {"loop": f"open, {CONNECTIONS} connections", "inputs": info}
    setups: List[float] = []
    setup_ok = True
    phases = []
    if not trace:
        for attempt in range(SETUP_REPEATS):
            server = Server(False, None)
            try:
                elapsed, ok = probe_setup(server, probe)
                setups.append(elapsed)
                setup_ok &= ok
                if attempt == SETUP_REPEATS - 1:
                    phases += phase(server, requests, offsets, warm)
            finally:
                report = server.stop()
        end_to_end = summarize(phases[-1], setups, report["peak_rss_mb"])
        info["generator"] = generator_block(phases[-1])
    else:
        halves = []
        for traced in (False, True):
            spans = Path(".perfbench_out") / f"served_mix-seed{seed}-trace1-server-spans.jsonl.gz"
            server = Server(traced, spans if traced else None)
            try:
                elapsed, ok = probe_setup(server, probe)
                setup_ok &= ok
                lo = per_phase * traced
                warmup, measured = phase(server, requests[lo:lo + per_phase],
                                         offsets[lo:lo + per_phase], warm)
            finally:
                report = server.stop()
            measured["report"] = report
            phases += [warmup, measured]
            halves.append(measured)
        untraced, traced_phase = halves
        per_layer = dict(traced_phase["report"]["per_layer"])
        per_layer.update(layers.derive_from_counters(traced_phase["counters"], {}))
        base = summarize(untraced, [], 0.0)["check_p50_ms"]["value"]
        traced_p50 = summarize(traced_phase, [], 0.0)["check_p50_ms"]["value"]
        per_layer["trace.overhead_share"] = {"value": traced_p50 / base - 1.0}
        result["per_layer"] = layers.finish(layers.SERVED, per_layer,
                                            traced_phase["report"]["self_time_by_layer"])
        result["server_spans_file"] = str(spans)
        end_to_end = summarize(untraced, [], untraced["report"]["peak_rss_mb"])
        info["generator"] = {"untraced": generator_block(untraced),
                             "traced": generator_block(traced_phase)}

    checked = verify(probe, phases)
    info["memo_working_set_keys"] = checked["distinct_keys"]
    attempted = len(setups) or 2
    rejected = unanswered = 0
    for measured in phases:
        attempted += len(measured["requests"])
        unanswered += measured["unanswered"]
        rejected += sum(1 for response in measured["responses"]
                        if response is not None and not response.get("ok")
                        and response["error"]["type"] == "AdmissionRejected")
    failed = (checked["wrong"] + checked["error_responses"] + unanswered
              + checked["twin_vs_generated_mismatches"] + (not setup_ok))
    end_to_end["failed_share"] = {"value": failed / attempted, "unit": "ratio",
                                  "admission_rejects": rejected, "timeouts": unanswered}
    result.update(end_to_end=end_to_end, verification=checked, attempted=attempted,
                  failed=failed, correct=failed == 0)
    return result
