"""Tests of the benchmark's own helpers (no graph is built).

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import random
import time
from pathlib import Path

import pytest

from perfbench import layers
from perfbench.calibrate import Calibrator, ReferenceKernel, normalized
from perfbench.common import (
    GrantDenySampler,
    ZipfSampler,
    open_loop_accounting,
    percentile,
    samples_beyond,
    sliced_tail,
    tail,
)
from perfbench.tracing import Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------ tail rule


def test_tail_uses_p99_once_ten_samples_lie_beyond_it():
    values = [float(i) for i in range(1, 1001)]
    assert samples_beyond(1000, 0.99) == 10
    assert tail(values) == (990.0, "p99")


def test_tail_falls_back_to_p90_below_a_thousand_samples():
    values = [float(i) for i in range(1, 1000)]
    assert samples_beyond(999, 0.99) == 9
    assert tail(values) == (900.0, "p90")


def test_tail_is_undefined_below_a_hundred_samples():
    assert tail([1.0] * 99) == (None, None)
    assert tail([float(i) for i in range(100)])[1] == "p90"


def test_sliced_tail_ignores_a_burst_confined_to_one_slice():
    steady = [1.0] * 3000
    burst = steady[:1000] + [50.0] * 40 + steady[1040:]
    assert tail(burst) == (50.0, "p99")
    assert sliced_tail(burst) == (1.0, "p99")
    assert sliced_tail([float(i) for i in range(1000)]) == (989.0, "p99")


def test_percentile_is_nearest_rank():
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert percentile([5.0], 0.99) == 5.0


# ------------------------------------------------------------ self time


def _span(span_id, parent, start, end, layer="x", name="s"):
    return (span_id, parent, name, layer, start, end, None, None, "measured")


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 2.0, 3.0),
        _span(4, 1, 5.0, 9.0),
    ]
    assert self_times(spans) == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}


def test_tracer_nests_spans_and_restores_the_program():
    class Layer:
        def outer(self):
            time.sleep(0.002)
            self.inner()
            return "done"

        def inner(self):
            time.sleep(0.003)

    original = Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer", "a")
    tracer.wrap(Layer, "inner", "inner", "b")
    assert Layer().outer() == "done"
    tracer.uninstall()
    assert Layer.__dict__["outer"] is original
    inner, outer = tracer.spans
    assert inner[1] == outer[0] and outer[1] is None
    own = self_times(tracer.spans)
    assert own[outer[0]] == pytest.approx((outer[5] - outer[4]) - (inner[5] - inner[4]))
    assert own[inner[0]] >= 0.003


def test_service_overhead_excludes_engine_spans_at_any_depth():
    spans = [
        _span(1, None, 0.0, 10.0, "service", "GraphService.is_reachable"),
        _span(2, 1, 0.5, 9.0, "service", "GraphService.reach"),
        _span(3, 2, 1.0, 2.0, "service", "QueryPlanner.plan_reach"),
        _span(4, 2, 3.0, 8.0, "reachability", "ReachabilityEngine.evaluate"),
        _span(5, 4, 4.0, 5.0, "graph", "compile_graph"),
    ]
    out = layers.derive_from_spans(spans)
    assert out["service.overhead_us"] == {"value": 5.0e6, "base": 1}
    assert out["service.plan_us"]["value"] == pytest.approx(1.0e6)
    assert out["reachability.evaluate_us"]["value"] == pytest.approx(5.0e6)


def test_queue_wait_is_submit_minus_its_batch():
    spans = [
        (1, None, "RequestCoalescer.batch", "serving", 2.0, 5.0, "b1", {"size": 2}, "measured"),
        (2, None, "RequestCoalescer.submit", "serving", 0.0, 6.0, 7, {"batch": "b1"}, "measured"),
        (3, None, "RequestCoalescer.submit", "serving", 1.0, 5.5, 8, {"batch": "b1"}, "measured"),
    ]
    out = layers.derive_from_spans(spans)
    assert out["serving.queue_wait_ms_p50"] == {"value": 1.5e3, "base": 2}
    assert out["serving.batch_execute_ms_p50"]["value"] == pytest.approx(3.0e3)


# ----------------------------------------------------- open-loop timing


def test_latency_counts_from_the_due_time_not_the_send_time():
    due = [0.0, 1.0, 2.0, 3.0]
    sent = [0.0, 1.5, 2.001, None]
    done = [0.25, 1.75, 2.5, None]
    out = open_loop_accounting(due, sent, done, late_after=0.002)
    assert out["latencies"] == [0.25, 0.75, pytest.approx(0.5), None]
    assert out["unanswered"] == 1
    assert out["sent"] == 3
    assert out["late_share"] == pytest.approx(1 / 3)
    assert out["max_late_ms"] == pytest.approx(500.0)


def test_a_sent_but_unanswered_request_has_no_latency():
    out = open_loop_accounting([0.0], [0.0], [None])
    assert out["latencies"] == [None] and out["unanswered"] == 1


# ------------------------------------------------------------- samplers


def _draws(seed, count=2000):
    rng = random.Random(seed)
    sampler = GrantDenySampler(list(range(100)), list(range(100, 400)), 0.3, rng,
                               exponent=0.8)
    return [sampler.draw() for _ in range(count)]


def test_samplers_repeat_for_a_seed_and_differ_across_seeds():
    assert _draws(5) == _draws(5)
    assert _draws(5) != _draws(6)

    def ranks(seed):
        sampler = ZipfSampler(50, 1.0, random.Random(seed))
        return [sampler.sample() for _ in range(200)]

    assert ranks(3) == ranks(3)
    assert ranks(3) != ranks(4)


def test_grant_share_and_zipf_skew():
    draws = _draws(9, 20000)
    granted = sum(1 for _key, grant in draws if grant)
    assert abs(granted / len(draws) - 0.3) < 0.02
    for key, grant in draws:
        assert (key < 100) == grant
    counts = [0] * 20
    sampler = ZipfSampler(20, 1.0, random.Random(1))
    for _ in range(20000):
        counts[sampler.sample()] += 1
    assert counts[0] > counts[1] > counts[5] > counts[19]


# ------------------------------------------------------------ reference


def test_reference_kernel_does_the_same_work_in_every_pass_and_process():
    kernel = ReferenceKernel()
    assert 0 < kernel.expected < 100
    assert [kernel.run() for _ in range(3)] == [kernel.expected] * 3
    assert ReferenceKernel().expected == kernel.expected


def test_calibrator_samples_on_schedule_and_normalizes_per_pass():
    calibrator = Calibrator(every_s=60.0)
    calibrator.maybe()
    calibrator.maybe()
    assert calibrator.passes == 1
    calibrator.sample()
    state = calibrator.state()
    assert state["ref_passes"] == 2 and state["ref_cpu_s"] > 0 and state["ref_wall_s"] > 0
    block = normalized(0.5, 0.004, 4)
    assert block["ref_ms_per_pass"] == pytest.approx(1.0)
    assert block["value"] == pytest.approx(0.5)
    assert block["unit"] == "ref"


# ------------------------------------------------------------- contract


def test_benchmark_json_names_every_per_layer_metric():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry[0] for entry in layers.PER_LAYER]
    assert [entry["name"] for entry in contract["per_layer"]] == names
    finished = layers.finish(layers.POINT, {}, {})
    assert list(finished["metrics"]) == names
    assert "serving.frame_codec_us" in finished["not_applicable"]
