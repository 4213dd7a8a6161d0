"""The resumable owner-bitset sweep kernel, driven directly.

:class:`~repro.reachability.compiled_search.SweepState` is the one sweep
loop behind the unsharded audience sweep, the shard router and the shard
worker pool.  Its owner masks only ever grow, so the order in which seeds
arrive and where a guard cuts a run short must not change the fixpoint the
``seen`` table reaches.
"""

from __future__ import annotations

import pytest

from repro.graph.compiled import compile_graph
from repro.graph.generators import community_graph
from repro.policy.path_expression import PathExpression
from repro.reachability.compiled_search import CompiledAutomaton, SweepState
from repro.reachability.engine import ReachabilityEngine, create_evaluator
from repro.reliability import QueryGuard
from repro.sharding import ShardRouter, ShardedGraph

EXPRESSIONS = ("friend+[1,3]", "friend*[1,2]/colleague+[1]{age >= 18}")


@pytest.fixture(scope="module")
def snapshot():
    graph = community_graph(
        120, communities=3, intra_edges_per_node=3, inter_fraction=0.1, seed=5
    )
    return compile_graph(graph)


def _state(snapshot, text):
    automaton = CompiledAutomaton(PathExpression.parse(text), snapshot)
    return SweepState(snapshot, automaton)


def _owners(snapshot):
    return list(range(0, snapshot.number_of_nodes(), 7))


def _seed(state, owners, first_bit=0):
    for bit, node in enumerate(owners, start=first_bit):
        state.seed(node, state.automaton.start_id, 1 << bit)


def _one_run(snapshot, text):
    state = _state(snapshot, text)
    _seed(state, _owners(snapshot))
    assert state.run()
    return state


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_seeding_across_two_runs_equals_one_run(snapshot, text):
    owners = _owners(snapshot)
    half = len(owners) // 2
    state = _state(snapshot, text)
    _seed(state, owners[:half])
    assert state.run()
    assert not state.has_work()
    _seed(state, owners[half:], first_bit=half)
    assert state.has_work()
    assert state.run()
    assert state.seen == _one_run(snapshot, text).seen


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_guard_cut_run_resumes_to_the_same_fixpoint(snapshot, text):
    state = _state(snapshot, text)
    _seed(state, _owners(snapshot))
    guard = QueryGuard(max_steps=50)
    with guard.scope(QueryGuard.PARTIAL):
        assert state.run() is False
    assert state.tripped and guard.tripped
    assert state.has_work()
    cut_short = list(state.seen)
    uninterrupted = _one_run(snapshot, text)
    assert cut_short != uninterrupted.seen
    assert state.run()  # no guard in scope: drains the kept worklist
    assert not state.has_work()
    assert state.seen == uninterrupted.seen
    assert state.scanned == uninterrupted.scanned


EVALUATORS = {
    "bfs": lambda g: create_evaluator("bfs", g),
    "dfs": lambda g: create_evaluator("dfs", g),
    "transitive-closure": lambda g: create_evaluator("transitive-closure", g),
    "cluster-index": lambda g: create_evaluator("cluster-index", g),
    "bfs-dict": lambda g: create_evaluator("bfs", g, compiled=False),
    "cluster-index-strings": lambda g: create_evaluator(
        "cluster-index", g, interned=False
    ),
    "shard-router": lambda g: ShardRouter(ShardedGraph(g, shards=2, seed=11)),
}


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_batched_direction_is_rejected(name, figure1):
    evaluator = EVALUATORS[name](figure1)
    expression = PathExpression.parse("friend+[1]")
    with pytest.raises(ValueError):
        evaluator.sweep_targets_many(["Alice"], expression, direction="batched")
    with pytest.raises(ValueError):
        ReachabilityEngine(figure1, evaluator).find_targets_many(
            ["Alice"], expression, direction="batched"
        )
