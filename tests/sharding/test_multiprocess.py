"""Multi-process shard serving: N workers must equal one process.

A :class:`~repro.sharding.ShardedGraph` is persisted shard-by-shard through
:class:`~repro.graph.snapshot.SnapshotStore`, then a
:class:`~repro.sharding.ShardServingPool` forks (and separately spawns) one
worker per shard.  The pool's joint bulk-audience answer must equal the
single-process :func:`~repro.reachability.compiled_search.audience_sweep`
over the unsharded compiled graph, and every worker must report that its
snapshot is served zero-copy (``snapshot.mapped`` — the mmap, not a heap
deserialization).
"""

from __future__ import annotations

import multiprocessing
import random

import pytest

from repro.exceptions import PathExpressionSyntaxError
from repro.graph.compiled import compile_graph
from repro.graph.generators import community_graph
from repro.policy.path_expression import PathExpression
from repro.reachability.compiled_search import CompiledAutomaton, audience_sweep
from repro.sharding import ShardServingPool, ShardedGraph

EXPRESSIONS = (
    "friend+[1,2]",
    "friend+[1]/colleague+[1]",
    "colleague+[1,3]{age >= 18}",
)
START_METHODS = [
    method
    for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]


@pytest.fixture(scope="module")
def serving_setup(tmp_path_factory):
    """One persisted 3-shard graph shared by the whole matrix."""
    graph = community_graph(
        90, communities=3, intra_edges_per_node=3, inter_fraction=0.1, seed=4
    )
    sharded = ShardedGraph(graph, shards=3, seed=11)
    directory = tmp_path_factory.mktemp("shards")
    sharded.save(directory)
    snapshot = compile_graph(graph)
    return graph, sharded, directory, snapshot


def reference_audiences(snapshot, expression_text, owners):
    automaton = CompiledAutomaton(
        PathExpression.parse(expression_text), snapshot
    )
    sources = [snapshot.index_of(owner) for owner in owners]
    audiences = audience_sweep(snapshot, automaton, sources)
    return [
        {snapshot.node_ids[node] for node in audience}
        for audience in audiences
    ]


@pytest.mark.parametrize("start_method", START_METHODS)
def test_pool_matches_single_process(serving_setup, start_method):
    graph, sharded, directory, snapshot = serving_setup
    rng = random.Random(61)
    users = sorted(graph.users(), key=str)
    # Owners from every shard plus boundary stragglers, to force real rounds.
    owners = list(sharded.boundary_users()[:3])
    owners.extend(rng.sample(users, 9))
    owners = list(dict.fromkeys(owners))
    with ShardServingPool(directory, start_method=start_method) as pool:
        assert pool.shard_count == 3
        for info in pool.worker_info:
            assert info["mapped"] is True  # zero-copy: mmapped, not unpickled
            assert info["nodes"] > 0
        for text in EXPRESSIONS:
            got = pool.bulk_audience(owners, text)
            want = reference_audiences(snapshot, text, owners)
            for owner, audience in zip(owners, want):
                assert got[owner] == audience, (start_method, text, owner)
        assert pool.rounds >= len(EXPRESSIONS)  # at least one round per query
        assert pool.messages > 0  # the cut is real: cross-shard traffic flowed


@pytest.mark.parametrize("start_method", START_METHODS)
def test_pool_routing_matches_partition(serving_setup, start_method):
    graph, sharded, directory, _snapshot = serving_setup
    with ShardServingPool(directory, start_method=start_method) as pool:
        for user in sorted(graph.users(), key=str)[:20]:
            assert pool.home_of(user) == sharded.shard_of(user)
        # Worker ghost counts line up with the persisted boundary set.
        assert sum(info["ghosts"] for info in pool.worker_info) >= len(
            sharded.boundary_users()
        )


@pytest.mark.parametrize("start_method", START_METHODS)
def test_malformed_expression_leaves_the_pool_serving(serving_setup, start_method):
    """Regression: a parse error used to kill every worker mid-protocol."""
    graph, _sharded, directory, snapshot = serving_setup
    owners = sorted(graph.users(), key=str)[:5]
    want = reference_audiences(snapshot, EXPRESSIONS[0], owners)
    with ShardServingPool(directory, start_method=start_method) as pool:
        with pytest.raises(PathExpressionSyntaxError):
            pool.bulk_audience(owners, "friend+[")
        got = pool.bulk_audience(owners, EXPRESSIONS[0])
        assert [got[owner] for owner in owners] == want


def test_pool_close_is_idempotent(serving_setup):
    _graph, _sharded, directory, _snapshot = serving_setup
    pool = ShardServingPool(directory)
    assert pool.bulk_audience(["u0"], "friend+[1]")
    pool.close()
    pool.close()
    assert pool.workers == [] and pool.conns == []


def test_start_method_matrix_covers_fork_and_spawn():
    """The acceptance matrix: both start methods exercised when available."""
    assert "fork" in START_METHODS or "spawn" in START_METHODS
    assert START_METHODS == [
        m
        for m in ("fork", "spawn")
        if m in multiprocessing.get_all_start_methods()
    ]
