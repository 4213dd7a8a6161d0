"""Online constrained breadth-first search — the paper's first baseline.

"A straight-forward method for answering constraint-labeled reachability
queries is to apply a Depth-First Search algorithm (respectively,
Breadth-First Search algorithm) together with the constraints to reduce the
search space" (Section 1).  This evaluator does exactly that: a BFS over the
product of the social graph and the :class:`~repro.reachability.automaton.
StepAutomaton`, visiting each ``(user, automaton state)`` pair at most once.
It needs no precomputation, makes it the reference oracle for every other
backend, and its per-query cost grows with the size of the explored
neighbourhood — the ``O(|V| + |E|)`` behaviour the paper wants to avoid on
large graphs.

By default the search runs on the graph's compiled CSR snapshot
(:mod:`repro.graph.compiled`): user ids and labels are interned to dense
integers, the product walk touches only ``array('l')`` adjacency, and witness
paths are reconstructed into :class:`Relationship` objects on demand.  The
snapshot is acquired per query through ``compile_graph``, so under churn the
evaluator rides the delta-maintenance path: a journal-covered mutation burst
is absorbed in O(|delta|) and only the first query touching a mutated label
pays that label's side-table compaction.  Pass ``compiled=False`` (or a
duck-typed graph that is not a :class:`SocialGraph`) to fall back to the
legacy dict-of-dicts traversal — the benchmark harness compares the two, and
the test suite checks their equivalence.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, Hashable, Iterable, Optional, Set, Tuple

from repro.exceptions import NodeNotFoundError
from repro.graph.paths import Path, Traversal
from repro.graph.social_graph import SocialGraph, raw_attributes_getter
from repro.policy.path_expression import PathExpression
from repro.reachability.automaton import AutomatonState, StepAutomaton
from repro.reachability.compiled_search import AutomatonCache, CompiledSearchMixin
from repro.reachability.result import EvaluationResult

__all__ = ["OnlineBFSEvaluator"]

_SearchNode = Tuple[Hashable, AutomatonState]


class OnlineBFSEvaluator(CompiledSearchMixin):
    """Evaluate ordered label-constraint reachability queries by constrained BFS."""

    name = "bfs"

    def __init__(self, graph: SocialGraph, *, compiled: bool = True) -> None:
        self.graph = graph
        self.compiled = compiled and isinstance(graph, SocialGraph)
        self._automata = AutomatonCache()

    # ------------------------------------------------------------------ api

    def build(self) -> "OnlineBFSEvaluator":
        """No precomputation is needed; returns ``self`` for interface parity."""
        return self

    def statistics(self) -> Dict[str, float]:
        """Index statistics (trivially empty for the online evaluator)."""
        return {"index_entries": 0, "build_seconds": 0.0}

    def evaluate(
        self,
        source: Hashable,
        target: Hashable,
        expression: PathExpression,
        *,
        collect_witness: bool = True,
    ) -> EvaluationResult:
        """Return whether ``target`` is reachable from ``source`` under ``expression``."""
        started = time.perf_counter()
        result = EvaluationResult(reachable=False, backend=self.name)
        if self.compiled:
            outcome = self._compiled_search(source, expression, result, stop_at=target,
                                            collect_witness=collect_witness)
            result.reachable = outcome.contains(target)
            if collect_witness and result.reachable:
                result.witness = outcome.witness(target)
        else:
            found = self._search(source, expression, result, stop_at=target,
                                 collect_witness=collect_witness)
            result.reachable = target in found
            if collect_witness and result.reachable:
                result.witness = found[target]
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def find_targets(self, source: Hashable, expression: PathExpression) -> Set[Hashable]:
        """Return every user reachable from ``source`` under ``expression``.

        Used to materialize the full authorized audience of an access rule.
        """
        result = EvaluationResult(reachable=False, backend=self.name)
        if self.compiled:
            outcome = self._compiled_search(source, expression, result, stop_at=None,
                                            collect_witness=False)
            return outcome.users()
        return set(self._search(source, expression, result, stop_at=None, collect_witness=False))

    # sweep_targets_many / find_targets_many (the bulk audience forms) are
    # inherited from CompiledSearchMixin.

    # ------------------------------------------------- legacy (dict) search

    def _search(
        self,
        source: Hashable,
        expression: PathExpression,
        result: EvaluationResult,
        *,
        stop_at: Optional[Hashable],
        collect_witness: bool,
    ) -> Dict[Hashable, Optional[Path]]:
        """Run the product BFS; return accepted users mapped to a witness path (or None)."""
        if not self.graph.has_user(source):
            raise NodeNotFoundError(source)
        if stop_at is not None and not self.graph.has_user(stop_at):
            raise NodeNotFoundError(stop_at)

        automaton = StepAutomaton(expression)
        accepted: Dict[Hashable, Optional[Path]] = {}
        parents: Dict[_SearchNode, Tuple[Optional[_SearchNode], Optional[Traversal]]] = {}
        visited: Set[_SearchNode] = set()
        queue: deque = deque()

        def enqueue(user: Hashable, state: AutomatonState, parent: Optional[_SearchNode],
                    traversal: Optional[Traversal]) -> None:
            node = (user, state)
            if node in visited:
                return
            visited.add(node)
            if collect_witness:
                parents[node] = (parent, traversal)
            queue.append(node)
            result.count("states_visited")
            if automaton.is_accepting(state) and user not in accepted:
                accepted[user] = self._reconstruct(node, parents) if collect_witness else None

        # Raw dict reads in the hot loop (no per-node AttributeMap views).
        attributes_of = raw_attributes_getter(self.graph)
        for state in automaton.closure(automaton.start_state, attributes_of(source)):
            enqueue(source, state, None, None)

        while queue:
            if stop_at is not None and stop_at in accepted:
                break
            user, state = queue.popleft()
            if not automaton.can_traverse_more(state):
                continue
            label, allow_forward, allow_backward = automaton.edge_requirements(state)
            next_state = automaton.after_edge(state)
            moves: Iterable[Tuple[Hashable, Traversal]] = self._moves(
                user, label, allow_forward, allow_backward
            )
            for next_user, traversal in moves:
                result.count("edges_expanded")
                attributes = attributes_of(next_user)
                for closed in automaton.closure(next_state, attributes):
                    enqueue(next_user, closed, (user, state), traversal)
        return accepted

    def _moves(
        self,
        user: Hashable,
        label: str,
        allow_forward: bool,
        allow_backward: bool,
    ) -> Iterable[Tuple[Hashable, Traversal]]:
        if allow_forward:
            for rel in self.graph.out_relationships(user, label):
                yield rel.target, Traversal(rel, forward=True)
        if allow_backward:
            for rel in self.graph.in_relationships(user, label):
                yield rel.source, Traversal(rel, forward=False)

    def _reconstruct(
        self,
        node: _SearchNode,
        parents: Dict[_SearchNode, Tuple[Optional[_SearchNode], Optional[Traversal]]],
    ) -> Path:
        traversals = []
        current: Optional[_SearchNode] = node
        while current is not None:
            parent, traversal = parents[current]
            if traversal is not None:
                traversals.append(traversal)
            current = parent
        traversals.reverse()
        start = traversals[0].start if traversals else node[0]
        return Path(start, traversals)
