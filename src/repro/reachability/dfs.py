"""Online constrained depth-first search.

The depth-first twin of :class:`~repro.reachability.bfs.OnlineBFSEvaluator`
(the paper mentions both as the straightforward baselines).  Semantics are
identical — the two must agree on every query — but the exploration order
differs: DFS dives along one branch first, which tends to find *a* witness
faster on graphs with long chains, at the cost of not returning shortest
witnesses.  Implemented iteratively (explicit stack) so that deep graphs do
not hit Python's recursion limit.

Like the BFS evaluator, the search runs on the graph's compiled CSR snapshot
by default (``compiled=False`` restores the legacy dict traversal); the two
modes are equivalent and only differ in constant factors.  Snapshot
acquisition is per query through ``compile_graph`` and therefore inherits
delta maintenance under churn, exactly as described in
:mod:`repro.reachability.bfs`.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.exceptions import NodeNotFoundError
from repro.graph.paths import Path, Traversal
from repro.graph.social_graph import SocialGraph, raw_attributes_getter
from repro.policy.path_expression import PathExpression
from repro.reachability.automaton import AutomatonState, StepAutomaton
from repro.reachability.compiled_search import AutomatonCache, CompiledSearchMixin
from repro.reachability.result import EvaluationResult

__all__ = ["OnlineDFSEvaluator"]

_SearchNode = Tuple[Hashable, AutomatonState]


class OnlineDFSEvaluator(CompiledSearchMixin):
    """Evaluate ordered label-constraint reachability queries by constrained DFS."""

    name = "dfs"
    _depth_first = True

    def __init__(self, graph: SocialGraph, *, compiled: bool = True) -> None:
        self.graph = graph
        self.compiled = compiled and isinstance(graph, SocialGraph)
        self._automata = AutomatonCache()

    def build(self) -> "OnlineDFSEvaluator":
        """No precomputation is needed; returns ``self`` for interface parity."""
        return self

    def statistics(self) -> Dict[str, float]:
        """Index statistics (trivially empty for the online evaluator)."""
        return {"index_entries": 0, "build_seconds": 0.0}

    # ------------------------------------------------------------------ api

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
            accepted = self._search(source, expression, result, stop_at=target,
                                    collect_witness=collect_witness)
            result.reachable = target in accepted
            if collect_witness and result.reachable:
                result.witness = accepted[target]
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def find_targets(self, source: Hashable, expression: PathExpression) -> Set[Hashable]:
        """Return every user reachable from ``source`` under ``expression``."""
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
        if not self.graph.has_user(source):
            raise NodeNotFoundError(source)
        if stop_at is not None and not self.graph.has_user(stop_at):
            raise NodeNotFoundError(stop_at)

        automaton = StepAutomaton(expression)
        accepted: Dict[Hashable, Optional[Path]] = {}
        visited: Set[_SearchNode] = set()
        # Raw dict reads in the hot loop (no per-node AttributeMap views).
        attributes_of = raw_attributes_getter(self.graph)
        # Each stack entry carries the partial witness (tuple of traversals) so
        # no parent map is needed; tuples share structure, keeping this cheap.
        stack: List[Tuple[Hashable, AutomatonState, Tuple[Traversal, ...]]] = []

        def push(user: Hashable, state: AutomatonState, trail: Tuple[Traversal, ...]) -> None:
            node = (user, state)
            if node in visited:
                return
            visited.add(node)
            stack.append((user, state, trail))
            result.count("states_visited")
            if automaton.is_accepting(state) and user not in accepted:
                accepted[user] = Path(source, trail) if collect_witness else None

        for state in automaton.closure(automaton.start_state, attributes_of(source)):
            push(source, state, ())

        while stack:
            if stop_at is not None and stop_at in accepted:
                break
            user, state, trail = stack.pop()
            if not automaton.can_traverse_more(state):
                continue
            label, allow_forward, allow_backward = automaton.edge_requirements(state)
            next_state = automaton.after_edge(state)
            if allow_forward:
                for rel in self.graph.out_relationships(user, label):
                    result.count("edges_expanded")
                    extended = trail + (Traversal(rel, forward=True),) if collect_witness else ()
                    for closed in automaton.closure(next_state, attributes_of(rel.target)):
                        push(rel.target, closed, extended)
            if allow_backward:
                for rel in self.graph.in_relationships(user, label):
                    result.count("edges_expanded")
                    extended = trail + (Traversal(rel, forward=False),) if collect_witness else ()
                    for closed in automaton.closure(next_state, attributes_of(rel.source)):
                        push(rel.source, closed, extended)
        return accepted
