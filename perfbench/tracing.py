"""In-memory span tracing around the program's public entry points.

A :class:`Tracer` replaces callables of the program with timing wrappers
and restores them on :meth:`Tracer.uninstall`.  Each callable is wrapped
where its caller resolves it: a module that did ``from x import f`` holds
its own reference to ``f``, so that module's attribute is wrapped too.

A span is ``(span_id, parent_id, name, layer, start, end, op_id, flags,
phase)``.  Synchronous spans nest through a per-thread stack, so a span's
parent is the innermost span open on the same thread when it started.
Coroutine spans (``RequestCoalescer.submit``) interleave on the event loop
and are recorded as roots.  ``op_id`` is the request id (the wire id in
the server, the operation number in-process) or, for a coalesced
execution, the batch id.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: The id of the request or operation the current context is serving.
OP_ID: contextvars.ContextVar = contextvars.ContextVar("perfbench_op_id", default=None)

Span = Tuple[int, Optional[int], str, str, float, float, Any, Optional[dict], str]

SPAN_FIELDS = ("id", "parent", "name", "layer", "start", "end", "op_id", "flags", "phase")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus its children's durations.

    Children of one parent run on the parent's thread inside its interval
    and never overlap each other, so the part of the parent they cover is
    the sum of their durations.
    """
    spans = list(spans)
    covered: Dict[int, float] = {}
    for span in spans:
        parent = span[1]
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (span[5] - span[4])
    return {span[0]: (span[5] - span[4]) - covered.get(span[0], 0.0) for span in spans}


class Tracer:
    """Collects spans from wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = {}
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Graph id -> epoch at the last compile_graph this tracer saw.
        self.compiled_epoch: Dict[int, int] = {}
        #: Request object id -> wire id, and -> batch id (serving layer).
        self.request_wire: Dict[int, Any] = {}
        self.request_batch: Dict[int, str] = {}
        self._batch_ids = itertools.count(1)

    def begin(self, phase: str = "measured") -> None:
        """Start a phase: later spans carry its name, call counts restart."""
        self.phase = phase
        for key in self.calls:
            self.calls[key] = 0

    # ------------------------------------------------------------ spans

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        record = [next(self._ids), parent, name, layer, 0.0, None]
        stack.append(record)
        record[4] = time.perf_counter()
        return record

    def close(self, record: list, flags: Optional[dict]) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        self.spans.append(
            (record[0], record[1], record[2], record[3], record[4], end,
             OP_ID.get(), flags, self.phase)
        )

    def add_root(self, name: str, layer: str, start: float, end: float,
                 op_id: Any, flags: Optional[dict] = None) -> None:
        self.spans.append(
            (next(self._ids), None, name, layer, start, end, op_id, flags, self.phase)
        )

    def flag_open(self, name: str, key: str) -> None:
        """Set ``flags[key]`` on the innermost open span called ``name``."""
        for record in reversed(self._stack()):
            if record[2] == name:
                if len(record) == 6:
                    record.append({})
                record[6][key] = True
                return

    # --------------------------------------------------------- patching

    @staticmethod
    def _original(owner: Any, attr: str) -> Any:
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, self._original(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        *,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Time ``owner.attr`` as a span.

        ``before(args, kwargs)`` runs ahead of the call and returns a
        context; ``after(context, args, result, flags)`` may fill ``flags``.
        """
        original = self._original(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            context = before(args, kwargs) if before is not None else None
            record = tracer.open(name, layer)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.close(record, {"raised": True})
                raise
            flags = record[6] if len(record) > 6 else None
            if after is not None:
                flags = {} if flags is None else flags
                after(context, args, result, flags)
            tracer.close(record, flags or None)
            return result

        self._patch(owner, attr, traced)

    def count(self, owner: Any, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        original = owner.__dict__[attr]
        calls = self.calls
        calls.setdefault(key, 0)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def mark(self, owner: Any, attr: str, span_name: str, key: str) -> None:
        """Calling ``owner.attr`` flags the enclosing ``span_name`` span."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def marked(*args, **kwargs):
            tracer.flag_open(span_name, key)
            return original(*args, **kwargs)

        self._patch(owner, attr, marked)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ output

    def measured(self) -> List[Span]:
        return [span for span in self.spans if span[8] == "measured"]

    def dump(self, path) -> int:
        """Write every span as one gzip'd JSON line each; returns the count."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(SPAN_FIELDS, span)), default=str))
                handle.write("\n")
        return len(self.spans)


# ------------------------------------------------------ program wrappers

#: Modules that bind ``compile_graph`` by name (each call site resolves
#: its own module attribute).
_COMPILE_GRAPH_MODULES = (
    "repro.graph.compiled",
    "repro.graph.snapshot",
    "repro.service.facade",
    "repro.reachability.compiled_search",
    "repro.reachability.transitive_closure",
    "repro.reachability.linegraph",
    "repro.sharding.shard",
    "repro.sharding.router",
)

_SERVICE_CALLS = (
    "check", "is_allowed", "reach", "is_reachable", "audience",
    "bulk_access", "reach_many", "refresh", "engine",
)
_ROUTED_CALLS = ("audience", "bulk_access", "reach_many")
_PLAN_CALLS = ("plan_reach", "plan_access", "plan_audience", "plan_bulk_access")
_MUTATIONS = ("add_user", "remove_user", "update_user", "add_relationship", "remove_relationship")


def install_program_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer of ``repro``."""
    import importlib

    from repro.graph.snapshot import SnapshotStore
    from repro.graph.social_graph import SocialGraph
    from repro.policy.engine import AccessControlEngine
    from repro.policy.path_expression import PathExpression
    from repro.reachability.engine import ReachabilityEngine
    from repro.reliability.breaker import CircuitBreaker
    from repro.service.facade import GraphService
    from repro.service.planner import QueryPlanner
    from repro.serving import server as server_module
    from repro.serving.coalescer import RequestCoalescer
    from repro.sharding.router import ShardRouter
    from repro.sharding.shard import ShardedGraph

    # serving ------------------------------------------------------------
    def bind_request_id(_context, _args, frame, _flags):
        OP_ID.set(frame.get("id"))

    tracer.wrap(server_module, "decode_frame", "decode_frame", "serving", after=bind_request_id)
    tracer.wrap(server_module, "encode_frame", "encode_frame", "serving")
    _wrap_coalescer(tracer, RequestCoalescer)

    # service ------------------------------------------------------------
    def record_route(_context, _args, result, flags):
        flags["route"] = result.plan.route

    for name in _SERVICE_CALLS:
        tracer.wrap(
            GraphService, name, f"GraphService.{name}", "service",
            after=record_route if name in _ROUTED_CALLS else None,
        )
    for name in _PLAN_CALLS:
        tracer.wrap(QueryPlanner, name, f"QueryPlanner.{name}", "service")
    tracer.count(PathExpression, "to_text", "PathExpression.to_text")
    # An engine() call rebuilt when it created an engine or ran index
    # maintenance, which always settles the backend's breaker.
    tracer.mark(ReachabilityEngine, "__init__", "GraphService.engine", "rebuilt")
    tracer.mark(CircuitBreaker, "record_success", "GraphService.engine", "rebuilt")
    tracer.mark(CircuitBreaker, "record_failure", "GraphService.engine", "rebuilt")

    # policy -------------------------------------------------------------
    for name in ("check_access", "audiences_with_plans", "authorized_audiences"):
        tracer.wrap(AccessControlEngine, name, f"AccessControlEngine.{name}", "policy")

    # reachability -------------------------------------------------------
    def record_counters(_context, _args, result, flags):
        flags["states"] = result.counters.get("states_visited", 0)
        flags["edges"] = result.counters.get("edges_expanded", 0)

    def record_direction(_context, _args, result, flags):
        plan = result[1]
        if plan is not None:
            flags["direction"] = plan.direction

    tracer.wrap(ReachabilityEngine, "evaluate", "ReachabilityEngine.evaluate",
                "reachability", after=record_counters)
    tracer.wrap(ReachabilityEngine, "sweep_targets_many",
                "ReachabilityEngine.sweep_targets_many", "reachability",
                after=record_direction)

    # graph --------------------------------------------------------------
    def epoch_before(args, _kwargs):
        graph = args[0]
        return id(graph), getattr(graph, "epoch", 0)

    def record_refresh(context, _args, _result, flags):
        graph_id, epoch = context
        seen = tracer.compiled_epoch.get(graph_id)
        if seen is not None and seen != epoch:
            flags["refreshed"] = True
        tracer.compiled_epoch[graph_id] = epoch

    for module_name in _COMPILE_GRAPH_MODULES:
        module = importlib.import_module(module_name)
        tracer.wrap(module, "compile_graph", "compile_graph", "graph",
                    before=epoch_before, after=record_refresh)
    for name in _MUTATIONS:
        tracer.wrap(SocialGraph, name, "SocialGraph.mutation", "graph")
    for name in ("checkpoint", "load"):
        tracer.wrap(SnapshotStore, name, f"SnapshotStore.{name}", "graph")

    # sharding -----------------------------------------------------------
    tracer.wrap(ShardedGraph, "__init__", "ShardedGraph.build", "sharding")
    tracer.wrap(ShardRouter, "sweep_targets_many", "ShardRouter.sweep_targets_many", "sharding")
    tracer.wrap(ShardRouter, "evaluate", "ShardRouter.evaluate", "sharding")


def _wrap_coalescer(tracer: Tracer, coalescer_cls) -> None:
    """Time each coalescer submit and each batch run, and link the two.

    The batch runner is the public constructor argument every coalescer
    awaits per batch; its span runs from the flush until the batch's
    outcomes are ready (tenant worker queue plus execution).
    """
    original_init = coalescer_cls.__dict__["__init__"]
    original_submit = coalescer_cls.__dict__["submit"]

    @functools.wraps(original_init)
    def init(self, runner, *args, **kwargs):
        async def traced_runner(key, requests):
            batch_id = f"b{next(tracer._batch_ids)}"
            for request in requests:
                tracer.request_batch[id(request)] = batch_id
            started = time.perf_counter()
            try:
                return await runner(key, requests)
            finally:
                members = [tracer.request_wire.get(id(request)) for request in requests]
                tracer.add_root("RequestCoalescer.batch", "serving", started,
                                time.perf_counter(), batch_id,
                                {"size": len(requests), "members": members})

        original_init(self, traced_runner, *args, **kwargs)

    @functools.wraps(original_submit)
    async def submit(self, key, request):
        wire_id = OP_ID.get()
        tracer.request_wire[id(request)] = wire_id
        started = time.perf_counter()
        try:
            return await original_submit(self, key, request)
        finally:
            tracer.request_wire.pop(id(request), None)
            batch_id = tracer.request_batch.pop(id(request), None)
            tracer.add_root("RequestCoalescer.submit", "serving", started,
                            time.perf_counter(), wire_id, {"batch": batch_id})

    tracer._patch(coalescer_cls, "__init__", init)
    tracer._patch(coalescer_cls, "submit", submit)
