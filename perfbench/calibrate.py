"""A fixed reference kernel, run between slices of measured work.

The benchmark runs on shared hosts whose per-core speed drifts by 15-25%
over seconds to minutes as neighbours load the machine; process CPU time
drifts with it, so CPU per operation alone spreads across runs of the same
code by more than a useful bound.  :class:`Calibrator` runs a fixed piece of
benchmark-owned interpreter work in the process that does the measured work,
timed with the sampling thread's CPU clock: between point checks every
0.05 s, after each step of a churn cycle, and on the server's event loop
every 0.05 s.  One pass per sample, so a sample meets the caches and the
core in the state the program's own next step meets them.  The workloads
report ``norm_cpu_per_op``: the program's CPU per operation divided by the
kernel's CPU per pass, that is the cost of one operation in
reference passes measured at the same moments on the same core.  A change
to the program moves it; a slower host moves both sides of the quotient.
The raw ``cpu_ms_per_op`` and the kernel's ``ref_ms_per_pass`` are reported
next to it.

The kernel (:class:`ReferenceKernel`, 1-2 ms a pass) imitates the shape
of an access check, not its code: memoised bounded searches over a seeded
adjacency dict, with plan objects, frozen dataclass results, tuple keys and
formatted strings.  Over 10 s windows of ``point_checks`` on a shared 2-vCPU
host, the log of its pass time tracked the log of the program's CPU per
operation with correlation 0.98 and slope 1.0; plain searches over a dict
of lists reached 0.89-0.95 with slopes up to 1.6, leaving two to three
times the drift in the quotient.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

NODES = 3_000
DEGREE = 5
RULES = 200
QUERIES = 100
MEMO_ENTRIES = 64
LABELS = ("friend", "colleague", "parent")
KERNEL_SEED = 4


@dataclass(frozen=True)
class _Decision:
    granted: bool
    reason: str
    hops: Tuple[int, ...]


class _Plan:
    __slots__ = ("label", "depth", "direction")

    def __init__(self, label: str, depth: int) -> None:
        self.label = label
        self.depth = depth
        self.direction = "forward" if depth < 2 else "reverse"


class ReferenceKernel:
    """Memoised bounded searches answering a fixed list of access questions."""

    def __init__(self) -> None:
        rng = random.Random(KERNEL_SEED)
        self._adjacency = {node: tuple(rng.randrange(NODES) for _ in range(DEGREE))
                           for node in range(NODES)}
        self._labels = {node: LABELS[node % len(LABELS)] for node in range(NODES)}
        self._rules = {rule: (rng.randrange(NODES), LABELS[rule % 2], 1 + rule % 2)
                       for rule in range(RULES)}
        # Half the questions name a requester two steps from the rule's
        # owner, so both granted and denied answers occur.
        self._queries = []
        for index in range(QUERIES):
            rule = rng.randrange(RULES)
            requester = rng.randrange(NODES)
            if index % 2:
                step = rng.choice(self._adjacency[self._rules[rule][0]])
                requester = rng.choice(self._adjacency[step])
            self._queries.append((requester, rule))
        self._plans: Dict[Tuple[str, int], _Plan] = {}
        self._memo: Dict[Tuple, Optional[Tuple[int, ...]]] = {}
        self.expected = self.run()

    def _plan(self, label: str, depth: int) -> _Plan:
        plan = self._plans.get((label, depth))
        if plan is None:
            plan = self._plans[(label, depth)] = _Plan(label, depth)
        return plan

    def _walk(self, owner: int, target: int, plan: _Plan) -> Optional[Tuple[int, ...]]:
        adjacency, labels = self._adjacency, self._labels
        seen = {owner}
        frontier = [(owner, ())]
        for _ in range(plan.depth + 1):
            following = []
            for node, hops in frontier:
                for neighbour in adjacency[node]:
                    if neighbour in seen or (labels[neighbour] != plan.label and neighbour % 5):
                        continue
                    if neighbour == target:
                        return hops + (neighbour,)
                    seen.add(neighbour)
                    following.append((neighbour, hops + (neighbour,)))
            frontier = following
        return None

    def _check(self, requester: int, rule: int) -> _Decision:
        owner, label, depth = self._rules[rule]
        key = (owner, requester, label, depth)
        if key in self._memo:
            hops = self._memo[key]
        else:
            hops = self._memo[key] = self._walk(owner, requester, self._plan(label, depth))
            if len(self._memo) > MEMO_ENTRIES:
                del self._memo[next(iter(self._memo))]
        if isinstance(hops, tuple):
            return _Decision(True, f"reached over {label}", hops)
        return _Decision(False, "no path", ())

    def run(self) -> int:
        """One pass from an empty memo: the number of questions granted."""
        self._memo.clear()
        return sum(self._check(requester, rule).granted for requester, rule in self._queries)


class Calibrator:
    """Samples the reference kernel during a measured loop.

    :meth:`sample` runs one pass; :meth:`maybe` runs one when ``every_s``
    seconds have gone by since the last.  The totals in :meth:`state` let
    callers keep the kernel's CPU and wall time out of their own.
    """

    def __init__(self, every_s: float = 0.05) -> None:
        self.kernel = ReferenceKernel()
        self.every_s = every_s
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.passes = 0
        self._next = 0.0

    def maybe(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def sample(self) -> None:
        wall = time.perf_counter()
        cpu = time.thread_time()
        answer = self.kernel.run()
        self.cpu_s += time.thread_time() - cpu
        if answer != self.kernel.expected:
            raise RuntimeError("reference kernel gave a different answer")
        self.passes += 1
        ended = time.perf_counter()
        self._next = ended + self.every_s
        self.wall_s += ended - wall

    def state(self) -> Dict[str, float]:
        return {"ref_cpu_s": self.cpu_s, "ref_passes": self.passes, "ref_wall_s": self.wall_s}


def normalized(cpu_ms_per_op: float, ref_cpu_s: float, ref_passes: int) -> Dict[str, object]:
    """The ``norm_cpu_per_op`` block: CPU per operation in reference passes."""
    ms_per_pass = ref_cpu_s / ref_passes * 1e3
    return {"value": cpu_ms_per_op / ms_per_pass, "unit": "ref",
            "ref_ms_per_pass": ms_per_pass, "ref_passes": ref_passes}
