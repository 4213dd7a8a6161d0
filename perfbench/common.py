"""Helpers shared by the workloads: statistics, samplers, inputs, host facts.

Everything here is pure Python over the standard library, so the helper
tests in ``perfbench/tests`` run without building a graph.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import os
import platform
import random
import subprocess
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

#: The ~8 path expressions shared by every workload's rules and queries.
EXPRESSIONS: Tuple[str, ...] = (
    "friend+[1]",
    "friend+[1,2]",
    "friend+[1,2]/colleague+[1]",
    "colleague+[1,2]",
    "friend+[1]/colleague+[1]",
    "parent+[1]/friend+[1]",
    "colleague*[1,2]",
    "friend*[1,2]",
)

#: Seed of every workload's dataset (graph, rules, churn trace, key pools
#: and their popularity order): the ``WorkloadSpec`` default.  ``--seed``
#: drives the traffic over it, so run-to-run spread measures the program on
#: one dataset, not the spread between random graphs and hot-key sets.
DATASET_SEED = 7

#: Share of generated checks (and reach questions) whose answer is a grant.
GRANT_SHARE = 0.3

#: ``GraphService``'s default per-backend memo capacity.
DEFAULT_MEMO_ENTRIES = 4096

#: A request sent more than this long after its due time counts as late.
LATE_AFTER_S = 0.002


# ------------------------------------------------------------------ stats


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank above the nearest-rank ``q`` percentile."""
    return count - max(1, math.ceil(q * count))


def tail(values: Sequence[float]) -> Tuple[Optional[float], Optional[str]]:
    """The highest of p99 and p90 that has at least ten samples beyond it.

    Returns ``(value, "p99" | "p90")``, or ``(None, None)`` when even p90
    has fewer than ten samples beyond it (fewer than 100 samples).
    """
    for q, label in ((0.99, "p99"), (0.90, "p90")):
        if samples_beyond(len(values), q) >= 10:
            return percentile(values, q), label
    return None, None


def sliced_tail(
    values: Sequence[float], slices: int = 3
) -> Tuple[Optional[float], Optional[str]]:
    """The tail of :func:`tail`, as the median over consecutive slices.

    ``values`` are in the order they were measured.  When each of
    ``slices`` equal consecutive slices still has ten samples beyond the
    percentile the whole sample supports, the result is the median of the
    slices' percentiles, so one burst (a collector pause, a noisy
    neighbour) moves one slice and not the result.  Otherwise it is the
    percentile of the whole sample.
    """
    whole, label = tail(values)
    if label is None:
        return None, None
    q = 0.99 if label == "p99" else 0.90
    size = len(values) // slices
    if slices < 2 or samples_beyond(size, q) < 10:
        return whole, label
    parts = sorted(percentile(values[i * size:(i + 1) * size], q) for i in range(slices))
    return parts[(slices - 1) // 2] if slices % 2 else percentile(parts, 0.5), label


def latency_block(seconds: Sequence[float]) -> Dict[str, object]:
    """p50 and tail of a latency sample (seconds, in measured order), in ms."""
    if not seconds:
        return {"p50_ms": None, "tail_ms": None, "tail_percentile": None, "samples": 0}
    tail_value, label = sliced_tail(seconds)
    return {
        "p50_ms": percentile(seconds, 0.5) * 1e3,
        "tail_ms": None if tail_value is None else tail_value * 1e3,
        "tail_percentile": label,
        "samples": len(seconds),
    }


def ratio(numerator: float, base: float) -> Dict[str, float]:
    """A ratio reported with its base count (0 when the base is empty)."""
    return {"value": numerator / base if base else 0.0, "base": base}


def open_loop_accounting(
    due: Sequence[float],
    sent: Sequence[Optional[float]],
    done: Sequence[Optional[float]],
    *,
    late_after: float = LATE_AFTER_S,
) -> Dict[str, object]:
    """Latencies timed from each request's due time, plus generator lateness.

    ``due``, ``sent`` and ``done`` are aligned per request on one clock.
    A request never sent or never answered has no latency and counts in
    ``unanswered``.  Timing from the due time charges a stalled generator
    or server for the wait it imposes on every later request.
    """
    latencies: List[Optional[float]] = []
    lateness: List[float] = []
    unanswered = 0
    for due_at, sent_at, done_at in zip(due, sent, done):
        if sent_at is not None:
            lateness.append(max(0.0, sent_at - due_at))
        if sent_at is None or done_at is None:
            latencies.append(None)
            unanswered += 1
        else:
            latencies.append(done_at - due_at)
    late = sum(1 for value in lateness if value > late_after)
    return {
        "latencies": latencies,
        "unanswered": unanswered,
        "late_share": late / len(lateness) if lateness else 0.0,
        "max_late_ms": max(lateness) * 1e3 if lateness else 0.0,
        "sent": len(lateness),
    }


# --------------------------------------------------------------- samplers


class ZipfSampler:
    """Seeded Zipf sampler over ranks ``0 .. n-1`` (rank 0 most popular)."""

    def __init__(self, n: int, exponent: float, rng: random.Random) -> None:
        if n < 1:
            raise ValueError("ZipfSampler needs at least one rank")
        self._rng = rng
        total = 0.0
        self._cumulative: List[float] = []
        for rank in range(1, n + 1):
            total += rank ** -exponent
            self._cumulative.append(total)

    def sample(self) -> int:
        point = self._rng.random() * self._cumulative[-1]
        return min(bisect.bisect_right(self._cumulative, point), len(self._cumulative) - 1)


class GrantDenySampler:
    """Draws ``(key, expected)`` pairs with a fixed grant share.

    Each draw first decides grant or deny with probability ``share``, then
    picks a key from that pool: Zipf-skewed by rank when ``exponent`` is
    given, uniform otherwise.  Deciding the share per draw, not per key,
    keeps the grant share of the *requests* at ``share`` however the
    popular ranks fall.
    """

    def __init__(
        self,
        grants: Sequence[Hashable],
        denies: Sequence[Hashable],
        share: float,
        rng: random.Random,
        *,
        exponent: Optional[float] = None,
    ) -> None:
        if not grants or not denies:
            raise ValueError("both the grant and the deny pool must be non-empty")
        self._pools = (list(denies), list(grants))
        self._share = share
        self._rng = rng
        self._zipf = (
            None
            if exponent is None
            else tuple(ZipfSampler(len(pool), exponent, rng) for pool in self._pools)
        )

    def draw(self) -> Tuple[Hashable, bool]:
        granted = self._rng.random() < self._share
        pool = self._pools[granted]
        if self._zipf is None:
            index = self._rng.randrange(len(pool))
        else:
            index = self._zipf[granted].sample()
        return pool[index], granted


def split_keys(
    resources: Sequence[Tuple[str, Hashable, Tuple[str, ...]]],
    audiences: Dict[str, set],
    users: Sequence[Hashable],
    rng: random.Random,
) -> Tuple[List[Tuple[str, Hashable]], List[Tuple[str, Hashable]]]:
    """Every grant ``(resource, requester)`` pair, and four times as many denies.

    Grants are the members of each resource's authorized audience other
    than its owner (the owner is granted without a traversal).  Denies pair
    each resource with uniformly drawn users outside its audience.  Both
    lists come back shuffled by ``rng``.
    """
    owner_of = {resource_id: owner for resource_id, owner, _exprs in resources}
    grants = [
        (resource_id, user)
        for resource_id, _owner, _exprs in resources
        for user in sorted(audiences[resource_id], key=str)
        if user != owner_of[resource_id]
    ]
    rng.shuffle(grants)
    denies: List[Tuple[str, Hashable]] = []
    seen = set()
    resource_ids = [resource_id for resource_id, _owner, _exprs in resources]
    target = max(len(grants), 1) * 4
    while len(denies) < target:
        resource_id = rng.choice(resource_ids)
        user = rng.choice(users)
        key = (resource_id, user)
        if user in audiences[resource_id] or key in seen:
            continue
        seen.add(key)
        denies.append(key)
    return grants, denies


# ------------------------------------------------------------ host facts


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def source_digest(root: Path) -> str:
    """sha1 over ``src/`` (paths and bytes): names the code measured."""
    digest = hashlib.sha1()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit(root: Path) -> Optional[str]:
    """The checked-out commit, or ``None`` outside a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def host_block(root: Path) -> Dict[str, object]:
    return {
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit(root),
        "src_sha1": source_digest(root),
    }


# ------------------------------------------------------------ peak memory


def reset_peak_rss() -> bool:
    """Reset this process's resident high-water mark (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Resident high-water mark in MiB since start or the last reset."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
