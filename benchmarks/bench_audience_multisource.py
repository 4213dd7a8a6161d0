"""PERF-7 — multi-source owner-bitset audience sweep vs a per-owner loop.

The baseline is the property harnesses' reference: one
:meth:`~repro.reachability.bfs.OnlineBFSEvaluator.find_targets` product walk
per owner, so on frontier-heavy expressions every owner re-expands nearly
the same neighbourhood.  The multi-source sweep (``audience_sweep``) keeps
an owner bitmask per ``(node, state)`` slot and propagates *new* bits only,
so overlapping owner frontiers are traversed once; a direction planner
additionally chooses between sweeping forward from the owners and backward
from the whole vertex set over the reversed automaton.

The experiment measures, on the 5000-user scalability graph (300 users in
``BENCH_SMOKE=1`` mode, the CI smoke job), for each expression and owner
count:

1. the per-owner ``find_targets`` loop (baseline);
2. the multi-source sweep pinned forward and pinned reverse;
3. the planner's ``auto`` choice (the acceptance row: >= 3x over the
   baseline at 5000 users with >= 64 owners).

Every timing is the median of ``REPEATS`` runs; the artifact records the
interquartile range next to it, plus the host's usable CPUs and Python
version.

A second experiment exercises the planner's **reverse arm** for real (the
ROADMAP open item): a huge-owner-set workload — audiences for 25% / 50% /
100% of the vertex set at once — over an expression whose forward first step
fans out hard (``friend*``) into a selective final label (``parent``).
Reversed, the rare label becomes the *first* step and prunes the frontier
immediately; as the owner set approaches |V| the forward sweep's only
advantage (narrower owner masks) vanishes, and the planner must flip to
``reverse`` at the 100% row.

All variants must materialize identical audiences.  Artifacts:
``benchmarks/results/BENCH_audience_multisource_loop.json`` and
``perf7_audience_multisource_loop.txt`` (``BENCH_audience_multisource.json``
and ``perf7_audience_multisource.txt`` are the earlier runs against the
since-removed per-owner bytearray sweep, kept as history).  Runnable
directly:
``PYTHONPATH=src python benchmarks/bench_audience_multisource.py``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path

from repro.graph.compiled import compile_graph
from repro.graph.generators import preferential_attachment_graph
from repro.policy.path_expression import PathExpression
from repro.reachability.bfs import OnlineBFSEvaluator
from repro.reachability.compiled_search import AutomatonCache, audience_sweep

RESULTS_DIR = Path(__file__).resolve().parent / "results"

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
SIZE = 300 if SMOKE else 5000
OWNER_COUNTS = (16,) if SMOKE else (64, 128, 256)
REPEATS = 1 if SMOKE else 3

#: Frontier-heavy audience policies — the shapes the ROADMAP open item named
#: (`*`-direction walks, deep friend balls) with the selective accepts real
#: rules have (a rare final label, an attribute threshold).  Per owner the
#: product walk explores a large, heavily shared neighbourhood and accepts a
#: modest audience, which is exactly where per-owner re-expansion hurts.
EXPRESSIONS = (
    "friend*[1,4]{age >= 60}",
    "friend+[1,5]/parent+[1]",
    "friend*[1,4]/colleague+[1]",
    "friend*[1,3]/parent+[1]{age >= 40}",
)

#: Full-size acceptance floor for the planner's auto choice at >= 64 owners.
SPEEDUP_TARGET = 3.0

#: The reverse-arm workload: a hub-heavy ``*`` walk into a rare final label.
#: Reversed (``parent-[1]/friend*[1,3]``) the selective label leads, so a
#: whole-vertex-set owner batch is cheaper to sweep backwards.
REVERSE_ARM_EXPRESSION = "friend*[1,3]/parent+[1]"

#: Owner-set sizes for the reverse-arm experiment, as fractions of |V|.
REVERSE_ARM_FRACTIONS = (0.25, 0.5, 1.0)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _timed(function):
    """``(median seconds, IQR seconds, last result)`` over ``REPEATS`` runs."""
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = function()
        samples.append(time.perf_counter() - started)
    if len(samples) > 1:
        low, _mid, high = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        low = high = samples[0]
    return statistics.median(samples), high - low, result


def run_benchmark() -> dict:
    graph = preferential_attachment_graph(SIZE, edges_per_node=3, seed=71)
    snapshot = compile_graph(graph)
    automata = AutomatonCache()
    oracle = OnlineBFSEvaluator(graph)
    node_count = snapshot.number_of_nodes()
    user_of = snapshot.node_ids

    def users(audience):
        return {user_of[node] for node in audience}

    # Owners are the active users whose audiences are worth materializing in
    # bulk — the highest-degree hubs.  Their frontiers overlap the most,
    # which is the regime the multi-source sweep exists for (and the regime
    # where the per-owner loop degrades linearly).
    by_degree = sorted(
        range(node_count),
        key=lambda node: -(snapshot.out_degree(node) + snapshot.in_degree(node)),
    )

    rows = []
    for text in EXPRESSIONS:
        expression = PathExpression.parse(text)
        automaton = automata.get(expression, snapshot)
        for owner_count in OWNER_COUNTS:
            owners = by_degree[: min(owner_count, node_count)]

            loop_seconds, loop_iqr, looped = _timed(
                lambda: [oracle.find_targets(user_of[node], expression) for node in owners]
            )
            forward_seconds, forward_iqr, forward = _timed(
                lambda: audience_sweep(snapshot, automaton, owners, direction="forward")
            )
            reverse_seconds, reverse_iqr, reverse = _timed(
                lambda: audience_sweep(snapshot, automaton, owners, direction="reverse")
            )
            auto_seconds, auto_iqr, auto = _timed(
                lambda: audience_sweep(snapshot, automaton, owners)
            )

            # Every variant must materialize identical audiences.
            for name, sweep in (("forward", forward), ("reverse", reverse), ("auto", auto)):
                got = [users(audience) for audience in sweep.audiences]
                assert got == looped, (text, owner_count, name)

            rows.append(
                {
                    "expression": text,
                    "owners": len(owners),
                    "audience_nodes": sum(len(a) for a in looped),
                    "loop_seconds": loop_seconds,
                    "loop_iqr": loop_iqr,
                    "forward_seconds": forward_seconds,
                    "forward_iqr": forward_iqr,
                    "reverse_seconds": reverse_seconds,
                    "reverse_iqr": reverse_iqr,
                    "auto_seconds": auto_seconds,
                    "auto_iqr": auto_iqr,
                    "auto_direction": auto.plan.direction,
                    "planned_forward_cost": auto.plan.forward_cost,
                    "planned_reverse_cost": auto.plan.reverse_cost,
                    "speedup_auto": loop_seconds / auto_seconds,
                    "speedup_forward": loop_seconds / forward_seconds,
                    "speedup_reverse": loop_seconds / reverse_seconds,
                }
            )

    # ---- reverse-arm experiment: huge owner sets, selective first step ----
    expression = PathExpression.parse(REVERSE_ARM_EXPRESSION)
    automaton = automata.get(expression, snapshot)
    reverse_rows = []
    for fraction in REVERSE_ARM_FRACTIONS:
        owners = by_degree[: max(1, int(node_count * fraction))]
        forward_seconds, _forward_iqr, forward = _timed(
            lambda: audience_sweep(snapshot, automaton, owners, direction="forward")
        )
        auto_seconds, _auto_iqr, auto = _timed(
            lambda: audience_sweep(snapshot, automaton, owners)
        )
        reference = [set(audience) for audience in forward.audiences]
        assert [set(a) for a in auto.audiences] == reference, fraction
        reverse_rows.append(
            {
                "expression": REVERSE_ARM_EXPRESSION,
                "owners": len(owners),
                "fraction": fraction,
                "forward_seconds": forward_seconds,
                "auto_seconds": auto_seconds,
                "auto_direction": auto.plan.direction,
                "planned_forward_cost": auto.plan.forward_cost,
                "planned_reverse_cost": auto.plan.reverse_cost,
            }
        )

    return {
        "experiment": "PERF-7 multi-source owner-bitset audience sweep",
        "baseline": "per-owner OnlineBFSEvaluator.find_targets loop",
        "smoke": SMOKE,
        "usable_cpus": _usable_cpus(),
        "python": platform.python_version(),
        "repeats": REPEATS,
        "users": graph.number_of_users(),
        "relationships": graph.number_of_relationships(),
        "owner_counts": list(OWNER_COUNTS),
        "speedup_target": SPEEDUP_TARGET,
        "rows": rows,
        "reverse_arm_rows": reverse_rows,
    }


def _format_table(summary: dict) -> str:
    lines = [
        "PERF-7 — multi-source owner-bitset audience sweep vs per-owner loop",
        f"graph: {summary['users']} users, {summary['relationships']} relationships"
        + (" (SMOKE)" if summary["smoke"] else ""),
        f"host: {summary['usable_cpus']} usable cpu(s), Python {summary['python']}; "
        f"median of {summary['repeats']} run(s)",
        "",
        f"{'expression':<28} {'owners':>6} {'loop s':>10} {'multi s':>8} "
        f"{'speedup':>8} {'plan':>8}",
        "-" * 74,
    ]
    for row in summary["rows"]:
        lines.append(
            f"{row['expression']:<28} {row['owners']:>6} "
            f"{row['loop_seconds']:>10.3f} {row['auto_seconds']:>8.3f} "
            f"{row['speedup_auto']:>7.1f}x {row['auto_direction']:>8}"
        )
    lines += [
        "",
        "reverse arm — huge owner sets over a selective-first-step expression:",
        f"{'expression':<28} {'owners':>6} {'forward s':>10} {'auto s':>8} {'plan':>8}",
        "-" * 66,
    ]
    for row in summary["reverse_arm_rows"]:
        lines.append(
            f"{row['expression']:<28} {row['owners']:>6} "
            f"{row['forward_seconds']:>10.3f} {row['auto_seconds']:>8.3f} "
            f"{row['auto_direction']:>8}"
        )
    return "\n".join(lines)


def _meets_target(summary: dict) -> bool:
    relevant = [row for row in summary["rows"] if row["owners"] >= 64]
    return bool(relevant) and all(
        row["speedup_auto"] >= SPEEDUP_TARGET for row in relevant
    )


def _planner_flips_to_reverse(summary: dict) -> bool:
    """The whole-vertex-set owner batch must be planned as a reverse sweep."""
    full = [row for row in summary["reverse_arm_rows"] if row["fraction"] == 1.0]
    return bool(full) and all(row["auto_direction"] == "reverse" for row in full)


def test_multisource_sweep_beats_the_per_owner_loop():
    summary = run_benchmark()
    table = _format_table(summary)
    print()
    print(table)
    assert _planner_flips_to_reverse(summary), summary["reverse_arm_rows"]
    if SMOKE:
        return  # agreement already asserted; ratios are noise at smoke size
    assert _meets_target(summary), summary["rows"]


if __name__ == "__main__":
    import sys

    summary = run_benchmark()
    table = _format_table(summary)
    print()
    print(table)
    if not SMOKE:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_audience_multisource_loop.json").write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
        (RESULTS_DIR / "perf7_audience_multisource_loop.txt").write_text(
            table + "\n", encoding="utf-8"
        )
    sys.exit(
        0
        if (_planner_flips_to_reverse(summary) and (summary["smoke"] or _meets_target(summary)))
        else 1
    )
