"""Run one workload of the repository benchmark and print its result.

Usage, from the repository root::

    python3 perfbench/run.py --workload {served_mix,point_checks,churn_community} \\
        --seed N --seconds S --trace {0,1}

The workload builds its inputs from ``--seed`` (the same seed gives the same
inputs), measures for ``--seconds`` seconds and checks every answer against
a twin replay.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
splits the measured time into an untraced half and a traced half and
reports the per-layer metrics of the traced half plus
``trace.overhead_share``.

Output: a human-readable JSON block (host, inputs, every end-to-end metric
of the workload with unit and sample count, per-layer metrics with their
base counts), then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the metrics ``BENCHMARK.json``
lists for the chosen ``--trace``).  The full result and, for traced runs,
the spans are also written under ``.perfbench_out/``.  Exits 1 when an
answer was wrong, 2 when the tree holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("served_mix", "point_checks", "churn_community")


def _load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    # Never rewrite the byte-code caches of the tree being measured.
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    for path in (str(ROOT / "src"), str(BENCH_DIR.parent)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench import layers
    from perfbench.common import host_block

    contract = _load_contract()
    if args.workload == "point_checks":
        from perfbench import point_checks as workload
    elif args.workload == "churn_community":
        from perfbench import churn_community as workload
    else:
        from perfbench import served_mix as workload

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = workload.run(args.seed, args.seconds, bool(args.trace))

    tracer = result.pop("tracer", None)
    if tracer is not None:
        result["spans_file"] = str(Path(".perfbench_out") / f"{stem}-spans.jsonl.gz")
        result["spans_written"] = tracer.dump(ROOT / result["spans_file"])
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_block(ROOT),
        **result,
    }
    if args.trace:
        result["layer_map"] = layers.layer_map()
        wanted = contract["per_layer"]
        source = result["per_layer"]["metrics"]
    else:
        wanted = contract["end_to_end"]
        source = result["end_to_end"]
    metrics = {
        entry["name"]: {"value": source[entry["name"]]["value"], "unit": entry["unit"]}
        for entry in wanted
    }
    text = json.dumps(result, indent=1, default=str)
    (out_dir / f"{stem}.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
