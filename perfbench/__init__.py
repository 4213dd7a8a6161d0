"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run one workload from the repository root::

    python3 perfbench/run.py --workload point_checks --seed 1 --seconds 10 --trace 0

See ``perfbench/run.py`` for the output contract and ``perfbench/layers.py``
for which per-layer metric should move which end-to-end metric.
"""
