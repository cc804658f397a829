"""The repository benchmark: seeded workloads driven through the public API.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads, the metrics and the traced mode.
"""
