"""End-to-end and per-layer benchmark of the fia CLI.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads, the metrics and the oracle.
"""
