"""Benchmark of the multibrot package: workloads, reference outputs and tracing.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md``.
"""
