"""Harness of the précis benchmark: workloads, reference-loop
normalization, answer checking and the traced per-layer split.

Run it through ``precisbench/run.py``; see ``precisbench/README.md``.
"""
