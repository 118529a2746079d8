"""Retired: grids run through :mod:`repro.bench` (``python -m repro.bench --grid SPEC``).

This package holds no code.  It is kept only because the benchmark's
layer map (``benchmarks/layers.py``, which changes only together with
the benchmark) still names ``sweep/``, and its test requires every
mapped path to exist; the next change to the benchmark deletes that key
and this directory together.
"""
