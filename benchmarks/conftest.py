"""Shared helpers for the benchmark harness.

Each ``bench_fig*.py`` regenerates one figure of the paper: it runs
the corresponding :mod:`repro.experiments` module once under
pytest-benchmark (``rounds=1`` — these are experiments, not
microbenchmarks) and prints the paper-comparable tables.  Run with::

    pytest benchmarks/ --benchmark-only -s

The printed blocks are the paper-comparable tables that
``python -m repro.experiments <target>`` prints (README, "Running
experiments").
"""

from __future__ import annotations

import pytest


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under the benchmark clock."""
    def runner(func):
        return benchmark.pedantic(func, rounds=1, iterations=1)
    return runner
