"""Shared benchmark helpers.

Every bench regenerates one of the paper's tables or figures. Benches run
the underlying experiment exactly once (``benchmark.pedantic`` with one
round) because each is a full simulation; the interesting output is the
printed table/series, not the wall-clock time distribution.

Set ``DEBUGLET_FULL=1`` to run the §II experiments at the paper's original
scale (86 400 one-per-second probes — minutes of wall time); the default
is scaled down while preserving the measurement window structure.
"""

import os

import pytest

FULL_SCALE = os.environ.get("DEBUGLET_FULL", "") == "1"


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its value."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def once(benchmark):
    def runner(fn):
        return run_once(benchmark, fn)

    return runner
