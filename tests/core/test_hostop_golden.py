"""Every host op through the executor against what the program produced
before the host ops became one table (``tests/core/hostop_golden.py`` says
what is recorded and how to check or regenerate it). A mismatch names the
records that moved.
"""

import pytest

from tests.core import hostop_golden


@pytest.fixture(scope="module")
def golden():
    return hostop_golden.load()


@pytest.mark.parametrize("pair", hostop_golden.PAIRS)
def test_pair_transcripts_results_and_counters(golden, pair):
    """Interaction logs, result bytes, fuel, audit replay, op counters."""
    expected = golden[f"runs/{pair}"]
    assert hostop_golden.moved(hostop_golden.run_pair(pair), expected) == []


def test_chaos_marketplace_exports(golden):
    """The JSONL and Prometheus bytes of the same-seed chaos run."""
    expected = golden[f"chaos/{hostop_golden.CHAOS_SEED}"]
    assert hostop_golden.moved(hostop_golden.chaos_exports(), expected) == []
