"""Every packet fate of the event engine against what the parent of the
compiled forwarding plan produced (``tests/netsim/event_golden.py`` says
what is recorded and how to check or regenerate it). A mismatch names the
cells that moved.
"""

import pytest

from tests.netsim import event_golden


@pytest.fixture(scope="module")
def golden():
    return event_golden.load()


@pytest.mark.parametrize("probes", event_golden.TABLE1_PROBES)
@pytest.mark.parametrize("seed", event_golden.TABLE1_SEEDS)
def test_every_table1_cell(golden, seed, probes):
    """24 cells on six shared channel pairs: RTT arrays and loss counts."""
    expected = golden[f"table1/{seed}/{probes}"]
    assert len(expected) == 24
    assert event_golden.moved(event_golden.table1_cells(seed, probes), expected) == []


def test_a_sandboxed_localization_on_pinned_paths(golden):
    """The ``dataplane_event`` shape: overlays, pinned trails, VM fuel."""
    expected = golden[f"localize/{event_golden.LOCALIZE_SEED}"]
    assert event_golden.moved(event_golden.localization(), expected) == []
