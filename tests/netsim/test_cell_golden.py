"""Every array of three fixed cell sets against hashes recorded at the
parent of the batch kernel (``tests/netsim/cell_golden.py`` says what is
in them and how to regenerate), for the kernel in ``src/`` and for the kept
per-cell reference alike. A mismatch names the cells that moved.
"""

import pytest

from repro.netsim.fastpath import simulate_cell_batch
from tests.netsim import cell_golden
from tests.netsim.cell_reference import reference_cell_arrays


@pytest.fixture(scope="module")
def golden():
    return cell_golden.load()


def moved(actual, expected):
    """Names (or positions) whose hash differs from the golden."""
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected)
        return [name for name in expected if actual[name] != expected[name]]
    assert len(actual) == len(expected)
    return [i for i, (a, e) in enumerate(zip(actual, expected)) if a != e]


@pytest.mark.parametrize("seed", cell_golden.CAMPAIGN_SEEDS)
@pytest.mark.parametrize("workers", [0, 2], ids=["serial", "2-workers"])
def test_every_campaign_cell(golden, seed, workers):
    """Epoch-sized batches inline, a region's share of them per pool task."""
    hashes = cell_golden.campaign_hashes(seed, workers=workers)
    assert moved(hashes, golden[f"campaign/{seed}"]) == []


def test_every_table1_cell(golden):
    """24 cells of 2 000 probes: blocks of eight rows, every ragged extra."""
    hashes = cell_golden.table1_hashes()
    assert moved(hashes, golden[f"table1/{cell_golden.TABLE1_SEED}"]) == []


class TestHandBuilt:
    @pytest.fixture(scope="class")
    def cells(self):
        return cell_golden.handbuilt_cells()

    def test_one_at_a_time(self, golden):
        assert moved(cell_golden.handbuilt_hashes(), golden["handbuilt"]) == []

    def test_as_one_batch(self, golden, cells):
        """Mixed counts, depths 0 to 10, every feature in one call."""
        arrays = simulate_cell_batch(list(cells.values()))
        hashes = {
            name: cell_golden.array_hash(*pair) for name, pair in zip(cells, arrays)
        }
        assert moved(hashes, golden["handbuilt"]) == []

    def test_the_kept_reference(self, golden, cells):
        """The golden was recorded with this kernel's arithmetic; adapting
        how it reads a cell must not have changed a bit of it."""
        hashes = {
            name: cell_golden.array_hash(*reference_cell_arrays(cell))
            for name, cell in cells.items()
        }
        assert moved(hashes, golden["handbuilt"]) == []
