"""Gas schedule: the Table II calibration."""

import pytest

from repro.chain.gas import (
    OBJECT_OVERHEAD_FEE,
    mist_to_sui,
    price,
    price_reference_only,
    sui_to_mist,
)

#: The paper's Table II: size (bytes) -> (total SUI, storage rebate SUI).
TABLE_II = {
    0: (0.01369, 0.00430),
    100: (0.01585, 0.00632),
    1000: (0.03527, 0.02456),
    5000: (0.12160, 0.10562),
    10000: (0.22953, 0.20696),
}


class TestTableIICalibration:
    @pytest.mark.parametrize("size,expected", sorted(TABLE_II.items()))
    def test_total_cost_matches_paper(self, size, expected):
        cost = price(stored_bytes=size)
        assert cost.total_sui() == pytest.approx(expected[0], abs=2e-5)

    @pytest.mark.parametrize("size,expected", sorted(TABLE_II.items()))
    def test_rebate_matches_paper(self, size, expected):
        cost = price(stored_bytes=size)
        assert cost.rebate_sui() == pytest.approx(expected[1], abs=2e-5)

    def test_rebate_never_exceeds_total(self):
        for size in (0, 1, 100, 10_000, 1_000_000):
            cost = price(stored_bytes=size)
            assert 0 <= cost.rebate < cost.total


class TestSchedule:
    def test_cost_linear_in_bytes(self):
        c1 = price(stored_bytes=1000).total
        c2 = price(stored_bytes=2000).total
        c3 = price(stored_bytes=3000).total
        assert c3 - c2 == c2 - c1

    def test_multiple_objects_charged(self):
        one = price(stored_bytes=0, stored_objects=1)
        two = price(stored_bytes=0, stored_objects=2)
        assert two.total - one.total == OBJECT_OVERHEAD_FEE

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            price(stored_bytes=-1)

    def test_reference_only_storage_is_about_a_cent(self):
        # §V-B: storing only a hash + link keeps fees ~1 cent
        # (0.94 USD/SUI in the paper, so ~0.015 SUI).
        cost = price_reference_only()
        assert cost.total_sui() < 0.02

    def test_net_after_rebate(self):
        cost = price(stored_bytes=1000)
        assert cost.net_after_rebate == cost.total - cost.rebate


class TestUnits:
    def test_mist_roundtrip(self):
        assert mist_to_sui(sui_to_mist(1.5)) == pytest.approx(1.5)
        assert sui_to_mist(1.0) == 1_000_000_000
