"""CSV export helpers."""

import csv

import numpy as np
import pytest

from repro.analysis.export import (
    export_directory,
    write_summary_csv,
    write_timeseries_csv,
)
from repro.netsim.packet import Protocol
from repro.netsim.trace import MeasurementTrace


def _trace(rtts_ms):
    return MeasurementTrace.from_arrays(
        Protocol.UDP, np.arange(len(rtts_ms), dtype=float), np.array(rtts_ms) * 1e-3
    )


class TestExport:
    def test_timeseries_csv(self, tmp_path):
        path = write_timeseries_csv(
            tmp_path / "series.csv", {Protocol.UDP: _trace([10.0, 11.0])}
        )
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["protocol", "send_time_s", "rtt_ms"]
        assert len(rows) == 3
        assert rows[1][0] == "UDP"
        assert float(rows[1][2]) == pytest.approx(10.0)

    def test_summary_csv(self, tmp_path):
        path = write_summary_csv(
            tmp_path / "summary.csv",
            {"frankfurt": {Protocol.UDP: _trace([10.0, 12.0])}},
        )
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[1][0] == "frankfurt"
        assert float(rows[1][4]) == pytest.approx(11.0)

    def test_export_directory_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DEBUGLET_EXPORT", str(tmp_path / "out"))
        directory = export_directory()
        assert directory is not None and directory.is_dir()

    def test_export_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("DEBUGLET_EXPORT", raising=False)
        assert export_directory() is None
