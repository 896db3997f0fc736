"""Result archiving and age-of-information analysis (§VI-F).

The paper: immediate diagnostics need fresh results, but *historical*
measurements over a fixed path help identify **when** a degradation
started and where. Archiving does not need to be on-chain — "blockchain
explorers or network information monitoring sites could retain
measurements... and the hash of measurements would be stored on the chain
for verifiability purposes."

This module implements exactly that split:

- :class:`ArchiveContract` — a tiny contract storing only
  ``(segment key, measured-at, sha256)`` anchor objects;
- :class:`ResultArchive` — the off-chain retention site holding the full
  measurement records, each verifiable against its on-chain anchor;
- :func:`degradation_onset` — the trend analysis the paper motivates:
  given an archived RTT history, find the time the path started degrading.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.chain.contract import Contract, ExecutionContext, entry
from repro.chain.ledger import Ledger, Wallet
from repro.common.errors import DebugletError, VerificationError
from repro.common.serialize import canonical_encode

ANCHOR_KIND = "measurement_anchor"

#: Leading archived measurements averaged into :func:`degradation_onset`'s
#: baseline.
BASELINE_COUNT = 3
#: Loss rate above which :func:`degradation_onset` calls an entry degraded.
LOSS_THRESHOLD = 0.05


class ArchiveContract(Contract):
    """On-chain anchors for off-chain measurement archives."""

    name = "result_archive"

    def __init__(self) -> None:
        super().__init__()
        self.state = {"anchors": {}}  # segment key -> [anchor object hex]

    @entry
    def anchor(
        self, ctx: ExecutionContext, segment_key: str, measured_at: float,
        digest: bytes,
    ) -> str:
        """Record the hash of one archived measurement."""
        ctx.require(len(digest) == 32, "digest must be 32 bytes")
        anchor_id = ctx.create_object(
            ANCHOR_KIND,
            {
                "segment": segment_key,
                "measured_at": measured_at,
                "digest": digest,
                "archivist": ctx.sender,
            },
        )
        self.state["anchors"].setdefault(segment_key, []).append(anchor_id.hex())
        ctx.emit("MeasurementAnchored", segment=segment_key, anchor=anchor_id.hex())
        return anchor_id.hex()

    def anchors_for(self, segment_key: str) -> list[str]:
        """Off-chain read of the anchor index."""
        return list(self.state["anchors"].get(segment_key, []))


@dataclass(frozen=True)
class ArchivedMeasurement:
    """One retained measurement of one path segment."""

    segment_key: str
    measured_at: float
    mean_rtt_ms: float
    loss_rate: float
    result: bytes  # the raw certified result bytes

    def digest(self) -> bytes:
        return hashlib.sha256(
            canonical_encode(
                {
                    "segment": self.segment_key,
                    "measured_at": self.measured_at,
                    "mean_rtt_ms": self.mean_rtt_ms,
                    "loss_rate": self.loss_rate,
                    "result": self.result,
                }
            )
        ).digest()


class ResultArchive:
    """The off-chain retention site, anchored to the chain per entry."""

    def __init__(self, ledger: Ledger, contract: ArchiveContract, wallet: Wallet) -> None:
        self.ledger = ledger
        self.contract = contract
        self.wallet = wallet
        self._entries: dict[str, ArchivedMeasurement] = {}  # anchor hex -> entry

    def archive(self, measurement: ArchivedMeasurement) -> str:
        """Retain ``measurement`` off-chain and anchor its hash on-chain.

        Returns the anchor object ID (hex) — the handle a verifier uses.
        """
        receipt = self.wallet.must_call(
            self.contract.name,
            "anchor",
            measurement.segment_key,
            measurement.measured_at,
            measurement.digest(),
        )
        anchor_hex = receipt.return_value
        self._entries[anchor_hex] = measurement
        return anchor_hex

    def fetch(self, anchor_hex: str) -> ArchivedMeasurement:
        entry_value = self._entries.get(anchor_hex)
        if entry_value is None:
            raise DebugletError(f"archive holds no entry for anchor {anchor_hex}")
        return entry_value

    def verify(self, anchor_hex: str) -> ArchivedMeasurement:
        """Check the retained entry against its on-chain anchor."""
        measurement = self.fetch(anchor_hex)
        from repro.common.ids import ObjectId

        anchor_obj = self.ledger.objects.get(ObjectId.from_hex(anchor_hex))
        if anchor_obj.kind != ANCHOR_KIND:
            raise VerificationError("anchor object has wrong kind")
        if anchor_obj.data["digest"] != measurement.digest():
            raise VerificationError("archived entry does not match its anchor")
        if anchor_obj.data["segment"] != measurement.segment_key:
            raise VerificationError("anchor names a different segment")
        return measurement

    def history(self, segment_key: str) -> list[ArchivedMeasurement]:
        """All retained measurements of a segment, oldest first.

        Each entry is checked against its on-chain anchor — tampered
        retention is surfaced, not returned.
        """
        entries = []
        for anchor_hex in self.contract.anchors_for(segment_key):
            if anchor_hex not in self._entries:
                continue  # retained elsewhere or expired (off-chain is best effort)
            entries.append(self.verify(anchor_hex))
        entries.sort(key=lambda e: e.measured_at)
        return entries

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class OnsetReport:
    """When a segment's performance started degrading."""

    onset_at: float | None
    baseline_rtt_ms: float
    degraded_rtt_ms: float | None

    @property
    def degradation_detected(self) -> bool:
        return self.onset_at is not None


def degradation_onset(
    history: list[ArchivedMeasurement],
    *,
    rtt_slack_ms: float = 3.0,
) -> OnsetReport:
    """Find the first archived measurement where the segment degraded.

    The baseline is the mean of the first :data:`BASELINE_COUNT` entries;
    the onset is the first later entry whose RTT exceeds baseline +
    ``rtt_slack_ms`` or whose loss exceeds :data:`LOSS_THRESHOLD`.
    """
    if len(history) < BASELINE_COUNT + 1:
        raise DebugletError(
            f"need more than {BASELINE_COUNT} archived measurements"
        )
    baseline = float(
        np.mean([entry.mean_rtt_ms for entry in history[:BASELINE_COUNT]])
    )
    for entry in history[BASELINE_COUNT:]:
        if entry.mean_rtt_ms > baseline + rtt_slack_ms or entry.loss_rate > LOSS_THRESHOLD:
            return OnsetReport(
                onset_at=entry.measured_at,
                baseline_rtt_ms=baseline,
                degraded_rtt_ms=entry.mean_rtt_ms,
            )
    return OnsetReport(onset_at=None, baseline_rtt_ms=baseline, degraded_rtt_ms=None)
