"""Gas and storage pricing, calibrated to the paper's Table II.

The paper prices Debuglet application submission on the Sui main net:
a size-independent computation component plus a storage component linear
in the object's size, with most of the storage fee rebated when the object
is later freed. Fitting Table II (sizes in kB = 1000 bytes)::

    total(B)  = 0.01369 + 2.1584e-5 * B     [SUI]
    rebate(B) = 0.00430 + 2.0266e-5 * B     [SUI]

All amounts are integers in MIST (1 SUI = 1e9 MIST) to keep ledger
arithmetic exact.
"""

from __future__ import annotations

from dataclasses import dataclass

MIST_PER_SUI = 1_000_000_000


def sui_to_mist(sui: float) -> int:
    return round(sui * MIST_PER_SUI)


def mist_to_sui(mist: int) -> float:
    return mist / MIST_PER_SUI


@dataclass(frozen=True)
class GasCost:
    """Cost breakdown of one transaction, in MIST."""

    computation: int
    storage: int
    rebate: int  # refunded when the stored objects are freed

    @property
    def total(self) -> int:
        return self.computation + self.storage

    @property
    def net_after_rebate(self) -> int:
        return self.total - self.rebate

    def total_sui(self) -> float:
        return mist_to_sui(self.total)

    def rebate_sui(self) -> float:
        return mist_to_sui(self.rebate)


# Pricing (MIST); these values reproduce Table II.
COMPUTATION_FEE = 9_390_000  # 0.00939 SUI per transaction
OBJECT_OVERHEAD_FEE = 4_300_000  # 0.00430 SUI per stored object
PER_BYTE_FEE = 21_584  # 2.1584e-5 SUI per stored byte
REBATE_OBJECT_OVERHEAD = 4_300_000  # fully rebated on free
REBATE_PER_BYTE = 20_266  # 2.0266e-5 SUI per byte rebated


def price(*, stored_bytes: int = 0, stored_objects: int = 1) -> GasCost:
    """Cost of a transaction storing ``stored_objects`` objects whose
    payloads total ``stored_bytes`` bytes."""
    if stored_bytes < 0 or stored_objects < 0:
        raise ValueError("storage amounts must be non-negative")
    storage = stored_objects * OBJECT_OVERHEAD_FEE + stored_bytes * PER_BYTE_FEE
    rebate = stored_objects * REBATE_OBJECT_OVERHEAD + stored_bytes * REBATE_PER_BYTE
    return GasCost(computation=COMPUTATION_FEE, storage=storage, rebate=rebate)


def price_reference_only() -> GasCost:
    """Cost when only a hash/link is stored on-chain (§V-B's
    optimization: ~1 cent regardless of application size)."""
    return price(stored_bytes=32 + 64, stored_objects=1)
