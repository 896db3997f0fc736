"""Table II: cost of submitting a Debuglet application to the chain.

The paper prices applications of 0 B to 10 kB on the Sui main net. The
test stores blobs of the same sizes through the real ledger (a minimal
storage contract, so exactly one object per transaction like the paper's
application object) and prints total cost and storage rebate in SUI.
"""

import pytest

from repro.chain import Contract, ExecutionContext, KeyPair, Ledger, Wallet, entry
from repro.chain.gas import sui_to_mist

#: size bytes -> (paper total SUI, paper rebate SUI)
TABLE_II = [
    (0, 0.01369, 0.00430),
    (100, 0.01585, 0.00632),
    (1000, 0.03527, 0.02456),
    (5000, 0.12160, 0.10562),
    (10000, 0.22953, 0.20696),
]


class _Store(Contract):
    """Stores one application blob per call (the paper's object model)."""

    name = "store"

    @entry
    def submit_application(self, ctx: ExecutionContext, blob: bytes) -> str:
        return ctx.create_object("application", {"bytecode": blob}).hex()


def _run_table2():
    ledger = Ledger()
    ledger.register_contract(_Store())
    keypair = KeyPair.deterministic("initiator")
    ledger.create_account(keypair, balance=sui_to_mist(100))
    wallet = Wallet(ledger, keypair)
    rows = []
    for size, paper_total, paper_rebate in TABLE_II:
        receipt = wallet.must_call("store", "submit_application", b"\x00" * size)
        rows.append(
            {
                "size": size,
                "total_sui": receipt.gas.total_sui(),
                "rebate_sui": receipt.gas.rebate_sui(),
                "paper_total": paper_total,
                "paper_rebate": paper_rebate,
            }
        )
    ledger.verify_chain()
    return rows


def test_table2():
    rows = _run_table2()

    print("\n=== Table II: application submission cost (SUI) ===")
    print("  size      total (paper)        rebate (paper)")
    for row in rows:
        print(
            f"  {row['size']:6d} B  {row['total_sui']:.5f} ({row['paper_total']:.5f})"
            f"   {row['rebate_sui']:.5f} ({row['paper_rebate']:.5f})"
        )

    for row in rows:
        # The object store adds a few bytes of key/structure overhead on
        # top of the raw blob, so allow a small absolute tolerance.
        assert row["total_sui"] == pytest.approx(row["paper_total"], abs=1e-3)
        assert row["rebate_sui"] == pytest.approx(row["paper_rebate"], abs=1e-3)

    # Costs grow linearly with size; rebate recovers most of storage.
    totals = [row["total_sui"] for row in rows]
    assert totals == sorted(totals)
