"""Fig 7: the smart-contract execution model, end to end.

Walks the three panels of the paper's figure — (a) executors register and
offer slots, (b) the initiator looks up and purchases with embedded
tokens, (c) executors run and report, collecting payment — over the real
ledger, and prints the gas spent and token movement at each step.
"""

from repro.chain.gas import COMPUTATION_FEE, mist_to_sui
from repro.core.marketplace import (
    REQUEST_BANDWIDTH_MBPS,
    REQUEST_CORES,
    REQUEST_MEMORY_MB,
)
from repro.core.results import EchoMeasurement
from repro.core.verification import ChainVerifier
from repro.workloads.scenarios import MarketplaceTestbed

COUNT = 15
#: Average gas per call, in SUI, as EXPERIMENTS.md's Fig 7 section quotes
#: it; the test asserts each, so the document cannot drift from the code.
QUOTED_GAS_SUI = {
    "register_executor": "0.00939",
    "register_time_slot": "0.00939",
    "lookup_slot": "0.00939",
    "purchase_slot": "0.12146",
    "result_ready": "0.03498",
    "lookup_result": "0.00939",
}


def _run_lifecycle():
    testbed = MarketplaceTestbed.build(3, seed=23)
    session = testbed.request_echo(count=COUNT, port=8650)
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    return testbed, session


def _lookups_as_transactions(testbed, session):
    """Panels (b) LookupSlot and (c) LookupResult submitted as transactions.

    The initiator serves both with ``Ledger.read``, which records nothing;
    the entries stay callable as transactions, and that is what Fig 7
    prices. Returns ``{function: (receipt, the read's answer)}``."""
    plan = session.plan
    wallet = testbed.initiator.wallet
    calls = {
        "lookup_slot": (
            *plan.client_vantage, *plan.server_vantage, REQUEST_CORES,
            REQUEST_MEMORY_MB, REQUEST_BANDWIDTH_MBPS, plan.duration,
            testbed.ledger.now,
        ),
        "lookup_result": (session.client_application,),
    }
    return {
        function: (
            wallet.must_call("debuglet_market", function, *args),
            wallet.read("debuglet_market", function, *args),
        )
        for function, args in calls.items()
    }


def test_fig7_contract_lifecycle():
    testbed, session = _run_lifecycle()

    ledger = testbed.ledger
    assert not {"lookup_slot", "lookup_result"} & {
        tx.function for tx in ledger.transactions
    }
    lookups = _lookups_as_transactions(testbed, session)
    receipts = ledger.receipts
    print("\n=== Fig 7: marketplace lifecycle on the ledger ===")
    step_names = {
        "register_executor": "(a) RegisterExecutor",
        "register_time_slot": "(a) RegisterTimeSlot",
        "lookup_slot": "(b) LookupSlot",
        "purchase_slot": "(b) PurchaseSlot",
        "result_ready": "(c) ResultReady",
        "lookup_result": "(c) LookupResult",
    }
    by_function: dict[str, list] = {}
    for tx, receipt in zip(ledger.transactions, receipts):
        by_function.setdefault(tx.function, []).append(receipt)
    gas_sui = {}
    for function, label in step_names.items():
        rs = by_function.get(function, [])
        if not rs:
            continue
        gas = sum(r.gas.total for r in rs) / len(rs)
        gas_sui[function] = f"{mist_to_sui(gas):.5f}"
        print(f"  {label:<24} calls={len(rs):2d} avg gas={gas_sui[function]} SUI")

    paid = f"{mist_to_sui(session.total_price):.3f}"
    print(f"  escrowed & paid out: {paid} SUI")
    print(f"  events: {[e.name for e in ledger.events.history]}")
    assert gas_sui == QUOTED_GAS_SUI
    assert paid == "0.100"

    # A lookup pays the flat computation fee and stores nothing; as a
    # transaction it answers exactly what the initiator's read answered.
    for receipt, answer in lookups.values():
        assert receipt.gas.total == COMPUTATION_FEE
        assert receipt.return_value == answer

    # Both sides completed and the payment moved through escrow.
    assert session.done
    assert ledger.contract_balances["debuglet_market"] == 0
    echo = EchoMeasurement.from_result(session.client_outcome.result, probes_sent=COUNT)
    assert echo.received == COUNT
    # Any third party can verify the published results and the chain.
    verifier = ChainVerifier(ledger, testbed.market)
    verifier.verify_result(session.client_application)
    verifier.verify_result(session.server_application)
    ledger.verify_chain()
