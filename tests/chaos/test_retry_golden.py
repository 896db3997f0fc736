"""The retry schedule, pinned: every backoff delay of the chaos demos.

A transient ledger outage is retried after ``RETRY_BASE * 2**k`` seconds
plus a uniform jitter draw from the retrying object's own seeded stream
(``repro.core.marketplace.backoff``). Nothing else pins those delays: the
lifecycle tests check which states a session walks through, not when.
This golden stores, for ``run_chaos_demo`` with each of its five faults,
the time of every state transition (as ``float.hex``), the session's
``purchase_retries`` and the server agent's ``publication_retries``. No
demo makes the agent retry, so a sixth case refuses the server's
transactions for the first 4 s of its window: its ``result_ready`` is
retried on the agent's own stream until the certified time moves. The golden was
recorded before the two backoff sites became one function; a changed
base, a changed doubling, or one jitter draw more or fewer moves a time.
The sixth case's ``certified`` instant moved once, by 20 µs, when each
channel's draws split into one stream per kind: its measurement ends at
another instant, while each of its four backoff delays stayed bit-identical.

Regenerate (only if numpy changes its ``Generator`` streams) with
``PYTHONPATH=src python -m tests.chaos.test_retry_golden``.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos import ChaosInjector
from repro.workloads import demos
from repro.workloads.scenarios import SERVER_VANTAGE, MarketplaceTestbed

FAULTS = ("crash", "drop", "delay", "txfail", "expiry")
CASES = FAULTS + ("publish-outage",)

GOLDEN: dict[str, dict] = {
    "crash": {
        "states": [
            ["0x0.0p+0", "pending"],
            ["0x0.0p+0", "purchased"],
            ["0x1.ccccccccccccdp-1", "running"],
            ["0x1.4733333333333p+5", "timed-out"],
            ["0x1.4733333333333p+5", "pending"],
            ["0x1.4733333333333p+5", "purchased"],
            ["0x1.c200000000000p+7", "running"],
            ["0x1.c9d2122fad6cbp+7", "certified"],
        ],
        "purchase_retries": 0,
        "publication_retries": 0,
    },
    "drop": {
        "states": [
            ["0x0.0p+0", "pending"],
            ["0x0.0p+0", "purchased"],
            ["0x1.ccccccccccccdp-1", "running"],
            ["0x1.4733333333333p+5", "timed-out"],
            ["0x1.4733333333333p+5", "pending"],
            ["0x1.4733333333333p+5", "purchased"],
            ["0x1.c200000000000p+7", "running"],
            ["0x1.c9d2122fad6cbp+7", "certified"],
        ],
        "purchase_retries": 0,
        "publication_retries": 0,
    },
    "delay": {
        "states": [
            ["0x0.0p+0", "pending"],
            ["0x0.0p+0", "purchased"],
            ["0x1.ccccccccccccdp-1", "running"],
            ["0x1.1266666666666p+5", "certified"],
        ],
        "purchase_retries": 0,
        "publication_retries": 0,
    },
    "txfail": {
        "states": [
            ["0x0.0p+0", "pending"],
            ["0x1.a054a5ff1d32cp+1", "purchased"],
            ["0x1.09c3ec992832fp+2", "running"],
            ["0x1.0203ff69014b6p+3", "certified"],
        ],
        "purchase_retries": 4,
        "publication_retries": 0,
    },
    "expiry": {
        "states": [
            ["0x0.0p+0", "pending"],
            ["0x0.0p+0", "purchased"],
            ["0x1.ccccccccccccdp-1", "running"],
            ["0x1.4733333333333p+5", "timed-out"],
            ["0x1.4733333333333p+5", "refunded"],
        ],
        "purchase_retries": 0,
        "publication_retries": 0,
    },
    "publish-outage": {
        "states": [
            ["0x0.0p+0", "pending"],
            ["0x0.0p+0", "purchased"],
            ["0x1.ccccccccccccdp-1", "running"],
            ["0x1.77af1c697c340p+2", "certified"],
        ],
        "purchase_retries": 0,
        "publication_retries": 4,
    },
}


def _fingerprint(session, server_agent) -> dict:
    return {
        "states": [[t.hex(), state.value] for t, state in session.state_history],
        "purchase_retries": session.purchase_retries,
        "publication_retries": server_agent.publication_retries,
    }


def _publish_outage() -> dict:
    testbed = MarketplaceTestbed.build(n_ases=3, seed=1)
    simulator = testbed.chain.simulator
    server_agent = testbed.agents[SERVER_VANTAGE]
    session = testbed.request_echo(count=30, deadline_margin=10.0)
    ChaosInjector(simulator, testbed.ledger, seed=1).fail_transactions(
        start=session.window_start,
        end=session.window_start + 4.0,
        sender=server_agent.wallet.address,
    )
    testbed.initiator.run_until_done(session, simulator, timeout=900.0)
    return _fingerprint(session, server_agent)


def record(case: str) -> dict:
    """One run's retry-schedule fingerprint."""
    if case == "publish-outage":
        return _publish_outage()
    # The demo returns its session, not its testbed: keep the testbed it
    # builds to read the server agent's counter.
    built: list[MarketplaceTestbed] = []
    original = MarketplaceTestbed.build.__func__

    def build(cls, *args, **kwargs):
        built.append(original(cls, *args, **kwargs))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MarketplaceTestbed, "build", classmethod(build))
        run = demos.run_chaos_demo(case)
    return _fingerprint(run.session, built[0].agents[SERVER_VANTAGE])


@pytest.mark.parametrize("case", CASES)
def test_retry_schedule_matches_golden(case):
    assert record(case) == GOLDEN[case]


if __name__ == "__main__":
    print(json.dumps({case: record(case) for case in CASES}, indent=1))
