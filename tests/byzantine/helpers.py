"""Assertion helpers for the Byzantine adversarial battery (§11).

The battery's scenario builders — staked testbeds with an on-chain
auditor, seeded corruptions, echo sessions, and the audit pass — are
:mod:`repro.workloads.demos`'s, shared with ``repro audit-demo``. Its
central discipline: **run every session to completion first, audit
afterwards** — the first conviction bars the slashed executor from
publishing (``result_ready`` refuses), which would wedge its
still-pending sessions mid-test.
"""

from __future__ import annotations


def convicted_vantages(convictions) -> set:
    return {tuple(c["vantage"]) for c in convictions}


def mechanisms(convictions) -> set:
    return {c["mechanism"] for c in convictions}


def market_key(vantage) -> str:
    return f"{vantage[0]}:{vantage[1]}"
