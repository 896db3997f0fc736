"""One ``DirectedChannel.transit`` call as one record, for tests.

``transit`` returns a bare delay (or, on a drop, the reason) because it runs
once per hop of every packet. Tests read the four facts of a transit —
delivered, delay, route index, drop reason — through :func:`outcome`.
:class:`TransitOutcome` is the record ``transit`` itself used to return,
and what the kept reference (``tests/netsim/transit_reference.py``) still
returns.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class TransitOutcome:
    """Result of pushing one packet through a channel."""

    delivered: bool
    delay: float = 0.0
    route_index: int = 0
    drop_reason: str | None = None

    @classmethod
    def dropped(cls, reason: str) -> "TransitOutcome":
        return cls(delivered=False, drop_reason=reason)


def outcome(channel, packet, t: float) -> TransitOutcome:
    """``channel.transit(packet, t)``, with the route it rode, as a record."""
    result = channel.transit(packet, t)
    if isinstance(result, str):
        return TransitOutcome.dropped(result)
    return TransitOutcome(True, result, channel.last_route_index)
