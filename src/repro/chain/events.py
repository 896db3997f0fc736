"""Contract events and subscriptions.

The marketplace notifies executors of purchased slots and initiators of
ready results through events (§IV-C). Subscribers filter on the event name
and on attribute equality — e.g. an executor subscribes to
``ApplicationSubmitted`` events whose ``(asn, interface)`` match its own.

Dispatch is indexed (DESIGN.md §10): each subscription is filed under its
most selective equality filter, so publishing costs the size of the few
matching buckets instead of a scan over every live subscription — the
difference between O(sessions) and O(1) per event once a load generator
holds tens of thousands of ``ResultReady`` subscriptions at once.
Candidates are dispatched in subscription order (a per-subscription
sequence number), so the indexed bus is observably identical to the old
linear scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class Event:
    """One emitted event."""

    name: str
    attributes: tuple[tuple[str, Any], ...]
    tx_digest: bytes
    sequence: int
    emitted_at: float

    def get(self, key: str, default: Any = None) -> Any:
        for attr_key, value in self.attributes:
            if attr_key == key:
                return value
        return default

    def as_dict(self) -> dict[str, Any]:
        return dict(self.attributes)


EventCallback = Callable[[Event], None]

#: Filter keys preferred as index keys, most selective first. Session
#: subscriptions filter on ``application_id`` (unique per purchase), which
#: beats vantage-point keys like ``asn`` shared by every session there.
_PREFERRED_INDEX_KEYS = ("application_id",)


@dataclass
class _Subscription:
    name: str
    filters: dict[str, Any]
    callback: EventCallback
    active: bool = True
    seq: int = 0
    index_key: tuple | None = field(default=None, repr=False)

    def matches(self, event: Event) -> bool:
        if not self.active or event.name != self.name:
            return False
        attributes = event.as_dict()
        return all(attributes.get(k) == v for k, v in self.filters.items())


class EventBus:
    """Dispatches events to matching subscribers; keeps full history."""

    def __init__(self) -> None:
        self._next_seq = 0
        # Subscriptions filed under (name, filter_key, filter_value) when
        # they carry an indexable equality filter, else under name alone.
        self._filtered: dict[tuple[str, str, Any], list[_Subscription]] = {}
        self._unfiltered: dict[str, list[_Subscription]] = {}
        self.history: list[Event] = []

    @staticmethod
    def _pick_index_field(filters: dict[str, Any]) -> tuple[str, Any] | None:
        """The most selective hashable, non-None equality filter, if any."""
        for key in _PREFERRED_INDEX_KEYS:
            value = filters.get(key)
            if value is not None:
                try:
                    hash(value)
                except TypeError:
                    continue
                return key, value
        for key in sorted(filters):
            value = filters[key]
            if value is None:
                continue
            try:
                hash(value)
            except TypeError:
                continue
            return key, value
        return None

    def subscribe(
        self, name: str, callback: EventCallback, **filters: Any
    ) -> _Subscription:
        subscription = _Subscription(name, filters, callback, seq=self._next_seq)
        self._next_seq += 1
        picked = self._pick_index_field(filters)
        if picked is None:
            subscription.index_key = (name,)
            self._unfiltered.setdefault(name, []).append(subscription)
        else:
            key, value = picked
            subscription.index_key = (name, key, value)
            self._filtered.setdefault((name, key, value), []).append(subscription)
        return subscription

    def unsubscribe(self, subscription: _Subscription) -> None:
        subscription.active = False
        key = subscription.index_key
        if key is None:
            return
        subscription.index_key = None
        if len(key) == 1:
            bucket = self._unfiltered.get(key[0])
            registry, registry_key = self._unfiltered, key[0]
        else:
            bucket = self._filtered.get(key)
            registry, registry_key = self._filtered, key
        if bucket is not None:
            try:
                bucket.remove(subscription)
            except ValueError:
                pass
            if not bucket:
                del registry[registry_key]

    def publish(self, event: Event) -> int:
        """Record and dispatch; returns the number of subscribers hit."""
        self.history.append(event)
        candidates = list(self._unfiltered.get(event.name, ()))
        for attr_key, value in event.attributes:
            try:
                bucket = self._filtered.get((event.name, attr_key, value))
            except TypeError:  # unhashable attribute value
                continue
            if bucket:
                candidates.extend(bucket)
        # Buckets are disjoint (each subscription is filed once), so this
        # sort alone restores global subscription order — dispatch is
        # byte-for-byte the order the old linear scan produced.
        candidates.sort(key=lambda subscription: subscription.seq)
        hits = 0
        for subscription in candidates:
            if subscription.matches(event):
                subscription.callback(event)
                hits += 1
        return hits

    def subscription_count(self) -> int:
        """Live subscriptions (diagnostics for stall reports)."""
        return sum(len(b) for b in self._unfiltered.values()) + sum(
            len(b) for b in self._filtered.values()
        )

    def events_named(self, name: str) -> list[Event]:
        return [event for event in self.history if event.name == name]
