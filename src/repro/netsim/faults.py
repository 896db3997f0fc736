"""Fault injection with recorded ground truth.

Localization experiments need to (a) make a specific network segment
misbehave and (b) later score a localizer's verdict against what was
actually injected. :class:`FaultInjector` does both: every injection
returns a :class:`InjectedFault` carrying its ground-truth location.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.netsim.conduit import DirectedChannel, FaultOverlay
from repro.netsim.topology import InterfaceId, Topology


class FaultKind(enum.Enum):
    CONGESTION = "congestion"
    LOSS = "loss"
    DELAY = "delay"
    BLACKHOLE = "blackhole"


@dataclass(frozen=True)
class FaultLocation:
    """Ground-truth location of a fault.

    Either an inter-domain link (both interfaces set) or an AS interior
    (``asn`` set, interfaces ``None``).
    """

    asn: int | None = None
    link: tuple[InterfaceId, InterfaceId] | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.link is not None:
            return f"link {self.link[0]}<->{self.link[1]}"
        return f"AS {self.asn} interior"


@dataclass
class InjectedFault:
    """A fault that was injected, with enough detail to score localizers."""

    kind: FaultKind
    location: FaultLocation
    start: float
    end: float
    magnitude: float
    overlays: list[tuple[DirectedChannel, FaultOverlay]]
    revoked: bool = False

    def revoke(self) -> None:
        """Remove the fault's effects from all channels. Idempotent.

        :meth:`DirectedChannel.remove_overlay` removes by *identity*: a
        twin fault built from identical parameters keeps its own (equal,
        frozen) overlay.
        """
        if self.revoked:
            return
        self.revoked = True
        for channel, overlay in self.overlays:
            channel.remove_overlay(overlay)


class FaultInjector:
    """Injects faults into a topology's channels."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.injected: list[InjectedFault] = []

    def _link_channels(
        self, a: InterfaceId, b: InterfaceId, *, directions: str = "both"
    ) -> list[DirectedChannel]:
        channels = []
        if directions in ("both", "forward"):
            channels.append(self.topology.channel_between(a, b))
        if directions in ("both", "reverse"):
            channels.append(self.topology.channel_between(b, a))
        return channels

    def _as_internal_channels(self, asn: int) -> list[DirectedChannel]:
        asys = self.topology.autonomous_system(asn)
        interfaces = sorted(asys.routers)
        points = [f"if{i}" for i in interfaces] + [asys.interior_attachment()]
        channels = []
        for src in points:
            for dst in points:
                if src != dst:
                    channels.append(asys.internal_channel(src, dst))
        return channels

    def _inject(
        self,
        kind: FaultKind,
        location: FaultLocation,
        channels: list[DirectedChannel],
        overlay_template: FaultOverlay,
        magnitude: float,
    ) -> InjectedFault:
        overlays = []
        for channel in channels:
            channel.add_overlay(overlay_template)
            overlays.append((channel, overlay_template))
        fault = InjectedFault(
            kind=kind,
            location=location,
            start=overlay_template.start,
            end=overlay_template.end,
            magnitude=magnitude,
            overlays=overlays,
        )
        self.injected.append(fault)
        return fault

    # ------------------------------------------------------------- links

    def link_loss(
        self,
        a: InterfaceId,
        b: InterfaceId,
        *,
        loss: float,
        start: float,
        end: float,
        directions: str = "both",
    ) -> InjectedFault:
        """Extra loss probability on the inter-domain link a<->b."""
        overlay = FaultOverlay(start=start, end=end, extra_loss=loss)
        return self._inject(
            FaultKind.LOSS,
            FaultLocation(link=(a, b)),
            self._link_channels(a, b, directions=directions),
            overlay,
            loss,
        )

    def link_delay(
        self,
        a: InterfaceId,
        b: InterfaceId,
        *,
        extra_delay: float,
        start: float,
        end: float,
        jitter: float = 0.0,
        directions: str = "both",
    ) -> InjectedFault:
        """Extra (congestion-like) delay on the link a<->b."""
        overlay = FaultOverlay(
            start=start, end=end, extra_delay=extra_delay, extra_jitter=jitter
        )
        return self._inject(
            FaultKind.DELAY,
            FaultLocation(link=(a, b)),
            self._link_channels(a, b, directions=directions),
            overlay,
            extra_delay,
        )

    def link_blackhole(
        self, a: InterfaceId, b: InterfaceId, *, start: float, end: float,
        directions: str = "both",
    ) -> InjectedFault:
        """Total outage on the link a<->b."""
        overlay = FaultOverlay(start=start, end=end, blackhole=True)
        return self._inject(
            FaultKind.BLACKHOLE,
            FaultLocation(link=(a, b)),
            self._link_channels(a, b, directions=directions),
            overlay,
            1.0,
        )

    # ------------------------------------------------------- AS interiors

    def as_internal_delay(
        self, asn: int, *, extra_delay: float, start: float, end: float,
        jitter: float = 0.0,
    ) -> InjectedFault:
        """Extra delay inside AS ``asn`` (all interior channels)."""
        overlay = FaultOverlay(
            start=start, end=end, extra_delay=extra_delay, extra_jitter=jitter
        )
        return self._inject(
            FaultKind.DELAY,
            FaultLocation(asn=asn),
            self._as_internal_channels(asn),
            overlay,
            extra_delay,
        )

    def as_internal_loss(
        self, asn: int, *, loss: float, start: float, end: float
    ) -> InjectedFault:
        """Extra loss inside AS ``asn``."""
        overlay = FaultOverlay(start=start, end=end, extra_loss=loss)
        return self._inject(
            FaultKind.LOSS,
            FaultLocation(asn=asn),
            self._as_internal_channels(asn),
            overlay,
            loss,
        )

    def revoke_all(self) -> None:
        for fault in self.injected:
            fault.revoke()
        self.injected.clear()
