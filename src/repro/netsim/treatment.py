"""Protocol-differential forwarding treatment.

The paper's central empirical claim (§II, Table I, Fig 4) is that routers
treat packets differently depending on protocol: ICMP may ride a priority
queue, UDP may be sprayed per-packet across parallel routes, and TCP may be
dropped preferentially on congested links. A :class:`TreatmentProfile`
captures one forwarding device's (or one aggregate path's) policy as a
per-protocol :class:`ProtocolTreatment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.ecmp import HashGranularity
from repro.netsim.packet import Protocol


@dataclass(frozen=True)
class ProtocolTreatment:
    """How one protocol is handled by a forwarding device.

    - ``priority``: served from the low-backlog priority queue.
    - ``ecmp_granularity``: how the device's load balancer keys this
      protocol's traffic.
    - ``drop_multiplier``: scales congestion-drop probability (>1 means
      deprioritized under congestion, as the paper hypothesizes for TCP).
    - ``base_drop``: protocol-specific floor loss rate, independent of
      congestion (e.g. middlebox filtering of unusual protocols).
    - ``extra_delay`` / ``extra_jitter``: constant processing offset and
      additional per-packet noise for this protocol.
    """

    priority: bool = False
    ecmp_granularity: HashGranularity = HashGranularity.PER_FLOW
    drop_multiplier: float = 1.0
    base_drop: float = 0.0
    extra_delay: float = 0.0
    extra_jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.drop_multiplier < 0:
            raise ValueError("drop_multiplier must be non-negative")
        if not 0.0 <= self.base_drop <= 1.0:
            raise ValueError("base_drop must be a probability")


@dataclass
class TreatmentProfile:
    """Per-protocol treatments with a default fallback."""

    treatments: dict[Protocol, ProtocolTreatment] = field(default_factory=dict)
    default: ProtocolTreatment = field(default_factory=ProtocolTreatment)

    def for_protocol(self, protocol: Protocol) -> ProtocolTreatment:
        # An ``Enum`` hashes through Python; most profiles are uniform.
        if not self.treatments:
            return self.default
        return self.treatments.get(protocol, self.default)

    def with_treatment(
        self, protocol: Protocol, treatment: ProtocolTreatment
    ) -> "TreatmentProfile":
        """Return a copy with ``protocol``'s treatment replaced."""
        treatments = dict(self.treatments)
        treatments[protocol] = treatment
        return TreatmentProfile(treatments=treatments, default=self.default)

    @classmethod
    def uniform(cls, treatment: ProtocolTreatment | None = None) -> "TreatmentProfile":
        """Every protocol treated identically (the null hypothesis)."""
        return cls(default=treatment or ProtocolTreatment())

    @classmethod
    def typical_internet(cls) -> "TreatmentProfile":
        """A profile matching the paper's empirical observations.

        ICMP rides the priority queue (low jitter); UDP is load-balanced
        per packet (multi-modal RTT); TCP hashes per flow but is dropped
        preferentially under congestion; raw IP is stable but can see a
        small filtering floor loss.
        """
        return cls(
            treatments={
                Protocol.ICMP: ProtocolTreatment(
                    priority=True, ecmp_granularity=HashGranularity.SINGLE
                ),
                Protocol.UDP: ProtocolTreatment(
                    ecmp_granularity=HashGranularity.PER_PACKET
                ),
                Protocol.TCP: ProtocolTreatment(
                    ecmp_granularity=HashGranularity.PER_FLOW,
                    drop_multiplier=6.0,
                ),
                Protocol.RAW_IP: ProtocolTreatment(
                    priority=True,
                    ecmp_granularity=HashGranularity.SINGLE,
                    base_drop=0.0002,
                ),
            }
        )
