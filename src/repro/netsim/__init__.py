"""Packet-level inter-domain network simulator.

This subpackage is the testbed substrate for the Debuglet reproduction: a
deterministic discrete-event simulator whose forwarding devices apply
*protocol-differential treatment* (priority queues, ECMP granularity,
congestion-coupled drops), the phenomenon the paper's motivation study
(§II) measures on the real Internet.
"""

from repro.netsim.conduit import DirectedChannel, FaultOverlay, Link
from repro.netsim.congestion import (
    Burst,
    CongestionConfig,
    CongestionProcess,
    calm_congestion,
)
from repro.netsim.ecmp import EcmpGroup, HashGranularity, Route, evenly_spread, single_route
from repro.netsim.endhost import Host, Socket
from repro.netsim.engine import EventHandle, Simulator
from repro.netsim.faults import FaultInjector, FaultKind, FaultLocation, InjectedFault
from repro.netsim.internet import (
    GaoRexfordRouter,
    InternetConfig,
    InternetTopology,
    Relation,
    generate_internet,
)
from repro.netsim.network import Network, NetworkStats
from repro.netsim.packet import Address, IcmpType, Packet, Protocol
from repro.netsim.routechurn import (
    RouteChurnProcess,
    RouteShift,
    no_churn,
)
from repro.netsim.topology import (
    AutonomousSystem,
    BorderRouter,
    InterfaceId,
    PathHop,
    Topology,
)
from repro.netsim.trace import MeasurementTrace
from repro.netsim.traffic import (
    MultiProtocolProber,
    OneWayProbeTrain,
    ProbeTrain,
    TrafficMatrix,
)
from repro.netsim.treatment import ProtocolTreatment, TreatmentProfile

__all__ = [
    "Address",
    "AutonomousSystem",
    "BorderRouter",
    "Burst",
    "CongestionConfig",
    "CongestionProcess",
    "DirectedChannel",
    "EcmpGroup",
    "EventHandle",
    "FaultInjector",
    "FaultKind",
    "FaultLocation",
    "FaultOverlay",
    "GaoRexfordRouter",
    "HashGranularity",
    "Host",
    "IcmpType",
    "InjectedFault",
    "InterfaceId",
    "InternetConfig",
    "InternetTopology",
    "Link",
    "MeasurementTrace",
    "MultiProtocolProber",
    "Network",
    "NetworkStats",
    "OneWayProbeTrain",
    "Packet",
    "PathHop",
    "ProbeTrain",
    "Protocol",
    "ProtocolTreatment",
    "Relation",
    "Route",
    "RouteChurnProcess",
    "RouteShift",
    "Simulator",
    "Socket",
    "Topology",
    "TrafficMatrix",
    "TreatmentProfile",
    "calm_congestion",
    "evenly_spread",
    "generate_internet",
    "no_churn",
    "single_route",
]
