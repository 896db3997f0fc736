"""The ping baseline: ICMP echo measurement.

The tool the paper argues is *insufficient*: it measures how the network
treats ICMP, which §II shows can differ substantially from the treatment
of the UDP/TCP data traffic being debugged. Provided as a comparator for
the motivation experiments and the baseline benches.
"""

from __future__ import annotations

from repro.netsim.endhost import Host
from repro.netsim.packet import Address, Protocol
from repro.netsim.trace import MeasurementTrace
from repro.netsim.traffic import ProbeTrain


class Ping:
    """Classic ping: ICMP echo requests at a fixed interval."""

    def __init__(
        self,
        client: Host,
        target: Address,
        *,
        count: int = 10,
        interval: float = 1.0,
    ) -> None:
        self._train = ProbeTrain(
            client,
            target,
            Protocol.ICMP,
            count=count,
            interval=interval,
            start=0.0,
            label=f"ping {target}",
        )

    def finalize(self) -> MeasurementTrace:
        """Call after the simulator has drained the probe schedule."""
        return self._train.finalize()


def ping_sync(
    client: Host,
    target: Address,
    **kwargs,
) -> MeasurementTrace:
    """Run a ping to completion (pumps the simulator) and return the trace."""
    ping = Ping(client, target, **kwargs)
    client.network.simulator.run_until_idle()
    return ping.finalize()
