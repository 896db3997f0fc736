"""Vectorized fast path for open-loop probe studies.

The §II motivation experiments push millions of probes through
:meth:`DirectedChannel.transit`, paying several heap events and 2–4 scalar
RNG calls per packet. For *open-loop* probe trains — a fixed send schedule
with no feedback, exactly the :class:`~repro.netsim.traffic.MultiProtocolProber`
shape — every per-packet quantity is an independent function of the send
time, so an entire train can be simulated as numpy array operations, and a
*batch* of trains as the same operations on ``(cell, probe)`` arrays.

**A cell** (:class:`ProbeCell`) is a train's schedule, its seed, and its
round trip as packed rows: one row of :data:`STAGE_WIDTH` floats per
channel traversal, holding what :meth:`DirectedChannel.transit` would read
for the probe's protocol and addresses, plus :class:`StageExtras` (bursts,
churn shifts, overlay windows, a per-packet ECMP route table) on the few
stages that have any. :func:`_stage_from_channel` is the one statement of
what a row holds. :func:`extract_probe_cell` (the §II study, over the event
engine's trails) calls it per traversal; :func:`extract_segment_cell` (a
campaign's measurements) reads channels through the topology's
:class:`StageTable` — extraction costs per *channel state*, not per
traversal — and cuts the cell out of it as ``rows[stage ids]``. Either way
the cell is a self-contained picklable value: a ten-stage cell pickles to
about 1.5 KB.

**The kernel** (:func:`simulate_cell_batch`) is stage-synchronous: cells of
equal probe count travel together, a block of at most ``2**14 // count``
at a time, deepest first, and stage ``k`` of every cell still travelling is
one round of array operations, the per-stage numbers read as ``(cells, 1)``
columns. A window (overlay, burst, churn shift) costs a row nothing unless
some probe of the row can be inside it *at that stage*: the row's first and
last arrival are taken once, a window that ends at or before the first or
starts after the last is not evaluated (every term it feeds is an exact
``+ 0.0``), one that covers both is applied as a scalar. The trap: an
overlay with ``extra_jitter`` draws its normal whether or not its window is
active, so a skipped one still draws — in the delay section, in overlay
order, where ``tests/netsim/cell_reference.py`` draws it — or every later
draw of the cell moves. :func:`simulate_cell_arrays` is the batch of one.
Who calls the kernel with how many cells: an epoch of a campaign inline
(:meth:`~repro.core.fastprobe.FastSegmentProber.measure_batch`), one client
region's share of an epoch per pool task, one cell per task in the §II
study (:mod:`repro.perf.parallel`).

**Contracts.** *Bit-identical:* a cell's arrays are a pure function of the
cell — batched ≡ one at a time ≡ the per-cell kernel this one replaced
(kept as ``tests/netsim/cell_reference.py``), whatever the batch, the order
or the process, because each cell draws from its own
``default_rng(cell.seed)`` in a fixed order and every element sees the
same IEEE operations (``tests/properties/test_prop_cell_kernel.py``; golden
hashes from the parent commit in ``tests/netsim/``). Serial ≡ sharded
campaigns rest on this. *Statistical:* :func:`simulate_cell`'s
per-protocol mean/std/loss match the event-driven reference within
sampling tolerance (``tests/properties/test_prop_fastpath.py``) — never
bit-identical, the streams differ. The fast path deliberately skips two
effects that are negligible for paper-style probing and documented in
DESIGN.md:

- the Lindley self-queueing term (probe interarrival ≫ transmission time
  for one-per-second 64-byte probes on multi-Gbps channels), and
- sub-RTT drift of the congestion/churn evaluation instant (processes
  vary over minutes-to-hours; a probe crosses a channel in milliseconds).

Fault overlays are vectorized as time-window masks (:class:`OverlayWindow`).
What the array model cannot reproduce is *refused* with
:class:`FastPathUnsupported` — flowlet ECMP, a destination that does not
echo the protocol, a path with missing interfaces. Nothing in the library
catches it: the request fails loudly rather than being mis-simulated, and
measuring it on the event-driven reference instead is the caller's
decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import derive_seed
from repro.netsim.conduit import DirectedChannel
from repro.netsim.ecmp import HashGranularity
from repro.netsim.packet import Address, Packet, Protocol
from repro.netsim.trace import MeasurementTrace

DAY = 86400.0


class FastPathUnsupported(SimulationError):
    """The scenario uses a feature the vectorized path cannot reproduce.

    A refusal, not a fallback: it propagates to whoever chose the fast
    path (no driver retries the request on the event engine).
    """


@dataclass(frozen=True)
class OverlayWindow:
    """Picklable snapshot of a protocol-filtered :class:`FaultOverlay`.

    Fault overlays are *time windows*: a probe is only affected when its
    traversal instant falls inside ``[start, end)``. That makes them
    vectorizable with boolean masks, which is what lets the fast path run
    localization campaigns, where injected faults are the point of the
    workload.
    """

    start: float
    end: float
    extra_delay: float = 0.0
    extra_loss: float = 0.0
    blackhole: bool = False
    extra_jitter: float = 0.0


#: Columns of a packed stage row: everything one channel traversal
#: contributes that is a plain number, already resolved for the probe's
#: protocol and addresses. ``BACKLOG_FRACTION`` is 1.0 off the priority
#: queue; ``FIXED_DELAY`` is propagation + transmission; on a fixed route
#: ``ROUTE_OFFSET`` / ``JITTER_SCALE`` include the selected route's offset
#: and jitter, under per-packet ECMP they hold 0.0 / the channel's own
#: jitter and the route table is in the stage's :class:`StageExtras`.
(
    UTILIZATION,
    AMPLITUDE,
    PHASE,
    SERVICE_TIME,
    QUEUE_SHAPE,
    BACKLOG_FRACTION,
    DROP_THRESHOLD,
    DROP_SCALE,
    BASE_DROP,
    DROP_MULTIPLIER,
    FIXED_DELAY,
    ROUTE_OFFSET,
    EXTRA_DELAY,
    JITTER_SCALE,
) = range(14)
STAGE_WIDTH = 14

Window = tuple[float, float, float]  # (start, end, value while active)


@dataclass(frozen=True)
class StageExtras:
    """The ragged part of a stage; only stages that have any carry one."""

    bursts: tuple[Window, ...] = ()  # utilization bursts, natural + injected
    churn: tuple[Window, ...] = ()  # route-churn delay shifts
    overlays: tuple[OverlayWindow, ...] = ()
    #: Per-packet ECMP: (cumulative weights, delay offsets, jitters), one
    #: entry per route; ``None`` when the route is fixed for the train.
    routes: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True, eq=False)
class ProbeCell:
    """One (probe train) cell: schedule plus its round-trip stages.

    ``stages`` is a ``(traversals, STAGE_WIDTH)`` float array, one packed
    row per channel traversal in forwarding order; ``extras`` lists
    ``(stage index, StageExtras)`` for the stages that have ragged parts.
    A small picklable value: this is what crosses the process boundary.
    """

    label: str
    protocol: Protocol
    count: int
    interval: float
    start: float
    timeout: float
    seed: int
    stages: np.ndarray
    extras: tuple[tuple[int, StageExtras], ...] = ()


#: One channel traversal as extracted: its packed row, its extras if any.
Traversal = tuple[tuple[float, ...], "StageExtras | None"]


# --------------------------------------------------------------- extraction


def _stage_from_channel(channel: DirectedChannel, packet: Packet) -> Traversal:
    """``channel`` as ``packet`` would cross it: one packed row, plus extras.

    Reads exactly what :meth:`DirectedChannel.transit` reads for the same
    packet (treatment, priority-address rewrite, ECMP group and selection,
    transmission time); extras are ``None`` unless the channel has bursts,
    churn shifts or overlays that apply to the protocol, or sprays it per
    packet.
    """
    protocol = packet.protocol
    treatment = channel.treatment.for_protocol(protocol)
    priority, drop_multiplier = treatment.priority, treatment.drop_multiplier
    if channel.priority_addresses and (
        packet.src in channel.priority_addresses
        or packet.dst in channel.priority_addresses
    ):
        priority, drop_multiplier = True, 0.0

    ecmp = channel.ecmp_for(protocol)
    granularity = treatment.ecmp_granularity
    routes = None
    route_offset = route_jitter = 0.0
    if granularity is HashGranularity.PER_PACKET and len(ecmp) > 1:
        total = sum(route.weight for route in ecmp.routes)
        cumulative = np.cumsum([route.weight / total for route in ecmp.routes])
        cumulative[-1] = 1.0
        routes = (
            cumulative,
            np.array([route.delay_offset for route in ecmp.routes]),
            np.array([route.jitter for route in ecmp.routes]),
        )
    elif granularity is HashGranularity.PER_FLOWLET and len(ecmp) > 1:
        raise FastPathUnsupported(
            f"channel {channel.name}: flowlet ECMP is time-dependent"
        )
    else:
        # SINGLE always picks route 0; PER_FLOW / PER_DEST hash quantities
        # that are constant across an open-loop train, so the event-driven
        # selection is a fixed index we can compute exactly.
        route = ecmp.routes[ecmp.select(packet, 0.0, granularity)]
        route_offset, route_jitter = route.delay_offset, route.jitter

    congestion = channel.congestion
    config = congestion.config
    row = (
        config.base_utilization,
        config.diurnal_amplitude,
        config.diurnal_phase,
        config.queue_service_time,
        config.queue_shape,
        config.priority_backlog_fraction if priority else 1.0,
        config.drop_threshold,
        config.drop_scale,
        treatment.base_drop,
        drop_multiplier,
        channel.base_delay + channel.transmission_time(packet.size),
        route_offset,
        treatment.extra_delay,
        channel.jitter_std + treatment.extra_jitter + route_jitter,
    )
    bursts: tuple = ()
    churn: tuple = ()
    overlays: tuple = ()
    if congestion._bursts or congestion._extra:
        bursts = tuple(
            (burst.start, burst.end, burst.magnitude)
            for burst in (congestion._bursts + congestion._extra)
        )
    if channel.churn.shifts:
        churn = tuple(
            (shift.start, shift.end, shift.delta)
            for shift in channel.churn.shifts
            if shift.protocols is None or protocol in shift.protocols
        )
    if channel.overlays:
        overlays = tuple(
            OverlayWindow(
                start=o.start,
                end=o.end,
                extra_delay=o.extra_delay,
                extra_loss=o.extra_loss,
                blackhole=o.blackhole,
                extra_jitter=o.extra_jitter,
            )
            for o in channel.overlays
            if o.protocols is None or protocol in o.protocols
        )
    if bursts or churn or overlays or routes is not None:
        return row, StageExtras(bursts, churn, overlays, routes)
    return row, None


def _pack_cell(traversals: list[Traversal], **schedule) -> ProbeCell:
    """The cell whose round trip is ``traversals``, in forwarding order."""
    return ProbeCell(
        stages=np.array([row for row, _ in traversals], dtype=np.float64).reshape(
            -1, STAGE_WIDTH
        ),
        extras=tuple(
            (index, extras)
            for index, (_, extras) in enumerate(traversals)
            if extras is not None
        ),
        **schedule,
    )


def extract_probe_cell(
    network,
    client,
    server_address,
    protocol: Protocol,
    *,
    count: int,
    interval: float,
    start: float,
    size: int = 64,
    timeout: float = 5.0,
    src_port: int = 0,
    dst_port: int = 7,
    seed: int = 0,
    label: str = "",
) -> ProbeCell:
    """Snapshot one echo-probe train as a vectorizable :class:`ProbeCell`.

    Walks the same trails the event-driven path would use (probe out,
    echo reply back) and converts every traversed channel into one packed
    stage row. Raises :class:`FastPathUnsupported` when the scenario
    relies on effects only the event-driven path models.
    """
    if count <= 0:
        raise ConfigurationError("probe count must be positive")
    if interval <= 0:
        raise ConfigurationError("probe interval must be positive")
    server_host = network.hosts.get(server_address)
    if server_host is None:
        raise FastPathUnsupported(f"no host at {server_address}")
    if protocol not in server_host.echo_protocols:
        raise FastPathUnsupported(
            f"{server_address} does not echo {protocol.name}"
        )
    probe = Packet(
        src=client.address,
        dst=server_address,
        protocol=protocol,
        size=size,
        src_port=src_port,
        dst_port=dst_port,
    )
    reply = probe.reply_to()
    stages = []
    for packet in (probe, reply):
        trail = network._build_trail(packet, None)
        for segment in trail:
            stages.append(_stage_from_channel(segment.channel, packet))
    return _pack_cell(
        stages,
        label=label,
        protocol=protocol,
        count=count,
        interval=interval,
        start=start,
        timeout=timeout,
        seed=seed,
    )


class _StageEntry:
    """One channel in a :class:`StageTable`: its stage id, the handle, the
    :meth:`DirectedChannel.state_stamp` the tabled row was read at (``None``
    while none is), and for a link the ``(asn, interface)`` it arrives at."""

    __slots__ = ("stage", "channel", "stamp", "peer")

    def __init__(self, stage: int, channel: DirectedChannel, peer) -> None:
        self.stage = stage
        self.channel = channel
        self.stamp = None
        self.peer = peer


class StageTable:
    """Every channel of one topology as probes of one ``(protocol, size)``
    would cross it, read once per channel state.

    Packed rows live in one growing ``(capacity, STAGE_WIDTH)`` array with
    each stage's :class:`StageExtras` (or ``None``) beside it; a stage id
    indexes both. Entries are keyed by what a pinned path names, as plain
    ints — ``(asn, egress)`` for the link leaving an interface, ``(asn,
    in, out)`` for the interior channel between two interfaces — so a hit
    builds no ``InterfaceId`` and no attachment string and hashes no
    ``Enum``. A link's entry remembers the ``(asn, interface)`` it arrives
    at; a different peer is a miss, so :meth:`Topology.link_channel` states
    the error.

    A hit is one dict lookup and one stamp comparison. Everything else goes
    through :func:`_stage_from_channel`, the one statement of what a row
    holds, and is either tabled or — when the row depends on more than
    ``(channel state, protocol, size)`` — used for that visit only:

    - a non-empty ``priority_addresses`` (a public set, mutated in place)
      bypasses the table for the visit and leaves the entry alone;
    - a channel whose route selection hashes the packet (``PER_FLOW`` /
      ``PER_DEST`` over more than one route) is never tabled;
    - ``PER_FLOWLET`` over more than one route raises
      :class:`FastPathUnsupported` on every visit, nothing being tabled.

    What the stamp cannot see is outside the contract, as it is for
    ``transit``'s forwarding plans: ``TreatmentProfile.treatments``,
    ``EcmpGroup.routes`` or a ``RouteChurnProcess.shifts`` list mutated in
    place.
    """

    def __init__(self, topology, protocol: Protocol, size: int) -> None:
        self.topology = topology
        self.protocol = protocol
        self.size = size
        self.rows = np.empty((256, STAGE_WIDTH))
        self.extras: list[StageExtras | None] = []
        self._entries: dict[tuple, _StageEntry] = {}

    def cell_stages(
        self,
        hops,
        client_vantage: tuple[int, int],
        server_vantage: tuple[int, int],
        dst_port: int,
    ) -> tuple[np.ndarray, tuple[tuple[int, StageExtras], ...]]:
        """``(stages, extras)`` of the echo round trip over pinned ``hops``:
        client to server, then back over the same hops reversed."""
        client, server = client_vantage[1], server_vantage[1]
        out = [(hop.asn, hop.ingress, hop.egress) for hop in hops]
        back = [(asn, egress, ingress) for asn, ingress, egress in reversed(out)]
        entries = self.entries_along(out, client, server)
        turn = len(entries)
        entries += self.entries_along(back, server, client)

        echo = None  # the probe and its reply, built by the first read
        fresh: dict[int, tuple] = {}  # stage id -> what to table for it
        live = []
        for position, entry in enumerate(entries):
            channel = entry.channel
            stamp = channel.state_stamp()
            if entry.stamp == stamp and not channel.priority_addresses:
                continue
            if entry.stage in fresh:  # out and back through a vantage's channel
                continue
            if echo is None:
                probe = Packet(
                    src=_vantage_address(client_vantage),
                    dst=_vantage_address(server_vantage),
                    protocol=self.protocol,
                    size=self.size,
                    dst_port=dst_port,
                )
                echo = (probe, probe.reply_to())
            traversal = _stage_from_channel(channel, echo[position >= turn])
            if channel.priority_addresses or _route_hashes_packet(
                channel, self.protocol
            ):
                live.append((position, traversal))
            else:
                fresh[entry.stage] = (entry, stamp, traversal)
        if fresh:
            # Tabled together, after every read of the cell went through:
            # a refusal half way leaves no stamp on a row never written.
            self.rows[list(fresh)] = [row for _, _, (row, _) in fresh.values()]
            for entry, stamp, (_, ragged) in fresh.values():
                self.extras[entry.stage] = ragged
                entry.stamp = stamp

        ids = [entry.stage for entry in entries]
        stages = self.rows[ids]
        extras = [self.extras[stage] for stage in ids]
        for position, (row, ragged) in live:
            stages[position] = row
            extras[position] = ragged
        return stages, tuple(
            (position, ragged)
            for position, ragged in enumerate(extras)
            if ragged is not None
        )

    def entries_along(self, hops, source: int, sink: int) -> list[_StageEntry]:
        """The entries of one direction in forwarding order, ``hops`` being
        ``(asn, in, out)`` per AS, entered at interface ``source`` and left
        at ``sink``: their channels are the ones
        :func:`~repro.netsim.network.walk_path` yields, in its order."""
        entries = self._entries
        found = []
        last = len(hops) - 1
        previous = None
        for index, (asn, ingress, egress) in enumerate(hops):
            if index:
                entry = entries.get(previous)
                if entry is None or entry.peer != (asn, ingress):
                    entry = self._add(
                        previous,
                        self.topology.link_channel(*previous, asn, ingress),
                        (asn, ingress),
                    )
                found.append(entry)
            else:
                ingress = source
            if index == last:
                egress = sink
            key = (asn, ingress, egress)
            entry = entries.get(key)
            if entry is None:
                if ingress is None or egress is None:
                    raise SimulationError("missing interface on transit hop")
                entry = self._add(
                    key,
                    self.topology.autonomous_system(asn).internal_channel(
                        f"if{ingress}", f"if{egress}"
                    ),
                    None,
                )
            found.append(entry)
            previous = (asn, egress)
        return found

    def _add(self, key, channel: DirectedChannel, peer) -> _StageEntry:
        stage = len(self.extras)
        if stage == len(self.rows):
            self.rows = np.concatenate([self.rows, np.empty_like(self.rows)])
        self.extras.append(None)
        entry = self._entries[key] = _StageEntry(stage, channel, peer)
        return entry


def _route_hashes_packet(channel: DirectedChannel, protocol: Protocol) -> bool:
    """Does the fixed route :func:`_stage_from_channel` folds into the row
    depend on the packet's addresses and ports?"""
    if len(channel.ecmp_for(protocol)) == 1:
        return False
    granularity = channel.treatment.for_protocol(protocol).ecmp_granularity
    return (
        granularity is HashGranularity.PER_FLOW
        or granularity is HashGranularity.PER_DEST
    )


def extract_segment_cell(
    topology,
    segment,
    protocol: Protocol,
    *,
    client_vantage: tuple[int, int],
    server_vantage: tuple[int, int],
    count: int,
    interval: float,
    start: float,
    size: int = 64,
    timeout: float = 5.0,
    dst_port: int = 7,
    seed: int = 0,
    label: str = "",
) -> ProbeCell:
    """Snapshot a D2D segment measurement as a vectorizable cell.

    The generalization of :func:`extract_probe_cell` to the localization
    workloads (§IV-B, Fig 6): a probe train between two border-router
    vantage points over a *pinned* :class:`~repro.pathaware.segments.PathSegment`,
    echoed back over its reverse — exactly the round trip
    :class:`~repro.core.probing.SegmentProber` runs with paired echo
    Debuglets. The stages come out of the topology's :class:`StageTable`
    for ``(protocol, size)``; the cell is still a self-contained value.
    """
    if count <= 0:
        raise ConfigurationError("probe count must be positive")
    if interval <= 0:
        raise ConfigurationError("probe interval must be positive")
    hops = segment.hops
    if hops[0].asn != client_vantage[0] or hops[-1].asn != server_vantage[0]:
        raise ConfigurationError("segment does not join the two vantage points")
    tables = topology.stage_tables
    table = tables.get((protocol, size))
    if table is None:
        table = tables[protocol, size] = StageTable(topology, protocol, size)
    try:
        stages, extras = table.cell_stages(
            hops, client_vantage, server_vantage, dst_port
        )
    except SimulationError as error:
        raise FastPathUnsupported(str(error)) from error
    return ProbeCell(
        label=label,
        protocol=protocol,
        count=count,
        interval=interval,
        start=start,
        timeout=timeout,
        seed=seed,
        stages=stages,
        extras=extras,
    )


def _vantage_address(vantage: tuple[int, int]) -> "Address":
    """The data address an executor deployed at ``vantage`` would use.

    Mirrors ``repro.core.executor.executor_data_address`` (kept in sync
    by a unit test) rather than importing it: netsim sits below core in
    the layering.
    """
    asn, interface = vantage
    return Address(asn, f"exec{interface}")


# --------------------------------------------------------------- simulation


Arrays = tuple[np.ndarray, np.ndarray]

#: Elements of one block's ``(cell, probe)`` arrays: 128 KiB of floats per
#: array, so a block's working set stays cache-sized whatever the batch. A
#: block holds ``_BLOCK_ELEMENTS // count`` cells (at least one).
_BLOCK_ELEMENTS = 2**14

_TWO_PI = 2.0 * math.pi
_PADDING = np.zeros((1, STAGE_WIDTH))
_PADDING[0, QUEUE_SHAPE] = 1.0  # an idle stage that divides by nothing


def simulate_cell_batch(cells: Sequence[ProbeCell]) -> list[Arrays]:
    """Simulate open-loop probe trains, a batch at a time, as array operations.

    Returns one ``(send_times, rtts)`` pair per cell, in input order, NaN
    rtt marking a lost probe — the raw form :mod:`repro.perf.parallel`
    ships across process boundaries (two float arrays pickle far cheaper
    than per-probe record objects). Each pair is a pure function of its
    cell (including its embedded seed): whatever batch a cell travels in,
    in whatever order, in whichever process, its arrays are bit-identical
    — which is what makes batching and the parallel fan-out safe.

    Cells of equal ``count`` are simulated together, a block at a time,
    deepest cell first so that the cells still travelling at any stage are
    a prefix of the block's rows.
    """
    results: list[Arrays | None] = [None] * len(cells)
    by_count: dict[int, list[int]] = {}
    for index, cell in enumerate(cells):
        by_count.setdefault(cell.count, []).append(index)
    for count, indices in by_count.items():
        indices.sort(key=lambda index: -len(cells[index].stages))
        width = max(1, _BLOCK_ELEMENTS // count)
        for at in range(0, len(indices), width):
            block = indices[at : at + width]
            arrays = _simulate_block([cells[index] for index in block])
            for index, pair in zip(block, arrays):
                results[index] = pair
    return results


def _congestion_terms(u, columns):
    """``(drop probability, queue-delay scale)`` at utilization ``u``.

    ``columns`` is indexed by packed-row column and broadcasts against
    ``u``. The scale is what a unit-mean-per-shape gamma draw is multiplied
    by: the class-appropriate mean queueing delay over the gamma shape.
    """
    u = np.minimum(np.maximum(u, 0.0), 0.99)
    excess = u - columns[DROP_THRESHOLD]
    over = excess > 0.0
    drop = columns[BASE_DROP]
    if over.any():
        drop = drop + np.where(
            over,
            columns[DROP_SCALE] * excess * excess * columns[DROP_MULTIPLIER],
            0.0,
        )
    mean_queue = u / (1.0 - u) * columns[SERVICE_TIME] * columns[BACKLOG_FRACTION]
    return drop, mean_queue / columns[QUEUE_SHAPE]


def _inside(arrivals: np.ndarray, start: float, end: float) -> np.ndarray:
    """Which probes cross the channel inside the ``[start, end)`` window."""
    return (arrivals >= start) & (arrivals < end)


def _simulate_block(cells: list[ProbeCell]) -> Iterable[Arrays]:
    """The kernel: cells of one ``count``, deepest first, stage by stage.

    Every array is ``(cell, probe)``; the per-stage numbers are ``(cells,
    1)`` columns. Each element sees the IEEE operations of the per-cell
    reference (``tests/netsim/cell_reference.py``) in its order, and each
    cell draws from its own generator in the reference's order (drop,
    route, queue gamma, jitter normal, overlay-jitter normals, stage by
    stage) — across cells the order of draws is free. A term the reference
    skips is computed for a whole stage only where adding it is exact
    (``+ 0.0`` on a positive sum, ``* 1.0``, ``0 * sin``), and is never
    drawn for; a term that does not depend on the probe (everything about
    congestion on a stage without diurnal swing or bursts) is computed once
    per row instead of once per probe, from the same operations.
    """
    rows, n = len(cells), cells[0].count
    depths = [len(cell.stages) for cell in cells]
    generators = [np.random.default_rng(cell.seed) for cell in cells]
    draw_gamma = [generator.standard_gamma for generator in generators]
    draw_normal = [generator.standard_normal for generator in generators]

    schedule = np.array(
        [(cell.start, cell.interval, cell.timeout) for cell in cells],
        dtype=np.float64,
    ).reshape(rows, 3, 1)
    send_times = schedule[:, 0] + schedule[:, 1] * np.arange(n, dtype=np.float64)
    t = send_times.copy()  # arrival instant at the current stage
    lost = np.zeros((rows, n), dtype=bool)
    gamma = np.empty((rows, n))
    noise = np.zeros((rows, n))  # N(0, 1) draws; a stale row meets scale 0
    gamma_rows, noise_rows = list(gamma), list(noise)

    # table[column, stage, row]: the packed rows regrouped by stage, a
    # cell's missing stages reading the inert padding row.
    flat = np.concatenate([cell.stages for cell in cells] + [_PADDING])
    depth_of = np.array(depths)
    ends = depth_of.cumsum()
    stage_index = np.arange(depths[0])[:, None]
    table = flat.T[
        :, np.where(stage_index < depth_of, ends - depth_of + stage_index, ends[-1])
    ]
    steady_drop, steady_scale = _congestion_terms(table[UTILIZATION], table)
    shapes = table[QUEUE_SHAPE].tolist()
    jittered = table[JITTER_SCALE] > 0.0
    extras_at: dict[int, list[tuple[int, StageExtras]]] = {}
    for row, cell in enumerate(cells):
        for index, extras in cell.extras:
            extras_at.setdefault(index, []).append((row, extras))
            if extras.routes is not None:
                jittered[index, row] = False  # decided by the routes drawn
    # Per stage: does any row have a diurnal swing / a route offset / a
    # protocol delay / a jitter draw?
    swings, offsets, delays = (
        (table[[AMPLITUDE, ROUTE_OFFSET, EXTRA_DELAY]] != 0.0).any(axis=2).tolist()
    )
    any_jittered = jittered.any(axis=1).tolist()
    jittered = jittered.tolist()

    live = rows
    for k in range(depths[0]):
        while depths[live - 1] <= k:
            live -= 1
        columns = table[:, k, :live, None]
        now = t[:live]
        # The ragged extras, per row that has any: per-packet route tables,
        # and the bursts, churn shifts and overlays whose [start, end)
        # window some probe of the row can be in — a window that ends at or
        # before the row's first arrival here, or starts after its last,
        # has an all-False mask, and every term it feeds is an exact no-op
        # (``+ 0.0`` on a non-negative sum, ``|= False``). The one thing
        # such an overlay still does is draw its jitter normal: it stays
        # listed, maskless, so the draw happens where the reference makes it.
        bursts = churned = routed = overlaid = ()
        overlay_loss = False
        if k in extras_at:
            bursts, churned, routed, overlaid = [], [], [], []
            first = last = None
            for row, e in extras_at[k]:
                if e.routes is not None:
                    routed.append((row, e.routes))
                if not (e.bursts or e.churn or e.overlays):
                    continue
                if first is None:
                    first, last = now.min(axis=1).tolist(), now.max(axis=1).tolist()
                lo, hi = first[row], last[row]
                arrivals = now[row]
                spans = [w for w in e.bursts if w[1] > lo and w[0] <= hi]
                if spans:
                    bursts.append((row, spans))
                spans = [w for w in e.churn if w[1] > lo and w[0] <= hi]
                if spans:
                    churned.append((row, spans))
                masks = []
                for o in e.overlays:
                    if o.end > lo and o.start <= hi:
                        # Every probe inside (a campaign's fault spans its
                        # episode's window): ``x * True`` is ``x``.
                        mask = (o.start <= lo and hi < o.end) or _inside(
                            arrivals, o.start, o.end
                        )
                        masks.append((o, mask))
                        overlay_loss = overlay_loss or bool(o.extra_loss)
                    elif o.extra_jitter:
                        masks.append((o, None))
                if masks:
                    overlaid.append((row, masks))

        # Congestion: steady along a row unless some row of the stage has
        # a diurnal swing or bursts.
        if swings[k] or bursts:
            u = columns[UTILIZATION] + columns[AMPLITUDE] * np.sin(
                _TWO_PI * now / DAY + columns[PHASE]
            )
            for row, spans in bursts:
                for start, end, magnitude in spans:
                    u[row] += magnitude * _inside(now[row], start, end)
            drop, queue_scale = _congestion_terms(u, columns)
        else:
            drop = steady_drop[k, :live, None]
            queue_scale = steady_scale[k, :live, None]

        # Drop decision: protocol floor + congestion loss + overlays. A row
        # draws only if it can lose a probe at all.
        if overlay_loss:
            drop = np.broadcast_to(drop, now.shape).copy()
        for row, masks in overlaid:
            for o, mask in masks:
                if mask is None:
                    continue
                if o.blackhole:
                    lost[row] |= mask
                if o.extra_loss:
                    drop[row] += o.extra_loss * mask
        if drop.max() > 0.0:
            for row in np.flatnonzero(drop.max(axis=1) > 0.0).tolist():
                lost[row] |= generators[row].random(n) < np.minimum(drop[row], 1.0)

        # Route choice: fixed per row, except under per-packet ECMP.
        route_offset, jitter_scale = columns[ROUTE_OFFSET], columns[JITTER_SCALE]
        if routed:
            route_offset = np.repeat(route_offset, n, axis=1)
            jitter_scale = np.repeat(jitter_scale, n, axis=1)
            for row, (cumulative, route_offsets, route_jitters) in routed:
                indices = np.searchsorted(
                    cumulative, generators[row].random(n), side="right"
                )
                route_offset[row] = route_offsets[indices]
                jitter_scale[row] += route_jitters[indices]

        # Cross-traffic queueing (gamma with the class-appropriate mean)
        # and per-packet jitter (folded normal, scale possibly per-route).
        stage_shapes, stage_jittered = shapes[k], jittered[k]
        for row in range(live):
            draw_gamma[row](stage_shapes[row], out=gamma_rows[row])
            if stage_jittered[row]:
                draw_normal[row](out=noise_rows[row])
        for row, _ in routed:
            if np.any(jitter_scale[row] > 0.0):
                draw_normal[row](out=noise_rows[row])

        # The traversal's delay, summed in the reference's order; churn and
        # overlay offsets are totalled per row first, as it totals them.
        delay = gamma[:live] * queue_scale
        delay += columns[FIXED_DELAY]
        if offsets[k] or routed:
            delay += route_offset
        for row, shifts in churned:
            offset = np.zeros(n)
            for start, end, delta in shifts:
                offset += delta * _inside(now[row], start, end)
            delay[row] += offset
        if delays[k]:
            delay += columns[EXTRA_DELAY]
        for row, masks in overlaid:
            offset = np.zeros(n)
            for o, mask in masks:
                if mask is None:
                    generators[row].standard_normal(n)  # drawn, times zero
                    continue
                if o.extra_delay:
                    offset += o.extra_delay * mask
                if o.extra_jitter:
                    offset += (
                        np.abs(generators[row].standard_normal(n))
                        * o.extra_jitter
                        * mask
                    )
            delay[row] += offset
        if any_jittered[k] or routed:
            delay += np.abs(noise[:live]) * jitter_scale
        now += delay

    rtts = t - send_times
    rtts[lost | (rtts > schedule[:, 2])] = np.nan
    return zip(send_times, rtts)


def simulate_cell_arrays(cell: ProbeCell) -> Arrays:
    """``(send_times, rtts)`` of one cell: :func:`simulate_cell_batch` of one."""
    (arrays,) = simulate_cell_batch([cell])
    return arrays


def simulate_cell(cell: ProbeCell) -> MeasurementTrace:
    """Simulate ``cell`` and wrap the result as a :class:`MeasurementTrace`."""
    send_times, rtts = simulate_cell_arrays(cell)
    return MeasurementTrace.from_arrays(
        cell.protocol, send_times, rtts, label=cell.label
    )


def cell_seed(seed: int, *labels: str | int) -> int:
    """Per-cell seed via the standard derivation scheme.

    ``derive_seed(seed, "fastpath", *labels)`` — a pure function of the
    labels, so cells get the same stream whether simulated serially, in a
    different order, or in worker processes.
    """
    return derive_seed(seed, "fastpath", *labels)
