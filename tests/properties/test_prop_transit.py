"""``DirectedChannel.transit`` against the transit it replaced, packet by packet.

Two channels are built from one generated recipe — the one in ``src/`` and
``tests/netsim/transit_reference.py`` (the parent's ``transit``, verbatim,
on the buffered stream it drew from) — and driven through the same
generated history. After **every** packet the two must agree exactly (``==``
on floats, never a tolerance) on:

- the :class:`TransitOutcome`, field by field;
- ``packets_in`` / ``packets_dropped`` and the serializer state
  ``_busy_until``;
- the **bit-generator state** of the channel stream, so a draw made out of
  turn, skipped, or made under the wrong condition is caught at the packet
  that made it, whether or not a later delay happens to show it.

Histories interleave packets (any protocol, at non-monotone times, to and
from addresses that may be prioritized on one side) with every mutation a
caller can make behind the channel's back: the ``treatment`` setter,
``priority_addresses`` changed in place, overlays added and removed,
``congestion`` and ``churn`` replaced (what ``TrafficMatrix.apply`` and
``attach_churn_ensemble`` do) or grown in place, and ``base_delay`` /
``jitter_std`` / ``bandwidth_bps`` assigned. The forwarding plan may hold
only what none of these can change without dropping it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import derive_rng
from repro.netsim.conduit import DirectedChannel, FaultOverlay
from repro.netsim.congestion import CongestionConfig, CongestionProcess
from repro.netsim.ecmp import EcmpGroup, HashGranularity, Route
from repro.netsim.packet import Address, Packet, Protocol
from repro.netsim.routechurn import RouteChurnProcess, RouteShift
from repro.netsim.treatment import ProtocolTreatment, TreatmentProfile
from tests.netsim.transit_reference import ReferenceChannel

ADDRESSES = [Address(1, "a"), Address(2, "b"), Address(3, "exec1")]
PROTOCOLS = list(Protocol)
HORIZON = 120.0

times = st.floats(0.0, HORIZON)
protocol_filters = st.one_of(
    st.none(), st.frozensets(st.sampled_from(PROTOCOLS), min_size=1, max_size=2)
)

# ----------------------------------------------------------------- recipes
# A recipe is plain data; ``build_*`` turns it into fresh objects, once per
# channel, so the two channels share no mutable state (flowlet tables,
# injected bursts, churn schedules).

protocol_treatments = st.builds(
    ProtocolTreatment,
    priority=st.booleans(),
    ecmp_granularity=st.sampled_from(list(HashGranularity)),
    drop_multiplier=st.sampled_from([0.0, 1.0, 1.0, 6.0]),
    base_drop=st.sampled_from([0.0, 0.0, 0.05, 0.5]),
    extra_delay=st.sampled_from([0.0, 2e-4]),
    extra_jitter=st.sampled_from([0.0, 0.0, 3e-4]),
)
profiles = st.builds(
    TreatmentProfile,
    treatments=st.dictionaries(st.sampled_from(PROTOCOLS), protocol_treatments,
                               max_size=4),
    default=protocol_treatments,
)
congestion_recipes = st.fixed_dictionaries({
    "config": st.fixed_dictionaries({
        "base_utilization": st.sampled_from([0.0, 0.05, 0.5, 0.8, 0.97]),
        "diurnal_amplitude": st.sampled_from([0.0, 0.0, 0.15]),
        "diurnal_phase": st.sampled_from([0.0, 1.3]),
        "burst_rate": st.sampled_from([0.0, 1 / 15.0, 1 / 2.0]),
        "burst_mean_duration": st.sampled_from([5.0, 90.0]),
        "burst_magnitude_range": st.sampled_from([(0.01, 0.03), (0.15, 0.45)]),
        "queue_service_time": st.sampled_from([0.05e-3, 0.4e-3]),
        "queue_shape": st.sampled_from([0.5, 1.0, 2.0, 3]),
        "priority_backlog_fraction": st.sampled_from([0.0, 0.12]),
        "drop_threshold": st.sampled_from([0.0, 0.3, 0.7, 0.95]),
        "drop_scale": st.sampled_from([0.0, 0.25, 8.0]),
    }),
    "seed": st.integers(0, 50),
})
route_recipes = st.lists(
    st.tuples(
        st.sampled_from([0.0, 1e-3, 4e-3]),  # delay offset
        st.sampled_from([0.0, 0.0, 2e-4]),  # jitter
        st.sampled_from([0.5, 1.0, 3.0]),  # weight
    ),
    min_size=1, max_size=4,
)
group_recipes = st.tuples(
    route_recipes, st.integers(0, 9), st.sampled_from([1e-9, 0.5, 30.0])
)
ecmp_recipes = st.one_of(
    st.none(),
    group_recipes,
    st.dictionaries(st.sampled_from(PROTOCOLS), group_recipes, max_size=3),
)
shifts = st.builds(
    lambda start, length, delta, protocols: RouteShift(
        start, start + length, delta, protocols
    ),
    st.floats(-10.0, HORIZON), st.sampled_from([0.0, 5.0, 60.0, 1e3]),
    st.sampled_from([2e-3, 5e-3]), protocol_filters,
)
overlays = st.builds(
    lambda start, length, **fields: FaultOverlay(start, start + length, **fields),
    st.floats(-10.0, HORIZON), st.sampled_from([0.0, 5.0, 60.0, 1e3]),
    extra_delay=st.sampled_from([0.0, 20e-3]),
    extra_loss=st.sampled_from([0.0, 0.0, 0.3, 1.5]),
    blackhole=st.sampled_from([False, False, False, True]),
    extra_jitter=st.sampled_from([0.0, 2e-3]),
    protocols=protocol_filters,
)
channel_recipes = st.fixed_dictionaries({
    "base_delay": st.sampled_from([0.0, 5e-3]),
    "bandwidth_bps": st.sampled_from([1e5, 1e6, 10e9]),
    "jitter_std": st.sampled_from([0.0, 1e-4]),
    "treatment": st.one_of(st.none(), profiles),
    "congestion": st.one_of(st.none(), congestion_recipes),
    "ecmp": ecmp_recipes,
    "churn": st.one_of(st.none(), st.lists(shifts, max_size=3)),
    "seed": st.integers(0, 2**31),
})


def build_congestion(recipe):
    return CongestionProcess(
        CongestionConfig(**recipe["config"]), seed=recipe["seed"], horizon=HORIZON
    )


def build_group(recipe):
    routes, salt, gap = recipe
    return EcmpGroup([Route(*route) for route in routes], salt=salt, flowlet_gap=gap)


def build_ecmp(recipe):
    if recipe is None:
        return None
    if isinstance(recipe, tuple):
        return build_group(recipe)
    return {protocol: build_group(group) for protocol, group in recipe.items()}


def build_channel(cls, recipe):
    congestion, churn = recipe["congestion"], recipe["churn"]
    return cls(
        "generated/fwd",
        base_delay=recipe["base_delay"],
        bandwidth_bps=recipe["bandwidth_bps"],
        jitter_std=recipe["jitter_std"],
        treatment=recipe["treatment"],
        congestion=congestion and build_congestion(congestion),
        ecmp=build_ecmp(recipe["ecmp"]),
        churn=None if churn is None else RouteChurnProcess(churn),
        seed=recipe["seed"],
    )


# ---------------------------------------------------------------- histories

packets = st.tuples(
    st.just("packet"),
    st.fixed_dictionaries({
        "src": st.sampled_from(ADDRESSES),
        "dst": st.sampled_from(ADDRESSES),
        "protocol": st.sampled_from(PROTOCOLS),
        "size": st.sampled_from([1, 64, 1500]),
        "src_port": st.sampled_from([0, 40000, 40001]),
        "dst_port": st.sampled_from([0, 7]),
        "seq": st.integers(0, 5),
    }),
    times,
)
mutations = st.one_of(
    st.tuples(st.just("treatment"), profiles),
    st.tuples(st.just("prioritize"), st.sampled_from(ADDRESSES)),
    st.tuples(st.just("deprioritize"), st.sampled_from(ADDRESSES)),
    st.tuples(st.just("add_overlay"), overlays),
    st.tuples(st.just("remove_overlay"), st.integers(0, 3)),
    st.tuples(st.just("congestion"), congestion_recipes),
    st.tuples(st.just("inject_burst"), times, st.sampled_from([3.0, 200.0]),
              st.sampled_from([0.05, 0.4])),
    st.tuples(st.just("clear_injected")),
    st.tuples(st.just("churn"), st.lists(shifts, max_size=2)),
    st.tuples(st.just("add_shift"), shifts),
    st.tuples(st.just("base_delay"), st.sampled_from([0.0, 1e-3, 80e-3])),
    st.tuples(st.just("jitter_std"), st.sampled_from([0.0, 5e-5, 2e-3])),
    st.tuples(st.just("bandwidth_bps"), st.sampled_from([1e5, 1e9])),
)
# Mostly packets, in runs, so a plan is compiled and used before a mutation
# has the chance to leave it stale.
histories = st.lists(
    st.one_of(packets, packets, packets, mutations), min_size=1, max_size=40
)


def mutate(channel, op):
    kind, *args = op
    if kind == "treatment":
        channel.treatment = args[0]
    elif kind == "prioritize":
        channel.priority_addresses.add(args[0])
    elif kind == "deprioritize":
        channel.priority_addresses.discard(args[0])
    elif kind == "add_overlay":
        channel.add_overlay(args[0])
    elif kind == "remove_overlay":
        if args[0] < len(channel.overlays):
            channel.remove_overlay(channel.overlays[args[0]])
    elif kind == "congestion":
        channel.congestion = build_congestion(args[0])
    elif kind == "inject_burst":
        channel.congestion.inject_burst(*args)
    elif kind == "clear_injected":
        channel.congestion.clear_injected()
    elif kind == "churn":
        channel.churn = RouteChurnProcess(args[0])
    elif kind == "add_shift":
        channel.churn.add(args[0])
    else:
        setattr(channel, kind, args[0])


def stream_state(channel):
    """Bit-generator state of the channel stream, drawn from yet or not."""
    rng = channel._rng
    if rng is None:
        rng = derive_rng(*channel._stream_labels)
    return rng.bit_generator.state


def observable(channel, outcome):
    return (
        outcome.delivered, outcome.delay, outcome.route_index, outcome.drop_reason,
        channel.packets_in, channel.packets_dropped, dict(channel._busy_until),
        stream_state(channel),
    )


def assert_same_fates(recipe, history):
    ours = build_channel(DirectedChannel, recipe)
    reference = build_channel(ReferenceChannel, recipe)
    for step, op in enumerate(history):
        if op[0] != "packet":
            mutate(ours, op)
            mutate(reference, op)
            continue
        _, fields, t = op
        # One Packet each: ``packet_id`` differs and nothing reads it.
        got = observable(ours, ours.transit(Packet(**fields), t))
        expected = observable(reference, reference.transit(Packet(**fields), t))
        assert got == expected, (step, op)
    return ours


class TestTransitAgainstReference:
    @given(channel_recipes, histories)
    @settings(max_examples=400, deadline=None)
    def test_any_channel_any_history(self, recipe, history):
        assert_same_fates(recipe, history)

    @given(
        channel_recipes,
        st.lists(st.tuples(st.sampled_from(PROTOCOLS), st.integers(0, 3)),
                 min_size=2, max_size=4, unique=True),
        st.lists(mutations, max_size=3),
        st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_probe_trains_around_a_mutation(self, recipe, flows, changes, salt):
        """The shape of real traffic: a few flows, one packet each per
        tick, in time order; the mutations land mid-train, so every plan in
        use is warm when they do."""

        def train(start):
            return [
                ("packet",
                 {"src": ADDRESSES[0], "dst": ADDRESSES[1 + port % 2],
                  "protocol": protocol, "src_port": 40000 + port, "dst_port": 7,
                  "seq": tick},
                 start + tick * 0.35 + port * 0.01)
                for tick in range(12)
                for protocol, port in flows
            ]

        start = float(salt % 60)
        channel = assert_same_fates(recipe, train(start) + changes + train(start + 5.0))
        assert channel.packets_in == 24 * len(flows)


class TestThePlan:
    """What the plan may hold, pinned directly (the differential above finds
    these too; here a failure names the rule)."""

    GROUP = ([(0.0, 0.0, 1.0), (1e-3, 2e-4, 1.0), (4e-3, 0.0, 3.0)], 3, 0.5)
    HOT = {"config": dict(base_utilization=0.9, diurnal_amplitude=0.0, burst_rate=0.0,
                          drop_threshold=0.3, drop_scale=1.0), "seed": 1}

    def recipe(self, **overrides):
        recipe = {"base_delay": 1e-3, "bandwidth_bps": 1e6, "jitter_std": 1e-4,
                  "treatment": None, "congestion": None, "ecmp": None,
                  "churn": None, "seed": 11}
        recipe.update(overrides)
        return recipe

    def flow(self, protocol=Protocol.UDP, count=30, step=0.2, **fields):
        fields = {"src": ADDRESSES[0], "dst": ADDRESSES[1], "protocol": protocol,
                  "src_port": 40000, "dst_port": 7, **fields}
        return [("packet", {**fields, "seq": i}, i * step) for i in range(count)]

    def test_the_treatment_setter_drops_the_plan(self):
        before = TreatmentProfile.uniform(ProtocolTreatment(extra_delay=1e-3))
        after = TreatmentProfile.uniform(ProtocolTreatment(
            extra_delay=7e-3, priority=True,
            ecmp_granularity=HashGranularity.PER_PACKET))
        assert_same_fates(
            self.recipe(treatment=before, ecmp=self.GROUP),
            self.flow() + [("treatment", after)] + self.flow(),
        )

    def test_no_uniform_is_drawn_at_zero_drop_probability(self):
        channel = assert_same_fates(self.recipe(jitter_std=0.0), self.flow())
        assert channel.packets_dropped == 0
        # The only draws were the queue gammas.
        bare = derive_rng(11, "channel", "generated/fwd")
        for _ in range(30):
            bare.standard_gamma(2.0)
        assert stream_state(channel) == bare.bit_generator.state

    def test_a_prioritized_address_is_spared_congestion_loss_only(self):
        hostile = TreatmentProfile.uniform(
            ProtocolTreatment(drop_multiplier=6.0, base_drop=0.1))
        history = (
            self.flow(count=60) + [("prioritize", ADDRESSES[1])] + self.flow(count=60)
            + self.flow(count=60, dst=ADDRESSES[2])
            + [("deprioritize", ADDRESSES[1]), ("prioritize", ADDRESSES[0])]
            + self.flow(count=60)
        )
        channel = assert_same_fates(
            self.recipe(treatment=hostile, congestion=self.HOT), history)
        # Every one of the 120 unprioritized, a tenth of the 120 prioritized.
        assert 120 < channel.packets_dropped < 145

    def test_flowlet_selection_is_never_served_from_the_plan(self):
        flowlets = TreatmentProfile.uniform(
            ProtocolTreatment(ecmp_granularity=HashGranularity.PER_FLOWLET))
        recipe = self.recipe(treatment=flowlets, ecmp=self.GROUP)
        # Gaps of 0.2 s stay in a flowlet; 0.9 s starts a new one.
        history = self.flow(count=20) + self.flow(count=40, step=0.9)
        ours = build_channel(DirectedChannel, recipe)
        routes = {ours.transit(Packet(**fields), t).route_index
                  for _, fields, t in history}
        assert len(routes) > 1
        assert_same_fates(recipe, history)

    def test_one_route_is_constant_whatever_the_granularity(self):
        for granularity in HashGranularity:
            profile = TreatmentProfile.uniform(
                ProtocolTreatment(ecmp_granularity=granularity))
            lone = ([(2e-3, 1e-4, 1.0)], 0, 0.5)
            channel = assert_same_fates(
                self.recipe(treatment=profile, ecmp=lone), self.flow(count=10))
            assert not channel.ecmp_for(Protocol.UDP)._flowlet_state

    def test_live_reads_survive_a_warm_plan(self):
        history = self.flow()
        for change in (
            ("add_overlay", FaultOverlay(0.0, 1e3, extra_delay=5e-3, extra_jitter=1e-3)),
            ("congestion", self.HOT),
            ("inject_burst", 0.0, 1e3, 0.5),
            ("churn", [RouteShift(0.0, 1e3, 3e-3, frozenset({Protocol.UDP}))]),
            ("base_delay", 50e-3),
            ("jitter_std", 0.0),
            ("bandwidth_bps", 1e4),
            ("remove_overlay", 0),
        ):
            history += [change] + self.flow()
        assert_same_fates(self.recipe(), history)
