"""Property tests: crypto roundtrips, gas monotonicity, deployment."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.crypto import KeyPair, verify_signature
from repro.chain.gas import price
from repro.core.deployment import analyze_deployment
from repro.pathaware.segments import PathSegment
from repro.netsim.topology import PathHop

_KEYPAIR = KeyPair.deterministic("property-tests")


class TestCryptoProperties:
    @given(st.binary(max_size=200))
    @settings(max_examples=15, deadline=None)
    def test_sign_verify_roundtrip(self, message):
        signature = _KEYPAIR.sign(message)
        assert verify_signature(_KEYPAIR.public, message, signature)

    @given(st.binary(min_size=1, max_size=100), st.binary(min_size=1, max_size=100))
    @settings(max_examples=10, deadline=None)
    def test_signature_does_not_transfer(self, message, other):
        if message == other:
            return
        signature = _KEYPAIR.sign(message)
        assert not verify_signature(_KEYPAIR.public, other, signature)


class TestGasProperties:
    @given(st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80)
    def test_cost_monotone_in_size(self, a, b):
        small, large = sorted((a, b))
        assert (
            price(stored_bytes=small).total
            <= price(stored_bytes=large).total
        )

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80)
    def test_rebate_below_total(self, size):
        cost = price(stored_bytes=size)
        assert 0 <= cost.rebate < cost.total


class TestDeploymentProperties:
    @given(
        st.integers(min_value=3, max_value=15),
        st.sets(st.integers(min_value=1, max_value=13), max_size=10),
    )
    @settings(max_examples=80)
    def test_adding_a_deployer_never_hurts(self, n_ases, deployed):
        deployed = {d for d in deployed if d < n_ases - 1}
        base = analyze_deployment(n_ases, deployed)
        candidates = set(range(1, n_ases - 1)) - deployed
        if not candidates:
            return
        extra = analyze_deployment(n_ases, deployed | {min(candidates)})
        assert extra.mean_suspect_set <= base.mean_suspect_set

    @given(st.integers(min_value=2, max_value=15))
    @settings(max_examples=30)
    def test_suspect_sets_at_least_one(self, n_ases):
        report = analyze_deployment(n_ases, set())
        assert all(size >= 1 for size in report.group_sizes.values())


class TestSegmentProperties:
    @given(st.integers(min_value=2, max_value=10))
    @settings(max_examples=30)
    def test_reverse_is_involution(self, n):
        hops = [PathHop(1, None, 1)]
        for asn in range(2, n):
            hops.append(PathHop(asn, 1, 2))
        hops.append(PathHop(n, 1, None))
        segment = PathSegment.from_hops(hops)
        assert segment.reversed().reversed() == segment
        assert segment.reversed().asns() == list(reversed(segment.asns()))

    @given(st.integers(min_value=3, max_value=10),
           st.data())
    @settings(max_examples=40)
    def test_subsegment_asns_contiguous(self, n, data):
        hops = [PathHop(1, None, 1)]
        for asn in range(2, n):
            hops.append(PathHop(asn, 1, 2))
        hops.append(PathHop(n, 1, None))
        segment = PathSegment.from_hops(hops)
        i = data.draw(st.integers(min_value=1, max_value=n))
        j = data.draw(st.integers(min_value=i, max_value=n))
        sub = segment.subsegment(i, j)
        assert sub.asns() == list(range(i, j + 1))
