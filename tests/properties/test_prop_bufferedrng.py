"""Property tests: BufferedRng is draw-for-draw identical to a bare generator.

The buffering layer's whole contract is invisibility: for ANY interleaving
of scalar draws — including long same-kind runs that engage block
buffering, kind switches that force realignment, and direct bit-generator
access — the values must equal those a bare ``np.random.Generator`` with
the same seed would produce, in the same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import BufferedRng, derive_buffered_rng, derive_rng

# Each entry: (name, buffered call, bare-generator call).
_DRAWS = {
    "random": (lambda r: r.random(), lambda g: g.random()),
    "uniform": (lambda r: r.uniform(2.0, 5.0), lambda g: g.uniform(2.0, 5.0)),
    "normal": (lambda r: r.normal(1.0, 3.0), lambda g: g.normal(1.0, 3.0)),
    "std_normal": (
        lambda r: r.standard_normal(),
        lambda g: g.standard_normal(),
    ),
    "exponential": (
        lambda r: r.exponential(2.5),
        lambda g: g.exponential(2.5),
    ),
    "gamma": (lambda r: r.gamma(2.0, 0.5), lambda g: g.gamma(2.0, 0.5)),
}


def _compare(seed, calls, *, block=64, threshold=8):
    buffered = BufferedRng(
        np.random.default_rng(seed), block=block, threshold=threshold
    )
    bare = np.random.default_rng(seed)
    for name in calls:
        take_buffered, take_bare = _DRAWS[name]
        assert float(take_buffered(buffered)) == float(take_bare(bare)), name
    return buffered, bare


class TestSequenceEquality:
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.lists(
            st.sampled_from(sorted(_DRAWS)), min_size=1, max_size=300
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_interleaving_matches_bare_generator(self, seed, calls):
        # Small block/threshold so buffering engages and realigns within
        # hypothesis-sized call lists.
        _compare(seed, calls, block=16, threshold=4)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_long_run_crossing_block_boundaries(self, seed):
        # 300 same-kind draws with block=64: buffering engages and refills
        # several times; every value must still match.
        _compare(seed, ["normal"] * 300, block=64, threshold=8)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_kind_switch_realigns_mid_block(self, seed):
        # Engage buffering on one kind, switch with most of the block
        # unconsumed, then interleave: realignment must rewind exactly.
        calls = ["random"] * 40 + ["gamma"] + ["random"] * 5 + ["normal"] * 40
        _compare(seed, calls, block=64, threshold=8)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_final_state_matches_after_mixed_draws(self, seed):
        calls = ["exponential"] * 50 + ["random"] * 3 + ["normal"] * 50
        buffered, bare = _compare(seed, calls, block=32, threshold=4)
        # After realignment the underlying generator state is exactly where
        # the bare generator's is, so future draws agree too.
        assert buffered.bit_generator.state == bare.bit_generator.state


class TestDerivedStreams:
    def test_derive_buffered_matches_derive_rng(self):
        buffered = derive_buffered_rng(42, "network")
        bare = derive_rng(42, "network")
        values = [float(buffered.standard_normal()) for _ in range(5000)]
        expected = [float(bare.standard_normal()) for _ in range(5000)]
        assert values == expected

    def test_derived_stream_is_built_at_its_first_draw(self, derived_streams):
        buffered = derive_buffered_rng(42, "channel", "a/fwd")
        assert derived_streams == []
        first = float(buffered.random())
        second = float(buffered.gamma(2.0, 0.5))
        assert derived_streams == [(42, "channel", "a/fwd")]
        bare = derive_rng(42, "channel", "a/fwd")
        assert [first, second] == [
            float(bare.random()), 0.5 * float(bare.standard_gamma(2.0))
        ]
        # The pass-through side of the façade derives it just the same.
        other = derive_buffered_rng(42, "channel", "a/rev")
        assert list(other.integers(0, 100, 4)) == list(
            derive_rng(42, "channel", "a/rev").integers(0, 100, 4)
        )
        assert derived_streams == [
            (42, "channel", "a/fwd"), (42, "channel", "a/rev")
        ]

    def test_passthrough_attribute_access_realigns(self):
        buffered = BufferedRng(
            np.random.default_rng(99), block=16, threshold=4
        )
        bare = np.random.default_rng(99)
        for _ in range(20):  # engage buffering
            buffered.random()
            bare.random()
        # Arbitrary Generator API access must see the realigned stream.
        assert list(buffered.integers(0, 100, 8)) == list(
            bare.integers(0, 100, 8)
        )

    def test_rejects_invalid_block(self):
        with pytest.raises(ValueError):
            BufferedRng(np.random.default_rng(0), block=0)
