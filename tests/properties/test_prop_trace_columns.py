"""Property tests: the columnar trace equals the record-list trace it
replaced, bit for bit.

``repro.netsim.trace.MeasurementTrace`` holds ``(send_times, rtts)`` columns
and computes every statistic as a column operation;
``tests/netsim/trace_reference.py`` is the parent's record-list trace, one
``ProbeRecord`` per probe. Built from the same probes — NaN anywhere, plus
the empty, all-lost and single-received trains — every count, every
statistic, ``summary()``, ``time_series()`` and the per-probe records must
be equal with ``==`` (NaN equal to NaN), never approximately.
"""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.netsim.packet import Protocol
from repro.netsim.trace import MeasurementTrace
from tests.netsim import trace_reference as reference

NAN = float("nan")
PERCENTILES = (0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0)

rtt_values = st.one_of(
    st.just(NAN),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    st.floats(min_value=1e-4, max_value=2.0, allow_nan=False),
)


@st.composite
def probe_columns(draw):
    """``(send_times, rtts)`` of equal length; ``NaN`` rtts anywhere."""
    rtts = draw(st.lists(rtt_values, max_size=80))
    send_times = draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=len(rtts),
            max_size=len(rtts),
        )
    )
    return np.array(send_times, dtype=float), np.array(rtts, dtype=float)


def same(a, b) -> bool:
    """``==`` with NaN equal to NaN; arrays also by dtype and shape."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=True)
        )
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return type(a) is type(b) and a == b


def assert_equivalent(columns) -> None:
    send_times, rtts = columns
    ours = MeasurementTrace.from_arrays(Protocol.TCP, send_times, rtts, label="p")
    theirs = reference.MeasurementTrace.from_arrays(
        Protocol.TCP, send_times, rtts, label="p"
    )
    for name in ("sent", "lost", "received"):
        assert same(getattr(ours, name), getattr(theirs, name)), name
    assert len(ours) == len(theirs)
    for name in ("loss_rate", "loss_per_mille", "mean_rtt_ms", "std_rtt_ms"):
        assert same(getattr(ours, name)(), getattr(theirs, name)()), name
    assert same(ours.rtts(), theirs.rtts())
    assert same(ours.rtts_ms(), theirs.rtts_ms())
    for q in PERCENTILES:
        assert same(ours.percentile_ms(q), theirs.percentile_ms(q)), q
    for a, b in zip(ours.time_series(), theirs.time_series()):
        assert same(a, b)
    summary, expected = ours.summary(), theirs.summary()
    assert summary.keys() == expected.keys()
    for key in expected:
        assert same(summary[key], expected[key]), key
    assert [(r.seq, r.send_time, r.rtt) for r in ours.records] == [
        (r.seq, r.send_time, r.rtt) for r in theirs.records
    ]
    for column in ours.columns:
        assert column.dtype == np.float64 and not column.flags.writeable


@given(probe_columns())
@example((np.empty(0), np.empty(0)))
@example((np.arange(5.0), np.full(5, NAN)))
@example((np.array([3.0]), np.array([0.125])))
@example((np.arange(4.0), np.array([NAN, NAN, 0.07, NAN])))
@example((np.arange(3.0), np.array([0.01, 0.01, 0.01])))
def test_columns_equal_records(columns):
    assert_equivalent(columns)


@given(probe_columns())
def test_columns_from_lists_equal_records(columns):
    """The event-driven trains hand the trace Python lists."""
    send_times, rtts = columns
    ours = MeasurementTrace(Protocol.UDP, send_times.tolist(), rtts.tolist())
    theirs = reference.MeasurementTrace.from_arrays(Protocol.UDP, send_times, rtts)
    assert same(ours.rtts(), theirs.rtts())
    assert same(ours.summary()["std_ms"], theirs.summary()["std_ms"])
    assert [(r.seq, r.send_time, r.rtt) for r in ours.records] == [
        (r.seq, r.send_time, r.rtt) for r in theirs.records
    ]
