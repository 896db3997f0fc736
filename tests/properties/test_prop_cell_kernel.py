"""The batch cell kernel against the code it replaced, byte for byte.

Three claims, one strength (``np.array_equal`` on the raw arrays, NaN
positions included — never a tolerance):

- **kernel ≡ reference**: :func:`simulate_cell_batch` gives every cell the
  arrays ``tests/netsim/cell_reference.py`` (the 1-D per-cell kernel it
  replaced) gives it — on generated cells, on every cell of a real
  campaign and on every cell of the §II study;
- **batch-composition invariance**: whatever batch a cell travels in — any
  order, any partition, mixed probe counts and depths, several blocks, the
  same cell twice — it gets the arrays it gets alone. This is also what
  would catch a ufunc whose vector body and scalar tail round differently;
- **pooled ≡ inline** through :class:`CellPool`, a pool failing
  mid-campaign included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fastprobe
from repro.netsim import fastpath
from repro.netsim.fastpath import (
    OverlayWindow,
    ProbeCell,
    StageExtras,
    simulate_cell_arrays,
    simulate_cell_batch,
)
from repro.netsim.packet import Protocol
from repro.perf import parallel
from repro.workloads.wan import WanScenario
from repro.workloads.wanbench import build_continent, run_campaign, small_config
from tests.netsim.cell_reference import reference_cell_arrays
from tests.properties.test_prop_parallel import BreaksAfter


def assert_same_arrays(actual, expected, what=""):
    for name, a, e in zip(("send_times", "rtts"), actual, expected):
        assert a.dtype == e.dtype == np.float64, (what, name)
        assert np.array_equal(a, e, equal_nan=True), (what, name)


# ------------------------------------------------------------ generated cells

#: Trains start in [0, 50) and last under 20 s; windows are placed so that
#: edges fall before, inside and after them.
window_start = st.floats(-5.0, 80.0)
window_length = st.sampled_from([0.0, 0.3, 4.0, 40.0, 1e3])


@st.composite
def windows(draw, values):
    start = draw(window_start)
    return (start, start + draw(window_length), draw(values))


@st.composite
def overlay_windows(draw):
    start = draw(window_start)
    return OverlayWindow(
        start=start,
        end=start + draw(window_length),
        extra_delay=draw(st.sampled_from([0.0, 5e-3, 0.9])),
        extra_loss=draw(st.sampled_from([0.0, 0.3, 1.5])),
        blackhole=draw(st.booleans()),
        extra_jitter=draw(st.sampled_from([0.0, 2e-3])),
    )


@st.composite
def route_tables(draw):
    routes = draw(st.integers(2, 5))
    weights = np.array(draw(st.lists(st.floats(0.1, 9.0), min_size=routes,
                                     max_size=routes)))
    cumulative = np.cumsum(weights / weights.sum())
    cumulative[-1] = 1.0
    offsets = st.lists(st.sampled_from([0.0, 1e-3, 4e-3]), min_size=routes,
                       max_size=routes)
    # Mostly zero, so whether the jitter normal is drawn depends on the
    # routes the probes happened to take.
    jitters = st.lists(st.sampled_from([0.0, 0.0, 0.0, 3e-4]), min_size=routes,
                       max_size=routes)
    return cumulative, np.array(draw(offsets)), np.array(draw(jitters))


@st.composite
def stages(draw):
    """One packed row and its extras (``None`` for most stages)."""
    swing = draw(st.booleans())
    priority = draw(st.booleans())
    extras = None
    if draw(st.integers(0, 3)) == 0:
        extras = StageExtras(
            bursts=tuple(draw(st.lists(windows(st.floats(0.05, 0.5)), max_size=3))),
            churn=tuple(draw(st.lists(windows(st.floats(1e-3, 6e-3)), max_size=3))),
            overlays=tuple(draw(st.lists(overlay_windows(), max_size=3))),
            routes=draw(st.one_of(st.none(), route_tables())),
        )
    row = [0.0] * fastpath.STAGE_WIDTH
    row[fastpath.UTILIZATION] = draw(st.floats(0.0, 0.98))
    row[fastpath.AMPLITUDE] = draw(st.floats(0.01, 0.4)) if swing else 0.0
    row[fastpath.PHASE] = draw(st.floats(0.0, 6.3))
    row[fastpath.SERVICE_TIME] = draw(st.floats(1e-5, 1e-3))
    row[fastpath.QUEUE_SHAPE] = draw(st.sampled_from([0.5, 1.0, 2.0, 3.5]))
    row[fastpath.BACKLOG_FRACTION] = draw(st.floats(0.05, 0.5)) if priority else 1.0
    row[fastpath.DROP_THRESHOLD] = draw(st.floats(0.2, 0.95))
    row[fastpath.DROP_SCALE] = draw(st.floats(0.0, 8.0))
    row[fastpath.BASE_DROP] = draw(st.sampled_from([0.0, 0.0, 0.02, 0.6]))
    row[fastpath.DROP_MULTIPLIER] = draw(st.sampled_from([0.0, 1.0, 6.0]))
    row[fastpath.FIXED_DELAY] = draw(st.floats(1e-6, 0.05))
    routed = extras is not None and extras.routes is not None
    row[fastpath.ROUTE_OFFSET] = (
        0.0 if routed else draw(st.sampled_from([0.0, 0.0, 1e-3]))
    )
    row[fastpath.EXTRA_DELAY] = draw(st.sampled_from([0.0, 0.0, 2e-4]))
    row[fastpath.JITTER_SCALE] = draw(st.sampled_from([0.0, 2e-5, 1e-3]))
    return row, extras


@st.composite
def probe_cells(draw, counts=st.sampled_from([1, 2, 5, 10, 10, 10, 17, 64])):
    return fastpath._pack_cell(
        draw(st.lists(stages(), max_size=7)),
        label="generated",
        protocol=Protocol.UDP,
        count=draw(counts),
        interval=draw(st.sampled_from([5e-3, 0.25, 1.0])),
        start=draw(st.floats(0.0, 50.0)),
        timeout=draw(st.sampled_from([0.05, 2.0])),
        seed=draw(st.integers(0, 2**63 - 1)),
    )


class TestKernelAgainstReference:
    @given(probe_cells())
    @settings(max_examples=150, deadline=None)
    def test_one_generated_cell(self, cell):
        assert_same_arrays(simulate_cell_arrays(cell), reference_cell_arrays(cell))

    @given(st.lists(probe_cells(), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_a_generated_batch(self, cells):
        arrays = simulate_cell_batch(cells)
        assert len(arrays) == len(cells)
        for index, (cell, pair) in enumerate(zip(cells, arrays)):
            assert_same_arrays(pair, reference_cell_arrays(cell), index)

    def test_every_cell_of_a_campaign_and_of_the_study(self, monkeypatch):
        """Real extraction, real batches: what the callers handed the
        kernel, and what it handed back, against the reference per cell."""
        seen = []

        def recording(cells):
            arrays = simulate_cell_batch(cells)
            seen.extend(zip(cells, arrays))
            return arrays

        monkeypatch.setattr(fastprobe, "simulate_cell_batch", recording)
        monkeypatch.setattr(parallel, "simulate_cell_batch", recording)
        outcome = run_campaign(build_continent(small_config()))
        assert len(seen) == outcome.measurements
        WanScenario.build(seed=3).run_protocol_study(
            probes_per_protocol=300, fast=True
        )
        assert len(seen) == outcome.measurements + 24
        for index, (cell, pair) in enumerate(seen):
            assert_same_arrays(pair, reference_cell_arrays(cell), index)

    def test_windows_are_half_open(self):
        """Probes sent at 0, 0.25, ... reach the first stage exactly on
        window edges: a start is inside, an end outside, for overlays,
        bursts and churn shifts alike."""
        edges = (0.5, 1.0)
        extras = StageExtras(
            bursts=((*edges, 0.4),),
            churn=((*edges, 3e-3),),
            overlays=(OverlayWindow(*edges, extra_delay=0.1),
                      OverlayWindow(1.25, 1.5, blackhole=True)),
        )
        cell = ProbeCell("edges", Protocol.UDP, 8, 0.25, 0.0, 2.0, 5,
                         _two_stages(), ((0, extras),))
        send_times, rtts = simulate_cell_arrays(cell)
        assert_same_arrays((send_times, rtts), reference_cell_arrays(cell))
        assert send_times[2] == 0.5 and send_times[4] == 1.0
        assert rtts[1] < 0.1 < rtts[2] and rtts[4] < 0.1 < rtts[3]
        assert np.isnan(rtts[5]) and not np.isnan(rtts[6])

    def test_offsets_are_totalled_before_they_are_added(self):
        """Three churn shifts and three overlay delays active at once: the
        reference adds their *sum* to the running delay, and
        ``(x + a) + b`` is not ``x + (a + b)`` in floating point."""
        deltas = (1.1e-3, 2.3e-3, 4.7e-3)
        extras = StageExtras(
            churn=tuple((-1.0, 1e9, delta) for delta in deltas),
            overlays=tuple(
                OverlayWindow(-1.0, 1e9, extra_delay=delta, extra_jitter=delta)
                for delta in deltas
            ),
        )
        cell = ProbeCell("totals", Protocol.UDP, 4000, 1e-3, 0.0, 2.0, 6,
                         _two_stages(), ((0, extras), (1, extras)))
        assert_same_arrays(simulate_cell_arrays(cell), reference_cell_arrays(cell))


class TestBatchCompositionInvariance:
    @given(st.data(), st.lists(probe_cells(), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_any_order_any_partition(self, data, cells):
        alone = [simulate_cell_arrays(cell) for cell in cells]
        order = data.draw(st.permutations(range(len(cells))))
        cuts = sorted(data.draw(st.sets(st.integers(1, len(cells)), max_size=3)))
        at = 0
        for cut in [*cuts, len(cells)]:
            part = order[at:cut]
            at = cut
            for index, pair in zip(part, simulate_cell_batch([cells[i] for i in part])):
                assert_same_arrays(pair, alone[index], (order, cuts, index))

    @given(st.lists(probe_cells(counts=st.sampled_from([3, 10])), min_size=4,
                    max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_longer_than_one_block(self, cells):
        """Blocks of at most three (``count`` 10) or ten (``count`` 3) rows."""
        alone = [simulate_cell_arrays(cell) for cell in cells]
        whole = fastpath._BLOCK_ELEMENTS
        fastpath._BLOCK_ELEMENTS = 30
        try:
            batched = simulate_cell_batch(cells)
        finally:
            fastpath._BLOCK_ELEMENTS = whole
        for index, pair in enumerate(batched):
            assert_same_arrays(pair, alone[index], index)

    @given(probe_cells(), probe_cells())
    @settings(max_examples=40, deadline=None)
    def test_a_repeated_cell(self, cell, other):
        arrays = simulate_cell_batch([cell, other, cell, cell])
        alone = simulate_cell_arrays(cell)
        for index in (0, 2, 3):
            assert_same_arrays(arrays[index], alone, index)
        assert_same_arrays(arrays[1], simulate_cell_arrays(other))

    def test_the_empty_list(self):
        assert simulate_cell_batch([]) == []

    def test_rows_wider_than_a_block(self):
        """A train longer than a block's element budget is a block of one
        row; two of them, and a short cell, still come back in order."""
        cells = [
            ProbeCell("long-a", Protocol.UDP, fastpath._BLOCK_ELEMENTS + 5, 1e-3,
                      0.0, 2.0, 11, _two_stages()),
            ProbeCell("short", Protocol.UDP, 4, 1e-3, 0.0, 2.0, 12, _two_stages()[:1]),
            ProbeCell("long-b", Protocol.UDP, fastpath._BLOCK_ELEMENTS + 5, 1e-3,
                      3.0, 2.0, 13, _two_stages()),
        ]
        for cell, pair in zip(cells, simulate_cell_batch(cells)):
            assert len(pair[0]) == cell.count
            assert_same_arrays(pair, reference_cell_arrays(cell), cell.label)


def _two_stages():
    row = [0.0] * fastpath.STAGE_WIDTH
    row[fastpath.UTILIZATION] = 0.4
    row[fastpath.AMPLITUDE] = 0.2
    row[fastpath.SERVICE_TIME] = 2e-4
    row[fastpath.QUEUE_SHAPE] = 2.0
    row[fastpath.BACKLOG_FRACTION] = 1.0
    row[fastpath.DROP_THRESHOLD] = 0.5
    row[fastpath.DROP_SCALE] = 2.0
    row[fastpath.DROP_MULTIPLIER] = 1.0
    row[fastpath.FIXED_DELAY] = 3e-3
    row[fastpath.JITTER_SCALE] = 1e-4
    return np.array([row, row])


# ------------------------------------------------------------------ the skip


class TestTheSkipIsExact:
    """The kernel builds no mask for a window no probe of the row can be in
    (``end <= first arrival`` or ``start > last arrival`` at that stage) and
    none for a window every probe is in. At stage 0 the arrivals are the send
    times, so the edges can be placed to the ulp."""

    COUNT, INTERVAL, START = 8, 0.25, 10.0
    FIRST, LAST = START, START + (COUNT - 1) * INTERVAL
    #: name -> (start, end): just outside, then just inside, at either end,
    #: then covering every probe exactly and missing the last by an ulp.
    EDGES = {
        "ends-at-first": (0.0, FIRST),
        "ends-past-first": (0.0, np.nextafter(FIRST, np.inf)),
        "starts-at-last": (LAST, 1e3),
        "starts-past-last": (np.nextafter(LAST, np.inf), 1e3),
        "covers-all": (FIRST, np.nextafter(LAST, np.inf)),
        "covers-all-but-last": (FIRST, LAST),
        "inside": (FIRST + 0.3, LAST - 0.3),
    }
    INSIDE = {"ends-at-first": 0, "ends-past-first": 1, "starts-at-last": 1,
              "starts-past-last": 0, "covers-all": COUNT,
              "covers-all-but-last": COUNT - 1, "inside": 4}

    def cell(self, extras, *, seed=21, stages=None, at=0):
        stages = _two_stages() if stages is None else stages
        return ProbeCell("skip", Protocol.UDP, self.COUNT, self.INTERVAL,
                         self.START, 2.0, seed, stages, ((at, extras),))

    def check(self, cell):
        """Alone, and as a middle row of a block (the bounds are per row)."""
        expected = reference_cell_arrays(cell)
        assert_same_arrays(simulate_cell_arrays(cell), expected)
        early = ProbeCell("early", Protocol.UDP, self.COUNT, self.INTERVAL, 0.0,
                          2.0, 3, _two_stages())
        late = ProbeCell("late", Protocol.UDP, self.COUNT, self.INTERVAL, 500.0,
                         2.0, 4, _two_stages())
        assert_same_arrays(simulate_cell_batch([early, cell, late])[1], expected)
        return expected[1]

    @pytest.mark.parametrize("edge", EDGES)
    def test_blackhole_edges(self, edge):
        rtts = self.check(self.cell(StageExtras(
            overlays=(OverlayWindow(*self.EDGES[edge], blackhole=True),))))
        assert int(np.isnan(rtts).sum()) == self.INSIDE[edge]

    @pytest.mark.parametrize("edge", EDGES)
    def test_delay_loss_and_jitter_edges(self, edge):
        start, end = self.EDGES[edge]
        rtts = self.check(self.cell(StageExtras(
            overlays=(OverlayWindow(start, end, extra_delay=0.5),))))
        assert int((rtts > 0.4).sum()) == self.INSIDE[edge]
        rtts = self.check(self.cell(StageExtras(
            overlays=(OverlayWindow(start, end, extra_loss=1.5),))))
        assert int(np.isnan(rtts).sum()) == self.INSIDE[edge]
        self.check(self.cell(StageExtras(
            overlays=(OverlayWindow(start, end, extra_delay=1e-3, extra_jitter=5e-3),))))

    @pytest.mark.parametrize("edge", EDGES)
    @pytest.mark.parametrize("delta", [0.5, -2e-3])
    def test_churn_edges(self, edge, delta):
        """Negative deltas too: ``delta * False`` is ``-0.0``, still a no-op."""
        rtts = self.check(self.cell(StageExtras(
            churn=((*self.EDGES[edge], delta), (0.0, 5.0, -1e-3), (50.0, 60.0, 3e-3)))))
        if delta > 0:
            assert int((rtts > 0.4).sum()) == self.INSIDE[edge]

    @pytest.mark.parametrize("edge", EDGES)
    def test_burst_edges(self, edge):
        """A burst to saturation loses probes (threshold 0.5, scale 2)."""
        stages = _two_stages()
        stages[:, fastpath.AMPLITUDE] = 0.0  # the steady path unless a burst is in
        stages[:, fastpath.DROP_SCALE] = 40.0
        extras = StageExtras(bursts=((*self.EDGES[edge], 0.59), (0.0, 5.0, 0.2)))
        rtts = self.check(self.cell(extras, stages=stages))
        assert int(np.isnan(rtts).sum()) == self.INSIDE[edge]

    def test_a_later_stage_reads_its_own_arrivals(self):
        """At stage 1 the arrivals are 3 ms and more past the send times: a
        window ending between the two is out at stage 1, in at stage 0."""
        window = OverlayWindow(0.0, self.FIRST + 1e-3, blackhole=True)
        for at, lost in ((0, 1), (1, 0)):
            rtts = self.check(self.cell(StageExtras(overlays=(window,)), at=at))
            assert int(np.isnan(rtts).sum()) == lost

    @pytest.mark.parametrize("seed", range(4))
    def test_a_skipped_jitter_overlay_still_draws_in_its_place(self, seed):
        """Out of its window between two overlays inside theirs: its normal
        is drawn after the first's and before the third's, and discarded."""
        inside = (self.FIRST + 0.3, self.LAST - 0.3)
        extras = StageExtras(overlays=(
            OverlayWindow(*inside, extra_delay=1e-3, extra_jitter=2e-3),
            OverlayWindow(500.0, 600.0, extra_delay=9.0, extra_jitter=4e-3),
            OverlayWindow(*inside, extra_jitter=3e-3),
        ))
        cell = ProbeCell("order", Protocol.UDP, self.COUNT, self.INTERVAL,
                         self.START, 2.0, seed, _two_stages(),
                         ((0, extras), (1, extras)))
        rtts = self.check(cell)
        assert not (rtts > 1.0).any()

    def test_a_skipped_loss_overlay_makes_no_row_draw(self):
        """``extra_loss`` outside its window on a stage that cannot lose a
        probe otherwise: nothing is drawn for the drop decision, nothing is
        lost, and the next draws are where the reference has them."""
        stages = _two_stages()
        stages[:, fastpath.AMPLITUDE] = 0.0
        stages[:, fastpath.UTILIZATION] = 0.3  # under the drop threshold
        extras = StageExtras(overlays=(OverlayWindow(0.0, 5.0, extra_loss=0.9),))
        rtts = self.check(self.cell(extras, stages=stages))
        assert not np.isnan(rtts).any()

    def test_masks_are_built_only_for_windows_a_probe_can_be_in(self, monkeypatch):
        """Counted over a campaign's cells: every mask the kernel builds is
        for a window that meets its row's arrivals without covering them,
        and most windows the cells carry need none."""
        built = []
        inside = fastpath._inside

        def recording(arrivals, start, end):
            lo, hi = arrivals.min(), arrivals.max()
            assert end > lo and start <= hi
            assert not (start <= lo and hi < end)
            built.append((start, end))
            return inside(arrivals, start, end)

        cells = _campaign_cells(episodes=40)
        carried = sum(len(e.overlays) for cell in cells for _, e in cell.extras)
        expected = simulate_cell_batch(cells)
        monkeypatch.setattr(fastpath, "_inside", recording)
        for got, pair in zip(simulate_cell_batch(cells), expected):
            assert_same_arrays(got, pair)
        assert carried > 100 and len(built) < carried // 10


# -------------------------------------------------------------- through a pool


class TestThroughCellPool:
    @given(st.lists(probe_cells(), min_size=1, max_size=8),
           st.lists(st.integers(0, 2), min_size=8, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_grouped_tasks_equal_inline(self, cells, keys):
        """One kernel call per group key, results back in input order
        (the executor runs inline: what is tested is the grouping)."""
        inline = simulate_cell_batch(cells)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BreaksAfter, "healthy", 10**6)
            patch.setattr(parallel, "ProcessPoolExecutor", BreaksAfter)
            with parallel.CellPool(2, len(cells)) as pool:
                pooled = list(pool.run(cells, keys[: len(cells)]))
                assert pool.pooled_batches == 1
        for index, (a, b) in enumerate(zip(pooled, inline)):
            assert_same_arrays(a, b, index)

    def test_real_workers_equal_inline(self):
        cells = _campaign_cells()
        inline = simulate_cell_batch(cells)
        with parallel.CellPool(2, len(cells)) as pool:
            pooled = list(pool.run(cells, [i % 3 for i in range(len(cells))]))
            assert (pool.workers, pool.pooled_batches) == (2, 1)
        for index, (a, b) in enumerate(zip(pooled, inline)):
            assert_same_arrays(a, b, index)

    def test_pool_failing_mid_campaign(self, monkeypatch):
        """The pool completes the first epochs and dies inside a later one:
        that epoch reruns inline, the rest stay inline, and the campaign
        says all of it — same digest, the pool's size (it did work), one
        fallback."""
        scenario = build_continent(small_config())
        expected = run_campaign(scenario, workers=0)
        monkeypatch.setattr(BreaksAfter, "healthy", 7)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", BreaksAfter)
        before = parallel.fallback_serial_total
        outcome = run_campaign(build_continent(small_config()), workers=2)
        assert outcome.digest == expected.digest
        assert (outcome.workers, outcome.fallbacks) == (2, 1)
        assert parallel.fallback_serial_total == before + 1


def _campaign_cells(episodes=4):
    cells = []
    build = fastprobe.FastSegmentProber.build_cell

    def recording(self, *args, **kwargs):
        cells.append(build(self, *args, **kwargs))
        return cells[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fastprobe.FastSegmentProber, "build_cell", recording)
        run_campaign(build_continent(small_config(episodes=episodes)))
    return cells
