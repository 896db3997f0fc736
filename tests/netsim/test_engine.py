"""Discrete-event engine semantics."""

import pytest

from repro.common.errors import SimulationError
from repro.netsim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, fired.append, "b")
        sim.schedule_at(1.0, fired.append, "a")
        sim.schedule_at(3.0, fired.append, "c")
        sim.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        for tag in ("first", "second", "third"):
            sim.schedule_at(1.0, fired.append, tag)
        sim.run_until_idle()
        assert fired == ["first", "second", "third"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.5, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [5.5]

    def test_relative_schedule(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: sim.schedule(0.5, lambda: seen.append(sim.now)))
        sim.run_until_idle()
        assert seen == [1.5]

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(1.0, fired.append, "x")
        handle.cancel()
        sim.run_until_idle()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run_until_idle()


class TestPendingEvents:
    def test_pending_counts_scheduled_events(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule_at(float(i), lambda: None)
        assert sim.pending_events == 5

    def test_cancel_decrements_pending_immediately(self):
        sim = Simulator()
        handles = [sim.schedule_at(float(i), lambda: None) for i in range(5)]
        handles[2].cancel()
        assert sim.pending_events == 4
        handles[2].cancel()  # idempotent: no double decrement
        assert sim.pending_events == 4

    def test_cancel_after_fire_does_not_corrupt_count(self):
        sim = Simulator()
        handle = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.step()  # fires handle's event
        handle.cancel()  # no-op: the event already fired
        assert sim.pending_events == 1

    def test_post_counts_as_pending(self):
        sim = Simulator()
        sim.post(1.0, lambda: None)
        sim.post(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.run_until_idle()
        assert sim.pending_events == 0

    def test_compaction_drops_dead_entries(self):
        from repro.netsim.engine import _COMPACT_MIN_CANCELLED

        sim = Simulator()
        n = 4 * _COMPACT_MIN_CANCELLED
        fired = []
        handles = [sim.schedule_at(float(i), fired.append, i) for i in range(n)]
        for handle in handles[: n - 5]:
            handle.cancel()
        # Cancelling a majority triggered at least one compaction, so the
        # queue physically shrank below the dead-entry count...
        assert len(sim._queue) < n - 5
        # ...while the live count stayed exact throughout.
        assert sim.pending_events == 5
        sim.run_until_idle()
        assert fired == list(range(n - 5, n))
        assert sim.pending_events == 0


class TestPost:
    def test_post_fires_in_time_order_with_scheduled(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, fired.append, "handle")
        sim.post(1.0, fired.append, "posted")
        sim.post(2.0, fired.append, "tie-later")
        sim.run_until_idle()
        assert fired == ["posted", "handle", "tie-later"]

    def test_post_rejects_past_times(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.post(0.5, lambda: None)

    def test_post_passes_args_and_counts(self):
        sim = Simulator()
        seen = []
        sim.post(1.0, lambda a, b: seen.append((a, b, sim.now)), "x", 2)
        sim.run_until_idle()
        assert seen == [("x", 2, 1.0)]
        assert sim.events_processed == 1

    def test_step_pops_posted_events(self):
        sim = Simulator()
        fired = []
        sim.post(1.0, fired.append, "a")
        assert sim.step() is True
        assert fired == ["a"]


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, "a")
        sim.schedule_at(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_remaining_events_fire_on_next_run(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, fired.append, "late")
        sim.run(until=1.0)
        sim.run_until_idle()
        assert fired == ["late"]

    def test_step_returns_false_when_idle(self):
        sim = Simulator()
        assert sim.step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule_at(float(i), lambda: None)
        sim.run_until_idle()
        assert sim.events_processed == 3


class TestClaimAndStop:
    """The claim rule's four conditions, one at a time, and ``stop``."""

    @staticmethod
    def claims(sim, times, *, head=None, until=None, run=True):
        """What ``claim`` answers, in order, from inside one event at 1.0."""
        answers = []
        sim.post(1.0, lambda: answers.extend(sim.claim(t) for t in times))
        if head is not None:
            sim.post(head, lambda: None)
        if run:
            sim.run(until=until)
        else:
            while sim.step():
                pass
        return answers

    def test_claim_sets_clock_and_counts_one_event(self):
        sim = Simulator()
        seen = []

        def first():
            assert sim.claim(2.0)
            seen.append((sim.now, sim.events_processed))

        sim.post(1.0, first)
        sim.post(3.0, lambda: seen.append((sim.now, sim.events_processed)))
        sim.run()
        assert seen == [(2.0, 2), (3.0, 3)]

    def test_only_strictly_before_the_heap_head(self):
        assert self.claims(Simulator(), [1.5], head=2.0) == [True]
        assert self.claims(Simulator(), [2.0], head=2.0) == [False]
        assert self.claims(Simulator(), [0.5]) == [False]  # before the clock

    def test_only_within_until(self):
        assert self.claims(Simulator(), [3.0], until=3.0) == [True]
        assert self.claims(Simulator(), [3.5], until=3.0) == [False]

    def test_never_outside_run_in_step_or_when_instrumented(self):
        sim = Simulator()
        assert sim.claim(1.0) is False and sim.now == 0.0
        assert self.claims(Simulator(), [2.0], run=False) == [False]
        from repro.obs import Observability

        sim = Simulator()
        sim.attach_observability(Observability.enabled())
        assert self.claims(sim, [2.0]) == [False]

    def test_stop_ends_run_after_the_callback_and_refuses_claims(self):
        sim = Simulator()
        fired = []

        def stopper():
            sim.stop()
            fired.append(("stop", sim.claim(1.5)))

        sim.post(1.0, stopper)
        sim.post(2.0, fired.append, "later")
        sim.run(until=10.0)
        assert fired == [("stop", False)]
        assert sim.now == 1.0  # a stopped run does not advance to ``until``
        sim.run()
        assert fired[-1] == "later"
