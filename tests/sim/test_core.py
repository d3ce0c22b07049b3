"""Tests of the discrete-event core: ordering, cancellation, trace, RNG."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, SimulationError
from repro.sim.core import EventScheduler, RngStreams


class TestEventScheduler:
    def test_events_fire_in_time_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(3.0, lambda: fired.append("c"))
        sched.schedule(1.0, lambda: fired.append("a"))
        sched.schedule(2.0, lambda: fired.append("b"))
        assert sched.run_until(10.0) == 3
        assert fired == ["a", "b", "c"]
        assert sched.now == 3.0

    def test_priority_breaks_equal_times(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: fired.append("low"), priority=5)
        sched.schedule(1.0, lambda: fired.append("high"), priority=-1)
        sched.run_until(2.0)
        assert fired == ["high", "low"]

    def test_insertion_order_breaks_full_ties(self):
        sched = EventScheduler()
        fired = []
        for label in ("first", "second", "third"):
            sched.schedule(1.0, lambda l=label: fired.append(l))
        sched.run_until(2.0)
        assert fired == ["first", "second", "third"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventScheduler().schedule(-0.5, lambda: None)

    def test_schedule_at_absolute_time(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: sched.schedule_at(5.0, lambda: fired.append(sched.now)))
        sched.run_until(10.0)
        assert fired == [5.0]

    def test_cancelled_event_skipped_and_untraced(self):
        sched = EventScheduler()
        fired = []
        event = sched.schedule(1.0, lambda: fired.append("cancelled"))
        sched.schedule(2.0, lambda: fired.append("kept"), kind="kept")
        sched.cancel(event)
        assert sched.run_until(5.0) == 1
        assert fired == ["kept"]
        assert [entry[3] for entry in sched.trace] == ["kept"]

    def test_run_until_leaves_future_events_pending(self):
        sched = EventScheduler()
        sched.schedule(1.0, lambda: None)
        sched.schedule(9.0, lambda: None)
        assert sched.run_until(5.0) == 1
        assert sched.now == 1.0
        assert sched.run_until(10.0) == 1
        assert sched.now == 9.0

    def test_trace_digest_deterministic_and_sensitive(self):
        def build(kinds):
            sched = EventScheduler()
            for i, kind in enumerate(kinds):
                sched.schedule(float(i), lambda: None, kind=kind)
            sched.run_until(10.0)
            return sched.trace_digest()

        assert build(["a", "b"]) == build(["a", "b"])
        assert build(["a", "b"]) != build(["a", "c"])

    @given(
        specs=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 1.5, 2.0]),
                st.integers(min_value=-1, max_value=2),
            ),
            min_size=1,
            max_size=32,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_simultaneous_events_dequeue_in_stable_insertion_order(self, specs):
        """Equal (time, priority) events must fire in scheduling order."""
        sched = EventScheduler()
        fired = []
        for index, (time, priority) in enumerate(specs):
            sched.schedule(time, lambda i=index: fired.append(i), priority=priority)
        sched.run_until(10.0)
        expected = [
            index
            for index, _ in sorted(
                enumerate(specs), key=lambda item: (item[1][0], item[1][1], item[0])
            )
        ]
        assert fired == expected


class TestRngStreams:
    def test_requires_entropy(self):
        with pytest.raises(ConfigurationError):
            RngStreams([])

    def test_streams_are_cached(self):
        streams = RngStreams([7])
        assert streams.stream(1, "noise") is streams.stream(1, "noise")

    def test_named_streams_are_independent(self):
        streams = RngStreams([7])
        first = streams.stream(1, "noise").standard_normal(4)
        # Drawing from an unrelated stream must not perturb stream (1, noise).
        RngStreams([7]).stream(2, "payload").standard_normal(100)
        again = RngStreams([7]).stream(1, "noise").standard_normal(4)
        assert np.array_equal(first, again)

    def test_different_entropy_diverges(self):
        a = RngStreams([7]).stream(0, "x").standard_normal(4)
        b = RngStreams([8]).stream(0, "x").standard_normal(4)
        assert not np.array_equal(a, b)

    def test_string_key_material_is_stable(self):
        # SHA-256 folding, not Python hash(): stable across processes.
        assert RngStreams.key_material("payload") == RngStreams.key_material("payload")
        assert RngStreams.key_material("payload") != RngStreams.key_material("noise")
        assert RngStreams.key_material(np.int64(5)) == 5
        # The offered-load entropy folds its traffic model name this way.
        assert RngStreams.key_material("poisson") == 3368252029
