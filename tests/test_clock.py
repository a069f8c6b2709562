"""Unit tests for the virtual clock and timer service (Active Expiration)."""

import pytest

from repro.dsms import Engine
from repro.dsms.clock import VirtualClock, make_clock
from repro.dsms.columns import ColumnBatch
from repro.dsms.errors import ClockError

NAN = float("nan")


class TestAdvance:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance_moves_time(self):
        clock = VirtualClock()
        clock.advance(5.0)
        assert clock.now == 5.0

    def test_advance_backwards_raises(self):
        clock = VirtualClock()
        clock.advance(5.0)
        with pytest.raises(ClockError):
            clock.advance(4.0)

    def test_advance_same_time_ok(self):
        clock = VirtualClock()
        clock.advance(5.0)
        clock.advance(5.0)
        assert clock.now == 5.0

    def test_started_flag(self):
        clock = VirtualClock()
        assert not clock.started
        clock.advance(0.0)
        assert clock.started


class TestNaN:
    """A NaN timestamp is neither before nor after any time, so the clock
    refuses it rather than letting it through every ordering check."""

    @pytest.mark.parametrize("started", [False, True])
    @pytest.mark.parametrize("method", ["advance", "advance_if_due"])
    def test_clock_rejects_nan(self, method, started):
        clock = VirtualClock()
        if started:
            clock.advance(5.0)
        with pytest.raises(ClockError, match="NaN"):
            getattr(clock, method)(NAN)
        assert clock.started is started
        assert clock.now == (5.0 if started else 0.0)
        clock.advance(6.0)
        with pytest.raises(ClockError, match="backwards"):
            getattr(clock, method)(1.0)

    def test_nan_with_a_due_timer_rejected(self):
        clock = VirtualClock()
        fired = []
        clock.schedule(1.0, fired.append)
        clock.advance_if_due(0.5)
        with pytest.raises(ClockError):
            clock.advance_if_due(NAN)
        assert fired == []

    @staticmethod
    def _push(engine, entry, ts):
        values = {"a": 1}
        if entry == "push":
            engine.push("s", values, ts=ts)
        elif entry == "push_batch":
            engine.push_batch("s", [(values, ts)])
        elif entry == "run_trace":
            engine.run_trace([("s", values, ts)])
        else:
            schema = engine.streams.get("s").schema
            engine.push_columns("s", ColumnBatch.from_rows(schema, [(values, ts)]))

    @pytest.mark.parametrize("started", [False, True])
    @pytest.mark.parametrize(
        "entry", ["push", "push_batch", "run_trace", "push_columns"]
    )
    def test_engine_rejects_nan_ts(self, entry, started):
        engine = Engine()
        engine.create_stream("s", "a int")
        got = engine.collect("s")
        if started:
            engine.push("s", {"a": 0}, ts=1.0)
        with pytest.raises(ClockError, match="NaN"):
            self._push(engine, entry, NAN)
        # The clock is not poisoned: going back in time is still refused.
        if started:
            with pytest.raises(ClockError, match="backwards"):
                self._push(engine, entry, 0.0)
        self._push(engine, entry, 2.0)
        assert [t.ts for t in got.results] == ([1.0, 2.0] if started else [2.0])


class TestTimers:
    def test_timer_fires_at_deadline(self):
        clock = VirtualClock()
        fired = []
        clock.schedule(10.0, fired.append)
        clock.advance(9.9)
        assert fired == []
        clock.advance(10.0)
        assert fired == [10.0]

    def test_timer_fires_when_overshot(self):
        clock = VirtualClock()
        fired = []
        clock.schedule(10.0, fired.append)
        clock.advance(100.0)
        assert fired == [10.0]  # callback sees its own deadline

    def test_timers_fire_in_deadline_order(self):
        clock = VirtualClock()
        order = []
        clock.schedule(20.0, lambda t: order.append("b"))
        clock.schedule(10.0, lambda t: order.append("a"))
        clock.schedule(30.0, lambda t: order.append("c"))
        clock.advance(50.0)
        assert order == ["a", "b", "c"]

    def test_equal_deadlines_fire_in_schedule_order(self):
        clock = VirtualClock()
        order = []
        clock.schedule(10.0, lambda t: order.append(1))
        clock.schedule(10.0, lambda t: order.append(2))
        clock.advance(10.0)
        assert order == [1, 2]

    def test_cancelled_timer_skipped(self):
        clock = VirtualClock()
        fired = []
        timer = clock.schedule(10.0, fired.append)
        timer.cancel()
        clock.advance(20.0)
        assert fired == []

    def test_pending_timers_counts_armed_only(self):
        clock = VirtualClock()
        clock.schedule(10.0, lambda t: None)
        timer = clock.schedule(20.0, lambda t: None)
        timer.cancel()
        assert clock.pending_timers() == 1

    def test_advance_returns_fire_count(self):
        clock = VirtualClock()
        clock.schedule(1.0, lambda t: None)
        clock.schedule(2.0, lambda t: None)
        assert clock.advance(5.0) == 2

    def test_callback_scheduling_new_timer_same_advance(self):
        clock = VirtualClock()
        fired = []

        def chain(t):
            fired.append(t)
            if t < 3:
                clock.schedule(t + 1, chain)

        clock.schedule(1.0, chain)
        clock.advance(10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_past_deadline_fires_on_next_advance_not_synchronously(self):
        clock = VirtualClock()
        clock.advance(10.0)
        fired = []
        clock.schedule(5.0, fired.append)
        assert fired == []  # not synchronous
        clock.advance(10.0)  # zero-width advance
        assert fired == [5.0]


class TestDrain:
    def test_drain_fires_everything(self):
        clock = VirtualClock()
        fired = []
        clock.schedule(100.0, fired.append)
        clock.schedule(200.0, fired.append)
        count = clock.drain()
        assert count == 2
        assert fired == [100.0, 200.0]
        assert clock.now >= 200.0

    def test_drain_skips_cancelled(self):
        clock = VirtualClock()
        timer = clock.schedule(100.0, lambda t: None)
        timer.cancel()
        assert clock.drain() == 0

    def test_drain_handles_cascading_timers(self):
        clock = VirtualClock()
        fired = []

        def cascade(t):
            fired.append(t)
            if len(fired) < 3:
                clock.schedule(t + 10, cascade)

        clock.schedule(10.0, cascade)
        clock.drain()
        assert fired == [10.0, 20.0, 30.0]


class TestMakeClock:
    def test_passthrough(self):
        clock = VirtualClock()
        assert make_clock(clock) is clock

    def test_fresh(self):
        assert isinstance(make_clock(None), VirtualClock)
