"""PeriodicTimer: drift-free cadence, cancellation, hot-path safety."""

import pytest

from repro.sim.engine import (
    HeapEventEngine,
    ReferenceHeapEngine,
    SimulationError,
)


class TestDriftFreeCadence:
    def test_fire_times_are_multiplicative_not_additive(self):
        # anchor + n*period, NOT an accumulated sum: 0.1 is not exactly
        # representable, so additive accumulation drifts within ~30 ticks.
        engine = HeapEventEngine()
        times = []
        timer = engine.schedule_periodic(0.0, 0.1, lambda: times.append(engine.now))
        engine.run(until=100.0)
        assert len(times) == 1001
        for n, t in enumerate(times):
            assert t == n * 0.1  # exact float equality: anchor + fires*period
        assert timer.fires == 1001

    def test_next_fire_time_property(self):
        engine = HeapEventEngine()
        seen = []
        timer = engine.schedule_periodic(5.0, 2.0, lambda: seen.append(timer.next_fire_time))
        assert timer.next_fire_time == 5.0
        engine.run(until=9.0)
        # During the callback the timer has already advanced its count.
        assert seen == [7.0, 9.0, 11.0]

    def test_anchor_offset_grid(self):
        engine = HeapEventEngine()
        times = []
        engine.schedule_periodic(3.5, 10.0, lambda: times.append(engine.now))
        engine.run(until=40.0)
        assert times == [3.5, 13.5, 23.5, 33.5]

    def test_reference_engine_accumulates(self):
        # The seed-emulating reference engine reschedules additively; with
        # an exactly representable period the cadence still matches.
        engine = ReferenceHeapEngine()
        times = []
        engine.schedule_periodic(0.0, 2.0, lambda: times.append(engine.now))
        engine.run(until=10.0)
        assert times == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]


class TestCancellation:
    @pytest.mark.parametrize("engine_cls", [HeapEventEngine, ReferenceHeapEngine])
    def test_cancel_mid_period_stops_future_fires(self, engine_cls):
        engine = engine_cls()
        fired = []
        timer = engine.schedule_periodic(1.0, 1.0, lambda: fired.append(engine.now))
        engine.run(until=3.5)
        assert fired == [1.0, 2.0, 3.0]
        timer.cancel()
        assert timer.cancelled and not timer.active
        engine.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_cancel_from_own_callback(self):
        engine = HeapEventEngine()
        fired = []

        def tick():
            fired.append(engine.now)
            if len(fired) == 3:
                timer.cancel()

        timer = engine.schedule_periodic(1.0, 1.0, tick)
        engine.run(until=20.0)
        assert fired == [1.0, 2.0, 3.0]
        assert engine.live_pending_events == 0

    def test_cancel_via_engine_cancel(self):
        engine = HeapEventEngine()
        fired = []
        timer = engine.schedule_periodic(1.0, 1.0, lambda: fired.append(engine.now))
        engine.cancel(timer)
        engine.run(until=5.0)
        assert fired == []
        assert engine.live_pending_events == 0

    def test_double_cancel_is_idempotent(self):
        engine = HeapEventEngine()
        timer = engine.schedule_periodic(1.0, 1.0, lambda: None)
        timer.cancel()
        timer.cancel()
        assert engine.live_pending_events == 0


class TestHotPathSafety:
    def test_callback_scheduling_earlier_event_preserves_order(self):
        # The fast in-place reschedule (heapreplace) must not steal the
        # heap top from an earlier event the callback just scheduled.
        engine = HeapEventEngine()
        order = []

        def tick():
            order.append(("tick", engine.now))
            engine.schedule_at(engine.now, lambda: order.append(("inner", engine.now)), priority=0)

        engine.schedule_periodic(1.0, 1.0, tick, priority=3)
        engine.run(until=2.0)
        assert order == [("tick", 1.0), ("inner", 1.0), ("tick", 2.0), ("inner", 2.0)]

    def test_two_interleaved_timers(self):
        engine = HeapEventEngine()
        log = []
        engine.schedule_periodic(0.0, 3.0, lambda: log.append(("a", engine.now)))
        engine.schedule_periodic(1.0, 3.0, lambda: log.append(("b", engine.now)))
        engine.run(until=7.0)
        assert log == [
            ("a", 0.0), ("b", 1.0), ("a", 3.0), ("b", 4.0), ("a", 6.0), ("b", 7.0),
        ]

    def test_live_count_stable_across_reschedules(self):
        engine = HeapEventEngine()
        engine.schedule_periodic(1.0, 1.0, lambda: None)
        engine.run(until=100.0)
        # One live entry (the timer's next occurrence), no leak.
        assert engine.live_pending_events == 1
        assert engine.pending_events == 1

    def test_invalid_period_rejected(self):
        engine = HeapEventEngine()
        with pytest.raises(SimulationError):
            engine.schedule_periodic(0.0, 0.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule_periodic(0.0, -1.0, lambda: None)

    @pytest.mark.parametrize("engine_cls", [HeapEventEngine, ReferenceHeapEngine])
    def test_nan_period_or_anchor_rejected(self, engine_cls):
        engine = engine_cls()
        with pytest.raises(SimulationError):
            engine.schedule_periodic(0.0, float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule_periodic(float("nan"), 1.0, lambda: None)
        assert engine.pending_events == 0
