"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import EventEngine, SimulationError


def test_initial_time_defaults_to_zero():
    assert EventEngine().now == 0.0


def test_initial_time_configurable():
    assert EventEngine(start_time=42.0).now == 42.0


def test_events_run_in_time_order():
    engine = EventEngine()
    seen = []
    engine.schedule_at(5.0, lambda: seen.append(5.0))
    engine.schedule_at(1.0, lambda: seen.append(1.0))
    engine.schedule_at(3.0, lambda: seen.append(3.0))
    engine.run()
    assert seen == [1.0, 3.0, 5.0]


def test_now_advances_to_event_time():
    engine = EventEngine()
    times = []
    engine.schedule_at(7.5, lambda: times.append(engine.now))
    engine.run()
    assert times == [7.5]
    assert engine.now == 7.5


def test_same_time_events_fifo_by_scheduling_order():
    engine = EventEngine()
    seen = []
    for tag in range(5):
        engine.schedule_at(1.0, lambda tag=tag: seen.append(tag))
    engine.run()
    assert seen == [0, 1, 2, 3, 4]


def test_priority_orders_same_time_events():
    engine = EventEngine()
    seen = []
    engine.schedule_at(1.0, lambda: seen.append("low"), priority=5)
    engine.schedule_at(1.0, lambda: seen.append("high"), priority=0)
    engine.run()
    assert seen == ["high", "low"]


def test_schedule_after_uses_current_time():
    engine = EventEngine()
    seen = []
    engine.schedule_at(10.0, lambda: engine.schedule_after(5.0, lambda: seen.append(engine.now)))
    engine.run()
    assert seen == [15.0]


def test_schedule_in_past_raises():
    engine = EventEngine()
    engine.schedule_at(10.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(5.0, lambda: None)


def test_negative_delay_raises():
    engine = EventEngine()
    with pytest.raises(SimulationError):
        engine.schedule_after(-1.0, lambda: None)


def test_nan_time_or_delay_raises():
    # Every comparison with NaN is false: a NaN entry would run despite
    # run(until=...), set now to NaN and so disable the past-time guard.
    engine = EventEngine()
    with pytest.raises(SimulationError):
        engine.schedule_at(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule_after(float("nan"), lambda: None)
    engine.run(until=10.0)
    assert engine.now == 10.0 and engine.events_processed == 0
    with pytest.raises(SimulationError):
        engine.schedule_at(2.0, lambda: None)


def test_cancel_prevents_execution():
    engine = EventEngine()
    seen = []
    handle = engine.schedule_at(1.0, lambda: seen.append("cancelled"))
    engine.schedule_at(2.0, lambda: seen.append("kept"))
    engine.cancel(handle)
    engine.run()
    assert seen == ["kept"]


def test_cancel_twice_is_noop():
    engine = EventEngine()
    handle = engine.schedule_at(1.0, lambda: None)
    engine.cancel(handle)
    engine.cancel(handle)
    engine.run()
    assert engine.events_processed == 0


def test_run_until_stops_before_later_events():
    engine = EventEngine()
    seen = []
    engine.schedule_at(1.0, lambda: seen.append(1))
    engine.schedule_at(10.0, lambda: seen.append(10))
    engine.run(until=5.0)
    assert seen == [1]
    assert engine.now == 5.0
    engine.run()
    assert seen == [1, 10]


def test_run_until_executes_events_at_exact_boundary():
    engine = EventEngine()
    seen = []
    engine.schedule_at(5.0, lambda: seen.append(5))
    engine.run(until=5.0)
    assert seen == [5]


def test_run_until_with_empty_queue_advances_clock():
    engine = EventEngine()
    engine.run(until=100.0)
    assert engine.now == 100.0


def test_max_events_limits_execution():
    engine = EventEngine()
    seen = []
    for i in range(10):
        engine.schedule_at(float(i), lambda i=i: seen.append(i))
    engine.run(max_events=3)
    assert seen == [0, 1, 2]


def test_step_executes_one_event():
    engine = EventEngine()
    seen = []
    engine.schedule_at(1.0, lambda: seen.append(1))
    engine.schedule_at(2.0, lambda: seen.append(2))
    assert engine.step() is True
    assert seen == [1]
    assert engine.step() is True
    assert engine.step() is False


def test_step_skips_cancelled():
    engine = EventEngine()
    handle = engine.schedule_at(1.0, lambda: None)
    engine.cancel(handle)
    assert engine.step() is False


def test_events_scheduled_during_run_execute():
    engine = EventEngine()
    seen = []

    def chain(depth):
        seen.append(depth)
        if depth < 3:
            engine.schedule_after(1.0, lambda: chain(depth + 1))

    engine.schedule_at(0.0, lambda: chain(0))
    engine.run()
    assert seen == [0, 1, 2, 3]
    assert engine.now == 3.0


def test_reentrant_run_raises():
    engine = EventEngine()
    failures = []

    def reenter():
        try:
            engine.run()
        except SimulationError:
            failures.append(True)

    engine.schedule_at(1.0, reenter)
    engine.run()
    assert failures == [True]


def test_events_processed_counter():
    engine = EventEngine()
    for i in range(5):
        engine.schedule_at(float(i), lambda: None)
    engine.run()
    assert engine.events_processed == 5


def test_pending_events_counter():
    engine = EventEngine()
    engine.schedule_at(1.0, lambda: None)
    engine.schedule_at(2.0, lambda: None)
    assert engine.pending_events == 2


# ---------------------------------------------------------------------------
# Live-event accounting, args-based scheduling, engine variants
# ---------------------------------------------------------------------------


def test_live_pending_events_excludes_tombstones():
    engine = EventEngine()
    keep = engine.schedule_at(1.0, lambda: None)
    drop = engine.schedule_at(2.0, lambda: None)
    engine.cancel(drop)
    # The heap still holds the tombstone; the live count does not.
    assert engine.pending_events == 2
    assert engine.live_pending_events == 1
    engine.cancel(keep)
    assert engine.live_pending_events == 0


def test_cancel_does_not_leak_memory():
    # The seed engine kept every cancelled handle in a `_cancelled` set
    # forever; tombstoning must leave no such growth behind.
    engine = EventEngine()
    for _ in range(3):
        for _ in range(1000):
            handle = engine.schedule_at(engine.now + 1.0, lambda: None)
            engine.cancel(handle)
        engine.run(until=engine.now + 2.0)
        assert engine.pending_events == 0
        assert engine.live_pending_events == 0
    assert not hasattr(engine, "_cancelled")


def test_cancel_after_execution_is_noop():
    engine = EventEngine()
    handle = engine.schedule_at(1.0, lambda: None)
    engine.run()
    engine.cancel(handle)  # must not raise or corrupt the live count
    assert engine.live_pending_events == 0


def test_peak_pending_events_high_water_mark():
    engine = EventEngine()
    for i in range(10):
        engine.schedule_at(float(i + 1), lambda: None)
    assert engine.peak_pending_events == 10
    engine.run()
    # Draining does not lower the recorded peak.
    assert engine.peak_pending_events == 10
    assert engine.live_pending_events == 0


def test_schedule_with_args_avoids_closures():
    engine = EventEngine()
    seen = []
    engine.schedule_at(1.0, lambda a, b: seen.append((a, b)), args=("x", 3))
    engine.schedule_after(2.0, seen.append, args=(("y", 4),))
    engine.run()
    assert seen == [("x", 3), ("y", 4)]


def test_make_engine_factory():
    from repro.sim.engine import (
        ENGINE_FACTORIES,
        HeapEventEngine,
        ReferenceHeapEngine,
        make_engine,
    )

    assert set(ENGINE_FACTORIES) == {"heap", "reference"}
    assert isinstance(make_engine("heap"), HeapEventEngine)
    assert isinstance(make_engine("reference"), ReferenceHeapEngine)
    assert make_engine("heap", start_time=9.0).now == 9.0
    for unknown in ("quantum", "wheel", "calendar"):
        with pytest.raises(ValueError, match=r"\['heap', 'reference'\]"):
            make_engine(unknown)


def test_reference_engine_matches_heap_ordering():
    from repro.sim.engine import ReferenceHeapEngine

    logs = {}
    for cls in (EventEngine, ReferenceHeapEngine):
        engine = cls()
        log = []
        # Mixed priorities, shared timestamps, cancellations, chains.
        engine.schedule_at(5.0, lambda log=log: log.append("a5"))
        engine.schedule_at(5.0, lambda log=log: log.append("b5-p0"), priority=0)
        dead = engine.schedule_at(3.0, lambda log=log: log.append("dead"))
        engine.cancel(dead)

        def chain(engine=engine, log=log):
            log.append("chain@" + str(engine.now))
            engine.schedule_after(0.5, lambda: log.append("late@" + str(engine.now)))

        engine.schedule_at(1.0, chain)
        engine.run(until=10.0)
        logs[cls] = (log, engine.now, engine.events_processed)
    heap_log = logs[EventEngine]
    reference_log = logs[ReferenceHeapEngine]
    assert heap_log[0] == reference_log[0] == ["chain@1.0", "late@1.5", "b5-p0", "a5"]
    assert heap_log[1] == reference_log[1] == 10.0
    assert heap_log[2] == reference_log[2]


def test_scheduler_protocols_runtime_checkable():
    from repro.sim.engine import ReferenceHeapEngine, Scheduler, SimClock

    for cls in (EventEngine, ReferenceHeapEngine):
        engine = cls()
        assert isinstance(engine, SimClock)
        assert isinstance(engine, Scheduler)
