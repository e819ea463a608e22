"""Property suite for :class:`PeriodicTimer` on the heap engine.

The heap engine reschedules a timer's queue entry in place after each
tick.  These properties pin what the timer API promises regardless: for
arbitrary (period, phase) sets every timer is drift-free (tick k fires
at ``anchor + k * period`` exactly, no accumulating float error), the
tick sequences are those of the seed-faithful push-per-tick reference
engine, and no tick is missed or duplicated across cancel / re-anchor
("pause/resume" in this codebase is cancel plus a fresh timer, the
pattern ``ReleaseBuffer._reschedule_heartbeats`` uses) or mid-run
rescheduling from inside a callback.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.engine import HeapEventEngine, make_engine

_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Arbitrary (period, phase, priority) timer sets.  Periods repeat across
# draws, so same-period timers at many phases are exercised constantly.
_timer_sets = st.lists(
    st.tuples(
        st.sampled_from([2.0, 5.0, 7.5, 20.0]),  # period
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False, width=32),  # phase
        st.integers(min_value=0, max_value=3),  # priority
    ),
    min_size=1,
    max_size=12,
)


def _tick_log(engine, timers, horizon: float) -> List[Tuple[float, int]]:
    log: List[Tuple[float, int]] = []
    for index, (period, phase, priority) in enumerate(timers):
        engine.schedule_periodic(
            phase,
            period,
            lambda i=index: log.append((engine.now, i)),
            priority=priority,
        )
    engine.run(until=horizon)
    return log


# The seed-faithful reference engine re-schedules each tick *additively*
# (t += period), so for arbitrary anchors its fire times drift from the
# drift-free anchor + k*period grid at the float-ulp level.  On a dyadic
# grid every partial sum is exactly representable, so additive and
# multiplicative cadences coincide bit-for-bit and exact log equality is
# a valid oracle property.
_dyadic_timer_sets = st.lists(
    st.tuples(
        st.sampled_from([2.0, 5.0, 7.5, 20.0]),
        st.integers(min_value=0, max_value=320).map(lambda k: k / 8.0),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=12,
)


@_settings
@given(timers=_dyadic_timer_sets, horizon=st.floats(min_value=10.0, max_value=200.0))
def test_matches_seed_reference(timers, horizon):
    """In-place rescheduling matches the push-per-tick reference."""
    in_place = _tick_log(HeapEventEngine(), list(timers), horizon)
    reference = _tick_log(make_engine("reference"), list(timers), horizon)
    assert in_place == reference


@_settings
@given(
    period=st.sampled_from([1.5, 3.0, 20.0]),
    phase=st.floats(min_value=0.0, max_value=10.0, allow_nan=False, width=32),
    horizon=st.floats(min_value=20.0, max_value=500.0),
)
def test_drift_freedom(period, phase, horizon):
    """Tick k fires at exactly anchor + k*period — no accumulated error."""
    engine = HeapEventEngine()
    fire_times: List[float] = []
    engine.schedule_periodic(phase, period, lambda: fire_times.append(engine.now))
    engine.run(until=horizon)
    assert fire_times == [phase + k * period for k in range(len(fire_times))]
    # Nothing missed: the next tick is strictly beyond the horizon.
    assert phase + len(fire_times) * period > horizon


@_settings
@given(
    timers=_timer_sets,
    horizon=st.floats(min_value=30.0, max_value=120.0),
    cut=st.floats(min_value=5.0, max_value=100.0),
)
def test_no_missed_or_duplicate_ticks_across_pause_resume(timers, horizon, cut):
    """cancel + re-anchor at the next boundary loses and duplicates nothing.

    "Pausing" a timer mid-run and "resuming" it on its own grid must
    yield the same tick count as never touching it: the fresh timer's
    anchor is the first boundary at or after the cut, exactly how the
    release buffer re-anchors heartbeat timers.
    """
    if cut >= horizon:
        cut = horizon / 2.0
    engine = HeapEventEngine()
    log: List[Tuple[float, int]] = []
    handles = []
    for index, (period, phase, priority) in enumerate(timers):
        handles.append(
            (
                engine.schedule_periodic(
                    phase,
                    period,
                    lambda i=index: log.append((engine.now, i)),
                    priority=priority,
                ),
                index,
                period,
                phase,
                priority,
            )
        )
    engine.run(until=cut)
    # Pause everything, then resume each timer on its own grid.
    resume_anchors = {}
    for timer, index, period, phase, priority in handles:
        timer.cancel()
        next_anchor = phase + timer.fires * period
        while next_anchor <= engine.now:
            next_anchor += period  # boundary already passed while paused
        resume_anchors[index] = next_anchor
        engine.schedule_periodic(
            next_anchor,
            period,
            lambda i=index: log.append((engine.now, i)),
            priority=priority,
        )
    engine.run(until=horizon)
    # Per timer: exactly the on-grid boundaries up to the pause, then
    # exactly the on-grid boundaries from the resume anchor — nothing
    # missed inside either active window, nothing doubled.
    assert len(log) == len(set(log))
    for timer, index, period, phase, priority in handles:
        times = [t for (t, i) in log if i == index]
        expected = [phase + k * period for k in range(timer.fires)]
        t = resume_anchors[index]
        while t <= horizon:
            expected.append(t)
            t += period
        assert times == expected


@_settings
@given(
    period=st.sampled_from([2.0, 5.0]),
    n_timers=st.integers(min_value=2, max_value=8),
    horizon=st.floats(min_value=20.0, max_value=80.0),
)
def test_cancel_from_sibling_callback_suppresses_same_tick(period, n_timers, horizon):
    """A timer cancelling a later same-tick sibling suppresses it.

    All timers share (period, phase, priority), so they fire
    back-to-back; the first cancels the last on every tick.  The
    reference engine defines the expected interleaving (the grid is
    dyadic, so its additive cadence is exact).
    """

    def run(engine) -> List[Tuple[float, int]]:
        log: List[Tuple[float, int]] = []
        timers: List = []

        def first() -> None:
            log.append((engine.now, 0))
            timers[-1].cancel()

        timers.append(engine.schedule_periodic(0.0, period, first))
        for index in range(1, n_timers):
            timers.append(
                engine.schedule_periodic(
                    0.0, period, lambda i=index: log.append((engine.now, i))
                )
            )
        engine.run(until=horizon)
        return log

    assert run(HeapEventEngine()) == run(make_engine("reference"))


@_settings
@given(
    period=st.sampled_from([2.0, 7.5]),
    reschedule_at_fire=st.integers(min_value=1, max_value=5),
    new_period=st.sampled_from([1.0, 3.0, 11.0]),
    horizon=st.floats(min_value=40.0, max_value=120.0),
)
def test_reschedule_from_own_callback(period, reschedule_at_fire, new_period, horizon):
    """A timer replacing itself from its own callback ticks cleanly.

    The cadence switches grids at the reschedule point without a missed
    or doubled tick.
    """

    def run(engine) -> List[float]:
        fire_times: List[float] = []
        box: List = [None]

        def tick() -> None:
            fire_times.append(engine.now)
            if len(fire_times) == reschedule_at_fire:
                box[0].cancel()
                box[0] = engine.schedule_periodic(
                    engine.now + new_period, new_period, tick
                )

        box[0] = engine.schedule_periodic(0.0, period, tick)
        engine.run(until=horizon)
        return fire_times

    times = run(HeapEventEngine())
    assert times == run(make_engine("reference"))
    # Drift-free on both grids: before the switch on the old grid,
    # after it on the new one.
    switch = times[reschedule_at_fire - 1]
    for k, t in enumerate(times[:reschedule_at_fire]):
        assert t == k * period
    for k, t in enumerate(times[reschedule_at_fire:]):
        assert t == switch + (k + 1) * new_period


@_settings
@given(timers=_timer_sets, horizon=st.floats(min_value=20.0, max_value=100.0))
def test_fires_counters_match_logged_ticks(timers, horizon):
    """`timer.fires` equals the number of logged callbacks per timer."""
    engine = HeapEventEngine()
    log: List[Tuple[float, int]] = []
    handles = []
    for index, (period, phase, priority) in enumerate(timers):
        handles.append(
            engine.schedule_periodic(
                phase,
                period,
                lambda i=index: log.append((engine.now, i)),
                priority=priority,
            )
        )
    engine.run(until=horizon)
    per_timer = [0] * len(handles)
    for _, index in log:
        per_timer[index] += 1
    assert [t.fires for t in handles] == per_timer
