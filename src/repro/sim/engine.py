"""Discrete-event simulation core: clocks, schedulers, event engines.

The engine is the substrate on which every experiment in this repository
runs.  All times are simulated microseconds expressed as floats.  The
module is layered:

* :class:`SimClock` / :class:`Scheduler` — structural protocols any
  event core must satisfy (components depend only on these);
* :class:`HeapEventEngine` — the one production scheduler, a binary
  heap (exported as :data:`EventEngine` for backward compatibility);
* :class:`ReferenceHeapEngine` — the same heap with periodic events
  pushed anew each tick: the oracle the differential and Hypothesis
  suites compare :class:`HeapEventEngine` against;
* :class:`PeriodicTimer` — an engine-native recurring event that fires
  inline in the event loop and is rescheduled in place (its heap entry
  re-keyed and sifted with one ``heapreplace``) instead of pushed anew
  each tick, which is what makes τ-period heartbeats cheap at large N.

Design notes
------------
* Events scheduled for the same instant are executed in FIFO order of
  scheduling (the monotonically increasing ``sequence`` breaks ties), so a
  run is fully deterministic given a fixed seed for the latency models.
* ``priority`` orders events that share a timestamp *across* components:
  deliveries (priority 0) happen before the processing they trigger
  (priority 1), which keeps boundary cases such as "trade submitted at the
  exact moment a batch is delivered" well defined.
* Heap entries are mutable lists ``[time, priority, sequence, callback,
  args]``.  Cancellation tombstones the entry in place (``callback =
  None``) — O(1), no auxiliary set that could grow unboundedly — and
  executed entries are tombstoned too, so cancelling an already-executed
  event is a free no-op.
* Events nobody will cancel — every link delivery — go through
  :meth:`HeapEventEngine.post_at`, which pushes the same entry as
  :meth:`~HeapEventEngine.schedule_at` without building the
  :class:`ScheduledEvent` handle.
* The engine knows nothing about networking or exchanges; components
  schedule plain callbacks.  Thin adapters in :mod:`repro.net` and
  :mod:`repro.core` translate domain events into callbacks.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, Iterator, List, Optional, Protocol, Tuple, Union, runtime_checkable

__all__ = [
    "EventEngine",
    "HeapEventEngine",
    "ReferenceHeapEngine",
    "PeriodicTimer",
    "ScheduledEvent",
    "SimulationError",
    "SimClock",
    "Scheduler",
    "ENGINE_FACTORIES",
    "make_engine",
]


class SimulationError(RuntimeError):
    """Raised for invalid scheduler use (e.g. scheduling in the past)."""


@runtime_checkable
class SimClock(Protocol):
    """Anything that exposes the current simulated time."""

    @property
    def now(self) -> float: ...


@runtime_checkable
class Scheduler(Protocol):
    """The scheduling surface components program against.

    Components and the :class:`~repro.sim.runtime.Runtime` depend only
    on this protocol, never on a concrete engine class.
    """

    @property
    def now(self) -> float: ...

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        priority: int = 1,
        args: Tuple[Any, ...] = (),
    ) -> "ScheduledEvent": ...

    def post_at(
        self,
        time: float,
        callback: Callable[..., None],
        priority: int = 1,
        args: Tuple[Any, ...] = (),
    ) -> None: ...

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., None],
        priority: int = 1,
        args: Tuple[Any, ...] = (),
    ) -> "ScheduledEvent": ...

    def schedule_periodic(
        self,
        start_time: float,
        period: float,
        callback: Callable[[], None],
        priority: int = 1,
    ) -> "PeriodicTimer": ...

    def cancel(self, event: Union["ScheduledEvent", "PeriodicTimer"]) -> None: ...

    def step(self) -> bool: ...

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None: ...


class ScheduledEvent:
    """Handle for a scheduled event; lets callers cancel it later."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    @property
    def time(self) -> float:
        return self._entry[0]

    @property
    def priority(self) -> int:
        return self._entry[1]

    @property
    def sequence(self) -> int:
        return self._entry[2]

    @property
    def dead(self) -> bool:
        """True once the event has executed or been cancelled."""
        return self._entry[3] is None

    def key(self) -> Tuple[float, int, int]:
        return (self._entry[0], self._entry[1], self._entry[2])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "dead" if self.dead else "pending"
        return f"ScheduledEvent(t={self.time}, prio={self.priority}, seq={self.sequence}, {state})"


class PeriodicTimer:
    """A recurring event owned by the engine.

    The engine fires ``callback`` at ``anchor``, ``anchor + period``,
    ``anchor + 2·period``, … — fire times are computed multiplicatively
    from the anchor, so the cadence is drift-free regardless of how many
    ticks have elapsed.  On the heap engine's hot path the timer's one
    heap entry is re-keyed and sifted with a single ``heapreplace``
    instead of a pop + push per tick.

    Cancel with :meth:`cancel` (safe mid-period and from within the
    timer's own callback); the engine drops the queue entry lazily.
    """

    __slots__ = ("_engine", "_anchor", "_period", "_callback", "_priority", "_fires", "_active")

    def __init__(
        self,
        engine: "Scheduler",
        anchor: float,
        period: float,
        callback: Callable[[], None],
        priority: int = 1,
    ) -> None:
        if not (period > 0):  # also rejects NaN
            raise SimulationError(f"periodic timer needs a positive period, got {period}")
        self._engine = engine
        self._anchor = float(anchor)
        self._period = float(period)
        self._callback = callback
        self._priority = priority
        self._fires = 0
        self._active = True

    @property
    def period(self) -> float:
        return self._period

    @property
    def anchor(self) -> float:
        return self._anchor

    @property
    def priority(self) -> int:
        return self._priority

    @property
    def fires(self) -> int:
        """Number of times the callback has run."""
        return self._fires

    @property
    def active(self) -> bool:
        return not self.cancelled

    @property
    def cancelled(self) -> bool:
        return not self._active

    @property
    def next_fire_time(self) -> Optional[float]:
        """The next tick's time, or ``None`` once cancelled."""
        if not self._active:
            return None
        return self._anchor + self._fires * self._period

    def cancel(self) -> None:
        """Stop the timer; pending queue entries are dropped lazily."""
        if self._active:
            self._active = False
            self._engine._on_timer_cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self._active else "cancelled"
        return (
            f"PeriodicTimer(anchor={self._anchor}, period={self._period}, "
            f"fires={self._fires}, {state})"
        )


class HeapEventEngine:
    """A deterministic discrete-event scheduler over one binary heap.

    Parameters
    ----------
    start_time:
        Simulated time at which the engine starts (microseconds).

    Examples
    --------
    >>> engine = HeapEventEngine()
    >>> seen = []
    >>> _ = engine.schedule_at(5.0, lambda: seen.append(engine.now))
    >>> _ = engine.schedule_at(1.0, lambda: seen.append(engine.now))
    >>> engine.run()
    >>> seen
    [1.0, 5.0]
    """

    __slots__ = ("now", "_sequence", "_running", "_events_processed", "_live", "_peak_pending", "_heap")

    def __init__(self, start_time: float = 0.0) -> None:
        # Current simulated time in microseconds.  A plain attribute, not
        # a property: it is read a few times per event, and a property
        # read is one more Python frame.  Only the event loop assigns it.
        self.now: float = float(start_time)
        self._sequence = itertools.count()
        self._running = False
        self._events_processed = 0
        # Live (not cancelled, not executed) entries and the high-water
        # mark of raw queue size (tombstones included — it measures
        # memory, not logical load).
        self._live = 0
        self._peak_pending = 0
        self._heap: List[list] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed

    @property
    def live_pending_events(self) -> int:
        """Number of events that will still execute (excludes cancelled)."""
        return self._live

    @property
    def peak_pending_events(self) -> int:
        """High-water mark of the queue size (including tombstones)."""
        return self._peak_pending

    @property
    def pending_events(self) -> int:
        """Number of events still in the queue (including cancelled)."""
        return len(self._heap)

    def pending_calls(self) -> Iterator[Tuple[Callable[..., None], Tuple[Any, ...]]]:
        """``(callback, args)`` of every live one-shot event, in queue
        order (not time order).  Periodic timers are left out.  Read-only:
        it lets a caller ask what is still due without touching the heap.
        """
        for entry in self._heap:
            callback = entry[3]
            if callback is not None and not self._is_tick(callback):
                yield callback, entry[4]

    def _is_tick(self, callback: Callable[..., None]) -> bool:
        return type(callback) is PeriodicTimer

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    # The guards are written ``not (x >= bound)`` so that NaN, for which
    # every comparison is false, is rejected like any other bad time.
    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        priority: int = 1,
        args: Tuple[Any, ...] = (),
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Raises
        ------
        SimulationError
            If ``time`` is before the current simulated time (or NaN).
        """
        if not (time >= self.now):
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        entry = [float(time), priority, next(self._sequence), callback, args]
        heap = self._heap
        heapq.heappush(heap, entry)
        if len(heap) > self._peak_pending:
            self._peak_pending = len(heap)
        self._live += 1
        return ScheduledEvent(entry)

    def post_at(
        self,
        time: float,
        callback: Callable[..., None],
        priority: int = 1,
        args: Tuple[Any, ...] = (),
    ) -> None:
        """Schedule ``callback(*args)`` at ``time``, returning no handle.

        The event cannot be cancelled; otherwise it is exactly
        :meth:`schedule_at` (same entry, same guard, same sequence draw).
        Links deliver every message through it.

        Raises
        ------
        SimulationError
            If ``time`` is before the current simulated time (or NaN).
        """
        if not (time >= self.now):
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        heap = self._heap
        heapq.heappush(heap, [float(time), priority, next(self._sequence), callback, args])
        if len(heap) > self._peak_pending:
            self._peak_pending = len(heap)
        self._live += 1

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., None],
        priority: int = 1,
        args: Tuple[Any, ...] = (),
    ) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` microseconds from now."""
        if not (delay >= 0):
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, callback, priority, args)

    def schedule_periodic(
        self,
        start_time: float,
        period: float,
        callback: Callable[[], None],
        priority: int = 1,
    ) -> PeriodicTimer:
        """Fire ``callback`` at ``start_time`` and every ``period`` after.

        Returns the :class:`PeriodicTimer` handle (cancel to stop).
        """
        if not (start_time >= self.now):
            raise SimulationError(
                f"cannot schedule timer at {start_time} before current time {self.now}"
            )
        timer = PeriodicTimer(self, start_time, period, callback, priority)
        heap = self._heap
        heapq.heappush(heap, [float(start_time), priority, next(self._sequence), timer, ()])
        if len(heap) > self._peak_pending:
            self._peak_pending = len(heap)
        self._live += 1
        return timer

    def cancel(self, event: Union[ScheduledEvent, PeriodicTimer]) -> None:
        """Cancel a previously scheduled event or periodic timer.

        Cancellation tombstones the queue entry in place; the slot is
        reclaimed when it reaches the front.  Cancelling an
        already-executed or already-cancelled event is a no-op and leaves
        no residue.
        """
        if isinstance(event, PeriodicTimer):
            event.cancel()
            return
        entry = event._entry
        if entry[3] is not None:
            entry[3] = None
            self._live -= 1

    def _on_timer_cancel(self, timer: PeriodicTimer) -> None:
        # Called exactly once per timer (PeriodicTimer.cancel guards).
        self._live -= 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event was executed, ``False`` if the queue
        is empty.
        """
        before = self._events_processed
        self._advance(None, 1)
        return self._events_processed != before

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Parameters
        ----------
        until:
            Stop once the next event would be strictly after this time.
            The clock is advanced to ``until`` when the horizon is hit.
        max_events:
            Safety valve for runaway feedback loops in tests.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        try:
            self._advance(until, max_events)
        finally:
            self._running = False

    def _advance(self, until: Optional[float], max_events: Optional[int]) -> None:
        """The one event loop, shared by :meth:`run` and :meth:`step`.

        A timer tick runs inline: its entry is re-keyed to the next tick
        and sifted down with one ``heapreplace`` while it is still the
        root; if the callback scheduled something ahead of it, the entry
        is tombstoned and the next tick pushed afresh.
        """
        heap = self._heap
        heappop, heappush, heapreplace = heapq.heappop, heapq.heappush, heapq.heapreplace
        sequence = self._sequence
        timer_type = PeriodicTimer
        processed = 0
        while heap:
            entry = heap[0]
            callback = entry[3]
            if callback is None:
                heappop(heap)
                continue
            is_timer = type(callback) is timer_type
            if is_timer and not callback._active:
                heappop(heap)
                continue
            time = entry[0]
            if until is not None and time > until:
                if until > self.now:
                    self.now = until
                return
            if max_events is not None and processed >= max_events:
                return
            self.now = time
            self._events_processed += 1
            processed += 1
            if is_timer:
                callback._fires += 1
                callback._callback()
                if callback._active:
                    next_time = callback._anchor + callback._fires * callback._period
                    if heap and heap[0] is entry:
                        entry[0] = next_time
                        entry[2] = next(sequence)
                        heapreplace(heap, entry)
                    else:
                        entry[3] = None
                        heappush(heap, [next_time, entry[1], next(sequence), callback, ()])
                        if len(heap) > self._peak_pending:
                            self._peak_pending = len(heap)
                elif heap and heap[0] is entry:
                    # Cancelled from its own callback (cancel() already
                    # adjusted the live count): drop the entry.
                    heappop(heap)
                else:
                    entry[3] = None
                continue
            heappop(heap)
            entry[3] = None
            self._live -= 1
            args = entry[4]
            if args:
                callback(*args)
            else:
                callback()
        if until is not None and until > self.now:
            self.now = until


class ReferenceHeapEngine(HeapEventEngine):
    """The pre-optimization engine behaviour, kept as the test oracle.

    Periodic work is emulated the way components used to do it by hand:
    every tick pops its entry and pushes a fresh one (closure reschedule,
    additive accumulation).  ``tests/test_engine_differential.py`` runs
    the same programs and deployments on this engine and on
    :class:`HeapEventEngine` and requires identical fire logs, digests,
    audit reports and channel odometers.
    """

    __slots__ = ()

    def schedule_periodic(
        self,
        start_time: float,
        period: float,
        callback: Callable[[], None],
        priority: int = 1,
    ) -> PeriodicTimer:
        if not (start_time >= self.now):
            raise SimulationError(
                f"cannot schedule timer at {start_time} before current time {self.now}"
            )
        timer = PeriodicTimer(self, start_time, period, callback, priority)
        self.schedule_at(start_time, _EmulatedTick(self, timer), priority)
        return timer

    def _is_tick(self, callback: Callable[..., None]) -> bool:
        return type(callback) is _EmulatedTick

    def _on_timer_cancel(self, timer: PeriodicTimer) -> None:
        # The emulated timer's pending tick entry stays live until popped
        # (matching the historical push-per-tick behaviour); nothing to
        # account for here.
        pass


class _EmulatedTick:
    """One :class:`ReferenceHeapEngine` timer tick, as a one-shot event
    that re-posts itself ``period`` later.  A class rather than a closure
    so :meth:`HeapEventEngine.pending_calls` can tell ticks from one-shots.
    """

    __slots__ = ("_engine", "_timer")

    def __init__(self, engine: ReferenceHeapEngine, timer: PeriodicTimer) -> None:
        self._engine = engine
        self._timer = timer

    def __call__(self) -> None:
        timer = self._timer
        if not timer._active:
            return
        timer._fires += 1
        timer._callback()
        if timer._active:
            self._engine.schedule_after(timer._period, self, timer._priority)


# The historical name: the default engine every existing construction
# site (and test) uses.
EventEngine = HeapEventEngine


ENGINE_FACTORIES: Dict[str, Callable[..., HeapEventEngine]] = {
    "heap": HeapEventEngine,
    "reference": ReferenceHeapEngine,
}


def make_engine(kind: str = "heap", start_time: float = 0.0) -> HeapEventEngine:
    """Build an engine by name (``heap`` or ``reference``)."""
    try:
        factory = ENGINE_FACTORIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown engine kind {kind!r}; choose from {sorted(ENGINE_FACTORIES)}"
        ) from None
    return factory(start_time=start_time)
