"""CES-side batching of market data (§4.1.2).

The CES splits its data stream into batches: each batch contains all the
points generated in the ``(1 + κ)·δ`` window after the previous batch.
Batches — not individual points — are what release buffers deliver
atomically, which (together with pacing) satisfies the necessary
condition of Corollary 1: any two points less than δ apart end up in the
same batch, hence with identical (zero) inter-delivery gaps everywhere.

Batch close semantics
---------------------
Windows form a fixed grid of span ``(1 + κ)·δ``.  Because the CES
produces the feed itself, it knows when the next point will be generated;
a batch is *emitted the moment it is determined* — i.e. as soon as the
next point is known to fall outside the current window — rather than at
the window-end timer.  This reproduces the latency behaviour of §6.3.1
exactly:

* span 25 µs, data every 40 µs → every batch holds one point and is
  emitted immediately ("the batching delay is zero");
* span 60 µs → two-point batches whose first point waits 40 µs more than
  the second (the CDF inflection of Figure 10);
* span 120 µs → three-point batches with extra delays 80/40/0 µs.

For feeds without a known cadence (``feed_interval=None``) the batcher
falls back to closing at the window-end timer.  The timer also acts as a
backstop for the determined mode (e.g. the final points of a run).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.exchange.messages import MarketDataBatch, MarketDataPoint
from repro.sim.engine import EventEngine, PeriodicTimer

__all__ = ["Batcher"]

BatchSink = Callable[[MarketDataBatch], None]


class Batcher:
    """Accumulates feed points into ``batch_span`` windows.

    Parameters
    ----------
    engine:
        The event engine.
    batch_span:
        ``(1 + κ)·δ`` — the window grid spacing.
    sink:
        Receives each closed batch (typically the multicast publisher).
    feed_interval:
        The feed's fixed cadence, enabling emit-on-determination.  When
        ``None``, batches close only at window ends.
    """

    def __init__(
        self,
        engine: EventEngine,
        batch_span: float,
        sink: Optional[BatchSink] = None,
        feed_interval: Optional[float] = None,
    ) -> None:
        if batch_span <= 0:
            raise ValueError("batch_span must be positive")
        if feed_interval is not None and feed_interval <= 0:
            raise ValueError("feed_interval must be positive when given")
        self.engine = engine
        self.batch_span = float(batch_span)
        self.sink = sink
        self.feed_interval = feed_interval
        self._pending: List[MarketDataPoint] = []
        self._window_end: Optional[float] = None
        self._window_timer_handle: Optional[PeriodicTimer] = None
        self._next_batch_id = 0
        self._started = False
        # Rate gate state: the two most recent close times (burst-2
        # token rule, see _maybe_emit).
        self._recent_closes: List[float] = []
        self._emit_scheduled = False
        self.batches_closed = 0

    def set_sink(self, sink: BatchSink) -> None:
        self.sink = sink

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    def start(self, start_time: float = 0.0) -> None:
        """Anchor the window grid at ``start_time`` and start the timer."""
        if self._started:
            raise RuntimeError("batcher already started")
        if self.sink is None:
            raise RuntimeError("batcher has no sink; call set_sink() first")
        self._started = True
        self._window_end = start_time + self.batch_span
        # Priority 0: at a shared timestamp the grid must advance before a
        # point generated exactly at the boundary is offered to the (new)
        # window — otherwise the determination check sees a stale window
        # end and closes batches early, violating the 1/span batch rate.
        self._window_timer_handle = self.engine.schedule_periodic(
            self._window_end, self.batch_span, self._window_timer, priority=0
        )

    def on_point(self, point: MarketDataPoint) -> None:
        """Accept a freshly generated data point into the open window."""
        if not self._started:
            raise RuntimeError("batcher not started")
        if self._pending and point.point_id != self._pending[-1].point_id + 1:
            raise ValueError(
                f"non-consecutive point id {point.point_id} after "
                f"{self._pending[-1].point_id}"
            )
        self._pending.append(point)
        if (
            self.feed_interval is not None
            and self.engine.now + self.feed_interval >= self._window_end - 1e-9
        ):
            # The next (native) point cannot land in this window: the
            # batch is determined.
            self._maybe_emit()

    def _window_timer(self) -> None:
        if self._pending:
            self._maybe_emit()
        # The timer has already advanced past this tick: its next fire
        # time IS the new window end (keeps grid and timer bit-identical).
        self._window_end = self._window_timer_handle.next_fire_time

    def _maybe_emit(self) -> None:
        """Emit now if the batch-rate cap allows, else at the allowed time.

        Injected points (external events, execution reports) arrive off
        the native cadence and can trigger determinations faster than one
        per window; without a gate the batch rate would exceed
        1/((1+κ)δ) and release-buffer pacing queues would diverge — the
        very guarantee batching exists to provide (§4.1.2).

        The gate is a burst-2 token rule: a close is allowed once at
        least ``2·span`` has elapsed since the close before last.  This
        caps the average rate at 1/span while permitting the grid's
        natural short/long alternation (e.g. 40/80 µs closes for span 60
        at a 40 µs feed — the exact §6.3.1 pattern), which a strict
        ≥ span gate would distort.
        """
        if self._emit_scheduled or not self._pending:
            return
        if len(self._recent_closes) < 2:
            earliest = float("-inf")
        else:
            earliest = self._recent_closes[-2] + 2.0 * self.batch_span
        if self.engine.now >= earliest - 1e-9:
            self._emit()
            return
        self._emit_scheduled = True
        self.engine.schedule_at(earliest, self._delayed_emit, priority=2)

    def _delayed_emit(self) -> None:
        self._emit_scheduled = False
        if self._pending:
            self._emit()

    def _emit(self) -> None:
        batch = MarketDataBatch(
            batch_id=self._next_batch_id,
            points=tuple(self._pending),
            close_time=self.engine.now,
        )
        self._next_batch_id += 1
        self._pending = []
        self.batches_closed += 1
        self._recent_closes.append(self.engine.now)
        if len(self._recent_closes) > 2:
            self._recent_closes.pop(0)
        self.sink(batch)
