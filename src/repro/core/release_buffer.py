"""The Release Buffer (RB) — §4.1.2, §5.1.

One RB is colocated with each market participant (at the provider's
smartNIC in the paper's deployment; a trusted component either way).  It
has four jobs:

1. **Batch delivery with pacing** — deliver each market-data batch to the
   MP atomically, enforcing a locally measured gap of at least δ between
   consecutive deliveries.  Batches queue FIFO when they arrive faster
   than 1/δ (e.g. while a latency spike drains), and the queue drains at
   rate ``1 + κ`` because batches are generated only every ``(1+κ)·δ``.
2. **Delivery clock maintenance** — advance ``⟨ld, elapsed⟩`` on each
   batch delivery (to the batch's last point id).
3. **Trade tagging** — stamp each trade from the MP with the current
   delivery-clock reading and forward it to the ordering buffer.
4. **Heartbeats** — every τ, send the current reading to the OB so it can
   prove no lower-ordered trade is in flight.

The RB also supports a non-colocated mode (§4.2.3 / Theorem 4) where an
extra RB↔MP latency model delays both data delivery to the MP and trade
interception at the RB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.delivery_clock import DeliveryClock, DeliveryClockStamp
from repro.exchange.messages import (
    Heartbeat,
    MarketDataBatch,
    MarketDataPoint,
    RecoveryMarker,
    TaggedTrade,
    TradeOrder,
)
from repro.net.latency import LatencyModel
from repro.sim.clocks import Clock, PerfectClock
from repro.sim.engine import EventEngine, PeriodicTimer

__all__ = ["ReleaseBuffer", "RetransmitPolicy"]

# Handler invoked when a batch is delivered to the MP:
# (points, delivery_time_at_mp).
MPDeliveryHandler = Callable[[Tuple[MarketDataPoint, ...], float], None]
# Sink receiving tagged trades / heartbeats (the reverse link's send).
TradeSink = Callable[[TaggedTrade], None]
HeartbeatSink = Callable[[Heartbeat], None]
MarkerSink = Callable[[RecoveryMarker], None]


@dataclass(frozen=True)
class RetransmitPolicy:
    """Ack/retransmit parameters for the RB→OB trade path.

    Without acks, a trade sitting in a crashed OB's queue is simply lost
    (the paper accepts this unfairness).  With a policy, the RB buffers
    each tagged trade until the OB acknowledges its *release* and resends
    on timeout with exponential backoff — paired with a standby OB that
    inherits the release log, this yields zero lost trades across an OB
    failover.

    Parameters
    ----------
    timeout:
        µs after sending before the first retransmission.
    backoff:
        Multiplier applied to the timeout after each attempt.
    max_retries:
        Retransmissions per trade before the RB gives up.
    ack_latency:
        One-way OB→RB latency of the ack path (used by the deployment
        when wiring acks; the RB itself only reacts to :meth:`on_ack`).
    """

    timeout: float = 2000.0
    backoff: float = 2.0
    max_retries: int = 5
    ack_latency: float = 0.0

    def __post_init__(self) -> None:
        # ``not 0 < x < math.inf`` also rejects NaN.
        if not 0 < self.timeout < math.inf:
            raise ValueError("retransmit timeout must be positive and finite")
        if not 1.0 <= self.backoff < math.inf:
            raise ValueError("retransmit backoff must be >= 1 and finite")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not 0 <= self.ack_latency < math.inf:
            raise ValueError("ack_latency must be non-negative and finite")


class ReleaseBuffer:
    """Trusted per-participant component implementing pacing and tagging.

    Parameters
    ----------
    engine:
        The event engine.
    mp_id:
        The participant this RB serves.
    pacing_gap:
        δ — minimum locally-measured gap between batch deliveries.
    heartbeat_period:
        τ — heartbeat cadence.
    local_clock:
        The RB's local clock (only intervals are used).
    rb_to_mp:
        Optional latency model for the RB→MP leg (non-colocated mode);
        colocated RBs (the default) deliver with zero delay.
    """

    # One RB per participant, and more attributes than CPython's shared
    # key dicts hold: slots keep an RB's state off a per-instance dict.
    __slots__ = (
        "engine", "mp_id", "pacing_gap", "heartbeat_period", "local_clock",
        "rb_to_mp", "clock", "_mp_handler", "_trade_sink", "_heartbeat_sink",
        "_marker_sink", "_queue", "_delivery_scheduled", "_last_delivery_true",
        "_heartbeats_started", "_heartbeat_timer", "crashed", "delivery_times",
        "raw_arrivals", "max_queue_depth", "recovered_point_ids",
        "heartbeats_sent", "trades_tagged", "trades_dropped_untagged",
        "retransmit_policy", "_unacked", "_retry_state", "trades_retransmitted",
        "trades_warmup_resent", "warmup_requests_served", "retransmits_abandoned",
        "acks_received", "batches_dropped_crashed", "restarts",
        "_skew_base_drift", "clock_skews_applied",
    )

    def __init__(
        self,
        engine: EventEngine,
        mp_id: str,
        pacing_gap: float,
        heartbeat_period: float,
        local_clock: Optional[Clock] = None,
        rb_to_mp: Optional[LatencyModel] = None,
        retransmit_policy: Optional[RetransmitPolicy] = None,
    ) -> None:
        if pacing_gap <= 0:
            raise ValueError("pacing_gap (delta) must be positive")
        if heartbeat_period <= 0:
            raise ValueError("heartbeat_period (tau) must be positive")
        self.engine = engine
        self.mp_id = mp_id
        self.pacing_gap = float(pacing_gap)
        self.heartbeat_period = float(heartbeat_period)
        self.local_clock = local_clock if local_clock is not None else PerfectClock()
        self.rb_to_mp = rb_to_mp
        self.clock = DeliveryClock(self.local_clock)

        self._mp_handler: Optional[MPDeliveryHandler] = None
        self._trade_sink: Optional[TradeSink] = None
        self._heartbeat_sink: Optional[HeartbeatSink] = None
        self._marker_sink: Optional[MarkerSink] = None

        # Usually holds at most one batch: a list is smaller than a deque.
        self._queue: List[MarketDataBatch] = []
        self._delivery_scheduled = False
        self._last_delivery_true: Optional[float] = None
        self._heartbeats_started = False
        self._heartbeat_timer: Optional[PeriodicTimer] = None
        self.crashed = False

        # ----- measurement records (ground truth for metrics) ----------
        # D(i, x): per-point delivery time at the RB boundary.
        self.delivery_times: Dict[int, float] = {}
        # Per point, its first raw arrival (before pacing): the Max-RTT
        # bound's packet timestamps.  The run result takes both maps as
        # they are.
        self.raw_arrivals: Dict[int, float] = {}
        self.max_queue_depth = 0
        # Points that reached the MP via out-of-band recovery (App. D):
        # they never advanced the delivery clock.
        self.recovered_point_ids: set = set()
        self.heartbeats_sent = 0
        self.trades_tagged = 0
        self.trades_dropped_untagged = 0

        # ----- ack / retransmission state (OB-failover recovery) --------
        self.retransmit_policy = retransmit_policy
        # key -> tagged trade awaiting an OB release ack.  The original
        # stamp is resent verbatim: re-tagging would move the trade later
        # in the order, and the OB dedups on the key anyway.
        self._unacked: Dict[Tuple[str, int], TaggedTrade] = {}
        # key -> (attempts so far, next scheduled resend time); mirrors
        # _unacked so the auditor can report in-flight backoff state.
        self._retry_state: Dict[Tuple[str, int], Tuple[int, float]] = {}
        self.trades_retransmitted = 0
        self.trades_warmup_resent = 0
        self.warmup_requests_served = 0
        self.retransmits_abandoned = 0
        self.acks_received = 0
        self.batches_dropped_crashed = 0
        self.restarts = 0

        # ----- clock-drift fault state (clock_drift fault kind) ---------
        # The un-skewed drift rate, remembered while a skew is active so
        # clear_clock_skew can restore it.
        self._skew_base_drift: Optional[float] = None
        self.clock_skews_applied = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect_mp(self, handler: MPDeliveryHandler) -> None:
        """Attach the participant's data-delivery handler."""
        self._mp_handler = handler

    def connect_ob(
        self,
        trade_sink: TradeSink,
        heartbeat_sink: HeartbeatSink,
        marker_sink: Optional[MarkerSink] = None,
    ) -> None:
        """Attach the reverse-path sinks toward the ordering buffer.

        All sinks must feed the *same* FIFO channel: the warm-up protocol
        relies on a :class:`RecoveryMarker` never overtaking the resends
        it fences.
        """
        self._trade_sink = trade_sink
        self._heartbeat_sink = heartbeat_sink
        self._marker_sink = marker_sink

    # ------------------------------------------------------------------
    # Forward path: batches in, paced deliveries out
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop this RB (§4.2.1's RB/MP failure scenario).

        Heartbeats cease, arriving batches are dropped, trades are no
        longer tagged.  The OB's silent-straggler detection notices the
        missing heartbeats and stops waiting for this participant, so the
        rest of the market keeps its latency; this participant's pending
        trades bear the unfairness — exactly the paper's stated behaviour.
        """
        self.crashed = True
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
        # Fail-stop loses volatile state: in-flight retransmission
        # obligations die with the process.
        self._unacked.clear()
        self._retry_state.clear()

    def restart(self, start_time: Optional[float] = None) -> None:
        """Bring a crashed RB back up (§4.2.1 failure scenario).

        The delivery clock needs no explicit resync: batches that arrived
        during the outage were dropped, and the next fresh batch carries a
        strictly higher last point id, so the first post-restart delivery
        re-anchors ``⟨ld, elapsed⟩`` naturally.  Heartbeats resume, the OB
        sees them, and its straggler logic readmits the participant.
        """
        if not self.crashed:
            raise RuntimeError(f"RB {self.mp_id!r} is not crashed")
        self.crashed = False
        self.restarts += 1
        self._queue.clear()
        self._delivery_scheduled = False
        if self._heartbeats_started:
            self._heartbeats_started = False
            self.start_heartbeats(start_time)

    def on_batch(self, batch: MarketDataBatch, send_time: float, arrival_time: float) -> None:
        """Network handler for an arriving market-data batch."""
        if self.crashed:
            self.batches_dropped_crashed += 1
            return
        raw_arrivals = self.raw_arrivals
        for point in batch.points:
            raw_arrivals.setdefault(point.point_id, arrival_time)
        self._queue.append(batch)
        self.max_queue_depth = max(self.max_queue_depth, len(self._queue))
        self._schedule_delivery()

    def on_recovered_batch(self, batch: MarketDataBatch, send_time: float, arrival_time: float) -> None:
        """Out-of-band recovery of a lost batch (Appendix D).

        The recovered data is handed to the MP immediately but does *not*
        advance the delivery clock and does not count as a paced delivery
        — only trades triggered by it lose fairness.
        """
        for point in batch.points:
            self.raw_arrivals.setdefault(point.point_id, arrival_time)
            # Delivery time still recorded for latency accounting.
            self.delivery_times.setdefault(point.point_id, arrival_time)
            self.recovered_point_ids.add(point.point_id)
        if self._mp_handler is not None:
            self._deliver_to_mp(batch.points, arrival_time)

    def _earliest_delivery_time(self) -> float:
        """Next true time a delivery is allowed by pacing."""
        if self._last_delivery_true is None:
            return self.engine.now
        gap_true = self.local_clock.interval_to_true(self.pacing_gap)
        return max(self.engine.now, self._last_delivery_true + gap_true)

    def _schedule_delivery(self) -> None:
        if self._delivery_scheduled or not self._queue:
            return
        self._delivery_scheduled = True
        when = self._earliest_delivery_time()
        self.engine.schedule_at(when, self._deliver_head, priority=2)

    def _deliver_head(self) -> None:
        self._delivery_scheduled = False
        if not self._queue:
            return
        now = self.engine.now
        batch = self._queue.pop(0)
        self._last_delivery_true = now
        for point in batch.points:
            self.delivery_times[point.point_id] = now
        self.clock.on_delivery(batch.last_point_id, now)
        self._deliver_to_mp(batch.points, now)
        self._schedule_delivery()

    def _deliver_to_mp(self, points: Tuple[MarketDataPoint, ...], rb_time: float) -> None:
        if self._mp_handler is None:
            return
        if self.rb_to_mp is None:
            self._mp_handler(points, rb_time)
            return
        mp_time = rb_time + self.rb_to_mp.latency_at(rb_time)
        self.engine.schedule_at(mp_time, self._invoke_mp_handler, priority=0, args=(points, mp_time))

    def _invoke_mp_handler(self, points: Tuple[MarketDataPoint, ...], mp_time: float) -> None:
        self._mp_handler(points, mp_time)

    # ------------------------------------------------------------------
    # Reverse path: trades in from the MP, tagged trades out to the OB
    # ------------------------------------------------------------------
    def on_mp_trade(self, trade: TradeOrder) -> None:
        """Intercept a trade from the MP, tag it, forward it to the OB.

        Called at the true time the trade reaches the RB (for a
        non-colocated MP the caller — the MP adapter — routes the trade
        through the MP→RB latency first).
        """
        if self._trade_sink is None:
            raise RuntimeError(f"RB {self.mp_id!r} has no trade sink")
        if self.crashed:
            self.trades_dropped_untagged += 1
            return
        if not self.clock.started:
            # Only reachable when the very first batch was lost and the MP
            # traded off the recovered copy: the RB cannot produce a
            # meaningful tag yet, so the trade is rejected (the MP would
            # resubmit).  Appendix D: such trades bear the unfairness.
            self.trades_dropped_untagged += 1
            return
        now = self.engine.now
        stamp = self.clock.read(now)
        self.trades_tagged += 1
        tagged = TaggedTrade(trade=trade, clock=stamp, tagged_at=now)
        if self.retransmit_policy is not None:
            self._unacked[trade.key] = tagged
            self._retry_state[trade.key] = (0, now + self.retransmit_policy.timeout)
            self.engine.schedule_at(
                now + self.retransmit_policy.timeout,
                self._retransmit_check,
                priority=4,
                args=(trade.key, 1),
            )
        self._trade_sink(tagged)

    # ------------------------------------------------------------------
    # Ack / retransmission (OB-failover recovery)
    # ------------------------------------------------------------------
    def on_ack(self, key: Tuple[str, int]) -> None:
        """The OB released this trade; stop guarding it."""
        if self._unacked.pop(key, None) is not None:
            self._retry_state.pop(key, None)
            self.acks_received += 1

    def _retransmit_check(self, key: Tuple[str, int], attempt: int) -> None:
        tagged = self._unacked.get(key)
        if tagged is None or self.crashed:
            return
        policy = self.retransmit_policy
        if attempt > policy.max_retries:
            # Cap reached: stop resending.  The trade stays lost unless a
            # straggling ack is still in flight — mirrors the paper's
            # "system will incur unfairness" fallback.
            self.retransmits_abandoned += 1
            del self._unacked[key]
            self._retry_state.pop(key, None)
            return
        self.trades_retransmitted += 1
        self._trade_sink(tagged)
        delay = policy.timeout * (policy.backoff ** attempt)
        self._retry_state[key] = (attempt, self.engine.now + delay)
        self.engine.schedule_at(
            self.engine.now + delay,
            self._retransmit_check,
            priority=4,
            args=(key, attempt + 1),
        )

    def resend_unacked(self, requested_at: float) -> int:
        """Push-based warm-up: resend the whole unacked window *now*.

        A promoted/adopting OB calls this (via the ``ob-adopt`` control
        channel) instead of waiting for per-trade retransmit timeouts.
        Resends go out in sorted key order for determinism, followed by a
        :class:`RecoveryMarker` fence on the same FIFO reverse channel,
        so the requester knows exactly when the window is fully re-sent.
        Returns the number of trades resent.
        """
        if self.crashed or self._trade_sink is None:
            return 0
        resent = 0
        for key in sorted(self._unacked):
            self._trade_sink(self._unacked[key])
            resent += 1
        # Warm-up resends are retransmissions too — the cumulative
        # counter keeps meaning "copies sent beyond the original".
        self.trades_retransmitted += resent
        self.trades_warmup_resent += resent
        self.warmup_requests_served += 1
        if self._marker_sink is not None:
            self._marker_sink(
                RecoveryMarker(
                    mp_id=self.mp_id, requested_at=requested_at, resent=resent
                )
            )
        return resent

    def recovery_state(self) -> Dict[str, Optional[float]]:
        """Snapshot of the in-flight retransmission obligations.

        Surfaced through the auditor's report so a stalled recovery
        (unacked trades whose backoff is exhausted or still pending at
        drain time) is first-class audit evidence.  ``next_resend`` is
        ``None`` when nothing is awaiting a resend.
        """
        max_attempt = 0
        next_resend: Optional[float] = None
        for attempt, resend_at in self._retry_state.values():
            max_attempt = max(max_attempt, attempt)
            if next_resend is None or resend_at < next_resend:
                next_resend = resend_at
        return {
            "unacked": float(len(self._unacked)),
            "max_attempt": float(max_attempt),
            "next_resend": next_resend,
            "retransmits_abandoned": float(self.retransmits_abandoned),
        }

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    def start_heartbeats(self, start_time: Optional[float] = None) -> None:
        """Begin the τ-periodic heartbeat stream to the OB."""
        if self._heartbeat_sink is None:
            raise RuntimeError(f"RB {self.mp_id!r} has no heartbeat sink")
        if self._heartbeats_started:
            raise RuntimeError("heartbeats already started")
        self._heartbeats_started = True
        first = self.engine.now if start_time is None else start_time
        self._heartbeat_timer = self.engine.schedule_periodic(
            first, self.heartbeat_period, self._heartbeat, priority=3
        )

    # ------------------------------------------------------------------
    # Clock drift (the `clock_drift` fault kind)
    # ------------------------------------------------------------------
    def apply_clock_skew(self, magnitude: float) -> None:
        """Suddenly worsen this RB's local clock drift by ``magnitude``.

        Models an NTP step / thermal drift event: the clock's rate
        becomes ``(1 + drift)·(1 + magnitude) - 1`` (compounding, so
        repeated faults stack) while its *reading* stays continuous at
        the fault instant — a reading jump would move the delivery
        clock's elapsed component backwards and forge stamp regressions,
        which is not what drift does.  The heartbeat timer is also
        rescheduled to the skewed cadence (a fast clock heartbeats more
        often in true time, a slow one less often), so one subtree of the
        aggregation hierarchy can be driven off-tempo.

        DBO's claim under test: ε-fairness only uses clock *intervals*,
        so even gross drift must degrade latency, never safety.
        """
        clock = self.local_clock
        if not hasattr(clock, "drift_rate") or not hasattr(clock, "offset"):
            raise RuntimeError(
                f"RB {self.mp_id!r} local clock {type(clock).__name__} "
                "cannot drift (needs mutable offset/drift_rate)"
            )
        now = self.engine.now
        reading = clock.now(now)
        if self._skew_base_drift is None:
            self._skew_base_drift = clock.drift_rate
        new_drift = (1.0 + clock.drift_rate) * (1.0 + magnitude) - 1.0
        clock.drift_rate = new_drift
        clock.offset = reading - (1.0 + new_drift) * now
        self.clock_skews_applied += 1
        self._reschedule_heartbeats()

    def clear_clock_skew(self) -> None:
        """Restore the pre-fault drift rate (reading stays continuous)."""
        if self._skew_base_drift is None:
            return
        clock = self.local_clock
        now = self.engine.now
        reading = clock.now(now)
        clock.drift_rate = self._skew_base_drift
        clock.offset = reading - (1.0 + clock.drift_rate) * now
        self._skew_base_drift = None
        self._reschedule_heartbeats()

    def _reschedule_heartbeats(self) -> None:
        """Re-anchor the heartbeat timer at the local clock's cadence.

        τ is a *local* period; under skew its true-time equivalent is
        ``interval_to_true(τ)``.  The unskewed path never lands here, so
        default runs keep their original (true-time τ) timers untouched.
        """
        if self._heartbeat_timer is None or not self._heartbeats_started:
            return
        if self.crashed:
            return
        self._heartbeat_timer.cancel()
        true_period = self.local_clock.interval_to_true(self.heartbeat_period)
        self._heartbeat_timer = self.engine.schedule_periodic(
            self.engine.now + true_period, true_period, self._heartbeat, priority=3
        )

    def _heartbeat(self) -> None:
        if self.crashed:
            # Crash stops the stream (crash() cancels the timer; this
            # guards the tick already in flight).
            if self._heartbeat_timer is not None:
                self._heartbeat_timer.cancel()
            return
        now = self.engine.now
        clock = self.clock
        stamp: Optional[DeliveryClockStamp]
        stamp = clock.read(now) if clock._last_point_id is not None else None
        self.heartbeats_sent += 1
        self._heartbeat_sink(Heartbeat(self.mp_id, stamp, now))
