"""The Ordering Buffer (OB) — §4.1.3, §4.2.1, §5.2.

The OB sits in front of the matching engine (part of the trusted CES
platform) and enforces the delivery-clock ordering:

* every incoming tagged trade enters a priority queue keyed by its
  delivery-clock stamp;
* a trade may be forwarded only once the OB has *proof* that no trade
  with a smaller stamp is still in flight — the proof is a heartbeat (or
  later trade, which is just as good under in-order delivery) from every
  participant with a stamp at or above the trade's stamp;
* trades are forwarded in stamp order; ties break deterministically on
  ``(mp_id, trade_seq)``.

The *decision* state — watermarks, the lazy extremes cache, straggler
mitigation (§4.2.1) — lives in
:class:`repro.ordering.dbo.DeliveryClockPolicy`; this class is the one
engine driving it: it owns the trade heap, dedup, warm-up and crash
machinery, and a fused release loop that reaches into the policy's state
with local aliasing (one call per heartbeat makes it the hottest entry
point of a DBO run).  Every release, proven or flushed, is booked in
:meth:`OrderingBuffer._release`; :class:`ProbOrderingBuffer` swaps the
release *decision* for the horizon rule of
:class:`repro.ordering.prob.ProbabilisticPolicy` and inherits everything
else.  Their push-based warm-up hold, :class:`WarmupHold`, is shared
with the hierarchy's :class:`~repro.core.aggregation.MasterOB`.  The four
schemes with no recovery surface run on
:class:`repro.core.release_engine.ReleaseEngine` instead.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.delivery_clock import DeliveryClockStamp
from repro.exchange.messages import Heartbeat, TaggedTrade

# The dataclass moved to the policy module with the state it describes;
# ``repro.core.ordering_buffer.ParticipantState`` stays importable (and
# in ``repro.core.__all__``).  Safe at module level: repro.ordering has
# no runtime dependency on repro.core.
from repro.ordering.dbo import DeliveryClockPolicy, ParticipantState
from repro.ordering.prob import ProbabilisticPolicy
from repro.sim.dense import KeyLog
from repro.sim.engine import Scheduler

__all__ = ["OrderingBuffer", "ParticipantState", "ProbOrderingBuffer", "WarmupHold"]

# Sink receiving released trades in their final order:
# (tagged_trade, forward_time).
ReleaseSink = Callable[[TaggedTrade, float], None]

# Heap entries: (stamp tuple, mp_id, trade_seq, TaggedTrade).
HeapEntry = Tuple[Tuple[int, float], str, int, TaggedTrade]


class WarmupHold:
    """Push-based warm-up: hold releases until recovery markers arrive.

    A recovering component (a promoted standby OB, a shard adopting
    orphans, the master after an aggregator crash) asks the affected RBs
    to resend their unacked windows; the FIFO reverse channels guarantee
    each RB's :class:`~repro.exchange.messages.RecoveryMarker` trails its
    resends, so lifting the hold on the last marker is a proof that every
    resent trade is already queued.  Subclasses read ``_warmup_pending``
    in their release loop and define ``_try_release(now)``.
    """

    def __init__(self) -> None:
        # While non-empty, releases are held until every listed
        # participant's RecoveryMarker arrives.
        self._warmup_pending: Set[str] = set()
        self.warmup_holds = 0
        self.warmup_markers_received = 0
        self.warmup_timeouts = 0

    @property
    def warming_up(self) -> bool:
        """True while releases are held pending recovery markers."""
        return bool(self._warmup_pending)

    def begin_warmup(self, mp_ids: Iterable[str]) -> None:
        """Hold releases until each listed RB's recovery marker arrives."""
        pending = set(mp_ids)
        if not pending:
            return
        self._warmup_pending |= pending
        self.warmup_holds += 1

    def on_recovery_marker(self, mp_id: str, now: float) -> None:
        """A warm-up fence arrived; lift the hold once all are in."""
        if mp_id in self._warmup_pending:
            self._warmup_pending.discard(mp_id)
            self.warmup_markers_received += 1
            if not self._warmup_pending:
                self._try_release(now)

    def end_warmup(self, now: float) -> None:
        """Force-lift the warm-up hold (the supervisor's safety valve,
        for markers lost to compound faults)."""
        if self._warmup_pending:
            self._warmup_pending.clear()
            self.warmup_timeouts += 1
            self._try_release(now)

    def _try_release(self, now: float) -> None:
        raise NotImplementedError


class OrderingBuffer(WarmupHold):
    """Priority-queue ordering with heartbeat-based release (§4.1.3).

    Parameters
    ----------
    participants:
        All participant ids; the release rule waits on each of them.
    sink:
        Receives released trades in final order.
    generation_time_of:
        Maps a point id to its generation time ``G(x)``; the OB is part of
        the CES so it has this locally.  Needed only for straggler lag
        estimation; optional otherwise.
    straggler_threshold:
        Lag (µs) beyond which a participant stops being waited for;
        ``None`` disables mitigation (the paper's default guarantees
        fairness at the cost of latency under stragglers).

    The (min, second-min) watermark pair is maintained incrementally —
    O(1) per message in the common case instead of an O(N) scan.  The
    release rule only needs a recompute when the current minimum holder
    advances or a straggler flag flips; every heartbeat from a non-extreme
    participant leaves the cache valid.
    """

    # The failure detector's and the recovery table's name for it.
    endpoint = "ob"
    # Set by a deployment with retransmission armed on its releasing
    # root: answers a copy of an already-released trade with the ack its
    # release sent, so an RB whose ack was lost stops retransmitting.
    reack: Optional[ReleaseSink] = None

    def __init__(
        self,
        participants: List[str],
        sink: Optional[ReleaseSink] = None,
        generation_time_of: Optional[Callable[[int], float]] = None,
        straggler_threshold: Optional[float] = None,
        latest_point_id: Optional[Callable[[], int]] = None,
    ) -> None:
        if not participants:
            raise ValueError("ordering buffer needs at least one participant")
        super().__init__()
        self.sink = sink
        self.generation_time_of = generation_time_of
        self.straggler_threshold = straggler_threshold
        self.latest_point_id = latest_point_id
        self._policy = DeliveryClockPolicy(
            participants=participants,
            generation_time_of=generation_time_of,
            straggler_threshold=straggler_threshold,
            latest_point_id=latest_point_id,
        )
        # The per-participant view is the policy's; shared by reference
        # (crash() resets it in place, so the identity is stable).
        self.states: Dict[str, ParticipantState] = self._policy.states
        self._heap: List[HeapEntry] = []
        # Every released key, as a KeyLog: one run of trade seqs per
        # participant while releases come in seq order.
        self._released = KeyLog()
        # Keys currently sitting in the heap: retransmitted duplicates of
        # queued (or already released) trades are absorbed here instead of
        # tripping the double-queue assertion in the release loop.
        self._queued: Set[Tuple[str, int]] = set()
        self.trades_received = 0
        self.trades_released = 0
        self.heartbeats_processed = 0
        self.max_queue_depth = 0
        self.trades_lost_to_crash = 0
        self.retransmits_ignored = 0

    # ------------------------------------------------------------------
    @property
    def policy(self) -> DeliveryClockPolicy:
        """The delivery-clock decision state this buffer drives."""
        return self._policy

    @property
    def queue_depth(self) -> int:
        return len(self._heap)

    @property
    def straggler_ejections(self) -> int:
        return self._policy.straggler_ejections

    @property
    def straggler_readmissions(self) -> int:
        return self._policy.straggler_readmissions

    def straggler_ids(self) -> List[str]:
        """Participants currently excluded from the release rule."""
        return self._policy.straggler_ids()

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def on_tagged_trade(self, tagged: TaggedTrade, send_time: float, arrival_time: float) -> None:
        """Network handler for an arriving tagged trade."""
        mp_id = tagged.trade.mp_id
        if mp_id not in self.states:
            raise KeyError(f"trade from unknown participant {mp_id!r}")
        self.trades_received += 1
        stamp: DeliveryClockStamp = tagged.clock
        key = tagged.trade.key
        if key in self._released or key in self._queued:
            # Retransmitted duplicate (RB timeout fired before the ack got
            # back).  The first copy already counts; the duplicate is still
            # proof of progress, so its stamp feeds the watermark.
            self.retransmits_ignored += 1
            if self.reack is not None and key in self._released:
                self.reack(tagged, arrival_time)
            self._policy.advance_watermark(mp_id, stamp)
            self._try_release(arrival_time)
            return
        self._queued.add(key)
        heapq.heappush(self._heap, (stamp.key, mp_id, tagged.trade.trade_seq, tagged))
        self.max_queue_depth = max(self.max_queue_depth, len(self._heap))
        # In-order delivery: a trade with stamp s proves everything from
        # this participant below s has been received — same as a heartbeat.
        self._policy.advance_watermark(mp_id, stamp)
        self._try_release(arrival_time)

    def on_heartbeat(self, heartbeat: Heartbeat, send_time: float, arrival_time: float) -> None:
        """Network handler for an arriving heartbeat."""
        pol = self._policy
        mp_id = heartbeat.mp_id
        state = pol.states.get(mp_id)
        if state is None:
            raise KeyError(f"heartbeat from unknown participant {mp_id!r}")
        self.heartbeats_processed += 1
        state.last_heartbeat_arrival = arrival_time
        stamp: Optional[DeliveryClockStamp] = heartbeat.clock
        if stamp is not None:
            # `advance_watermark` inlined — one call per heartbeat
            # arrival makes this the OB's hottest entry point.
            new_t = stamp.key
            wm = pol._wm
            old_t = wm.get(mp_id)
            if old_t is None or new_t > old_t:
                wm[mp_id] = new_t
                state.watermark = stamp
                if not state.is_straggler:
                    if old_t is None:
                        pol._n_unreported -= 1
                    ext_heap = pol._ext_heap
                    heapq.heappush(ext_heap, (new_t, mp_id))
                    if len(ext_heap) > 64 + 4 * pol._n_waited:
                        pol.rebuild_ext_heap()
            if self.straggler_threshold is not None:
                pol.update_straggler_state(state, stamp, arrival_time)
        # With nothing queued and no straggler tracking, `_try_release`
        # is a no-op — skip the call.
        if self._heap or self.straggler_threshold is not None:
            self._try_release(arrival_time)

    # ------------------------------------------------------------------
    # Release rule
    # ------------------------------------------------------------------
    def _try_release(self, now: float) -> None:
        """Release every head trade proven safe by the watermarks.

        A trade from participant ``m`` needs every *other* participant's
        watermark strictly past its stamp; ``m``'s own progress is proven
        by the trade itself (in-order delivery: nothing earlier from ``m``
        can still be in flight).
        """
        if self._warmup_pending:
            # Warm-up hold: some RB's unacked window is still being
            # re-collected, so a lower-stamped trade may yet arrive.
            return
        heap = self._heap
        pol = self._policy
        if self.straggler_threshold is not None:
            pol.check_silent_stragglers(now)
        if not heap:
            # Nothing queued: straggler bookkeeping above still ran, but
            # there is no release decision to make, so skip the extremes
            # probe entirely.
            return
        if pol._ext_dirty:
            pol.rebuild_ext_heap()
        if pol._n_unreported:
            return
        n_waited = pol._n_waited
        if n_waited == 0:
            # Every participant is a straggler: release everything
            # (pure FCFS degradation beats stalling the market).
            min1_t = min2_t = pol._TOP_T
            min1_mp = None
        else:
            ext_heap = pol._ext_heap
            wm = pol._wm
            while True:
                entry = ext_heap[0]
                if wm[entry[1]] == entry[0]:
                    break
                heapq.heappop(ext_heap)
            min1_t, min1_mp = entry
            # The second minimum only bounds the minimum holder's own
            # trades; probe for it lazily on first need.
            min2_t = None
        while heap:
            head = heap[0]
            if head[1] == min1_mp:
                if min2_t is None:
                    if n_waited == 1:
                        # Single waited-on participant: for its own
                        # trades there is nobody else to wait for.
                        min2_t = pol._TOP_T
                    else:
                        first = heapq.heappop(ext_heap)
                        while True:
                            entry = ext_heap[0]
                            if wm[entry[1]] == entry[0]:
                                break
                            heapq.heappop(ext_heap)
                        min2_t = entry[0]
                        heapq.heappush(ext_heap, first)
                bound = min2_t
            else:
                bound = min1_t
            if head[0] >= bound:
                break
            self._release(heapq.heappop(heap), now)

    def _release(self, entry: HeapEntry, now: float) -> None:
        """Book one popped heap entry as released and hand it to the sink."""
        tagged = entry[3]
        key = tagged.trade.key
        self._queued.discard(key)
        if not self._released.add_new(key):
            raise RuntimeError(f"trade {key} queued twice in the OB")
        self.trades_released += 1
        if self.sink is not None:
            self.sink(tagged, now)

    def crash(self) -> int:
        """Fail-stop the OB, losing every queued trade (§4.2.1).

        "In the event the OB crashes all trades in the priority queue
        will be lost.  System will incur unfairness in such cases."  A
        replacement OB starts from empty state: watermarks are rebuilt
        from subsequent heartbeats (which carry absolute delivery-clock
        readings, so recovery is immediate on the next heartbeat round).

        Returns the number of trades lost.
        """
        lost = len(self._heap)
        self._heap.clear()
        self._queued.clear()
        self._warmup_pending.clear()
        self._policy.reset()
        self.trades_lost_to_crash += lost
        return lost

    def flush(self, now: float) -> int:
        """Release every queued trade regardless of watermarks.

        Used at the end of a run to drain trades that are provably final
        (no more data will be generated) and by OB-failure experiments.
        Returns the number of trades flushed.
        """
        flushed = 0
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry[3].trade.key in self._released:
                # Released by a predecessor whose log was adopted after
                # this copy was queued: drop it, do not release it twice.
                continue
            self._release(entry, now)
            flushed += 1
        self._queued.clear()
        return flushed

    # ------------------------------------------------------------------
    # Recovery / failover support
    # ------------------------------------------------------------------
    def add_participant(self, mp_id: str) -> None:
        """Start waiting on a new participant (shard rerouting).

        The newcomer joins with no watermark, so releases pause until its
        first report — the conservative choice: releasing without proof of
        its progress could reorder its in-flight trades.
        """
        self._policy.add_participant(mp_id)

    def odometer(self) -> float:
        """Work done so far; a frozen value is the detector's death signal."""
        return float(self.heartbeats_processed + self.trades_received)

    @property
    def released_keys(self) -> Set[Tuple[str, int]]:
        """Snapshot of every ``(mp_id, trade_seq)`` released so far."""
        return set(self._released)

    def adopt_release_log(self, keys: Iterable[Tuple[str, int]]) -> None:
        """Inherit a predecessor's release log (standby OB failover).

        The matching engine is part of the durable CES platform, so the
        set of trades it has consumed survives an OB crash; a standby OB
        adopts it to keep RB retransmissions from double-releasing.
        """
        self._released.update(keys)

    def carry_over_counters(self, predecessor: "OrderingBuffer") -> None:
        """Continue a crashed predecessor's cumulative statistics."""
        self.trades_received += predecessor.trades_received
        self.trades_released += predecessor.trades_released
        self.heartbeats_processed += predecessor.heartbeats_processed
        self.max_queue_depth = max(self.max_queue_depth, predecessor.max_queue_depth)
        self.trades_lost_to_crash += predecessor.trades_lost_to_crash
        self.retransmits_ignored += predecessor.retransmits_ignored
        self._policy.carry_over_counters(predecessor._policy)
        self.warmup_holds += predecessor.warmup_holds
        self.warmup_markers_received += predecessor.warmup_markers_received
        self.warmup_timeouts += predecessor.warmup_timeouts


class ProbOrderingBuffer(OrderingBuffer):
    """A delivery-clock OB releasing on horizon expiry, not proof.

    Inherits the whole DBO buffer — heap, dedup, warm-up, crash/failover,
    flush, straggler bookkeeping — and swaps only the release decision
    for :class:`~repro.ordering.prob.ProbabilisticPolicy`: a queued trade
    becomes *due* ``horizon`` µs after its arrival and is released once
    it is due **and** every smaller-stamped queued trade has been
    released (stamp-FIFO within the buffer).  Inversions can therefore
    only arise from trades that arrive after a larger-stamped trade
    already left; each one increments ``ordering_inversions``.

    Parameters beyond :class:`OrderingBuffer`:

    engine:
        The event engine — horizon expiries are real scheduled events,
        not piggybacks on unrelated traffic.
    horizon:
        Confidence hold in µs (``h``).  ``0`` releases in arrival order
        (maximum speed, maximum inversion risk); ``h ≥`` the network's
        arrival-lag spread reproduces DBO's order exactly.
    """

    def __init__(
        self,
        participants: List[str],
        engine: Scheduler,
        horizon: float,
        sink: Optional[ReleaseSink] = None,
        generation_time_of: Optional[Callable[[int], float]] = None,
        straggler_threshold: Optional[float] = None,
        latest_point_id: Optional[Callable[[], int]] = None,
    ) -> None:
        self.horizon_policy = ProbabilisticPolicy(horizon)
        super().__init__(
            participants,
            sink=sink,
            generation_time_of=generation_time_of,
            straggler_threshold=straggler_threshold,
            latest_point_id=latest_point_id,
        )
        self._engine = engine

    @property
    def horizon(self) -> float:
        return self.horizon_policy.horizon

    @property
    def ordering_inversions(self) -> int:
        return self.horizon_policy.ordering_inversions

    # ------------------------------------------------------------------
    def on_tagged_trade(
        self, tagged: TaggedTrade, send_time: float, arrival_time: float
    ) -> None:
        key = tagged.trade.key
        if key not in self._released and key not in self._queued:
            due = self.horizon_policy.hold(key, arrival_time)
            self._engine.schedule_at(due, self._horizon_due, priority=2)
        super().on_tagged_trade(tagged, send_time, arrival_time)

    def _horizon_due(self) -> None:
        self._try_release(self._engine.now)

    def _try_release(self, now: float) -> None:
        """Release every due head trade, in stamp order."""
        if self._warmup_pending:
            return
        heap = self._heap
        is_due = self.horizon_policy.is_due
        while heap and is_due(heap[0][1:3], now):
            self._release(heapq.heappop(heap), now)

    def _release(self, entry: HeapEntry, now: float) -> None:
        self.horizon_policy.note_release(entry[3].trade.key, entry[0])
        super()._release(entry, now)

    def crash(self) -> int:
        self.horizon_policy.reset()
        return super().crash()

    def carry_over_counters(self, predecessor: OrderingBuffer) -> None:
        super().carry_over_counters(predecessor)
        assert isinstance(predecessor, ProbOrderingBuffer)
        self.horizon_policy.carry_over_counters(predecessor.horizon_policy)
