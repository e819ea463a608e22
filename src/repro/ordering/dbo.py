"""DBO's delivery-clock LRTF policy — the watermark state machine (§4).

This module owns everything about *when a delivery-clock-stamped trade
may be released*: per-participant watermarks, the lazy (min, second-min)
extremes cache, and straggler mitigation (§4.2.1).  Two engines drive
it:

* :class:`repro.core.ordering_buffer.OrderingBuffer` — the production
  fast path.  It keeps its fused heap/release loop for speed and reaches
  directly into this policy's state (aliasing the hot attributes into
  locals), byte-identical to the historical monolith;
* :class:`repro.core.release_engine.ReleaseEngine` — the generic driver
  used by the policy-conformance suite, through the same
  :class:`~repro.ordering.policy.OrderingPolicy` surface as every other
  scheme (:meth:`admit` / :meth:`on_watermark` / :meth:`pop_due`).

The release rule: a trade from participant ``m`` needs every *other*
non-straggler participant's watermark strictly past its stamp; ``m``'s
own progress is proven by the trade itself (in-order delivery).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.ordering.policy import HOLD, Admission

if TYPE_CHECKING:
    from repro.core.delivery_clock import DeliveryClockStamp
    from repro.exchange.messages import TaggedTrade

__all__ = ["DeliveryClockPolicy", "ParticipantState"]

WatermarkTuple = Tuple[int, float]


@dataclass
class ParticipantState:
    """The policy's per-participant progress view."""

    mp_id: str
    watermark: Optional["DeliveryClockStamp"] = None
    last_heartbeat_arrival: Optional[float] = None
    last_lag_estimate: Optional[float] = None
    is_straggler: bool = False


class DeliveryClockPolicy:
    """Watermark bookkeeping + the LRTF hold predicate.

    Parameters mirror the historical ``OrderingBuffer`` knobs; see that
    class for the user-facing documentation.
    """

    name = "dbo"

    _TOP_T: WatermarkTuple = (2**62, float("inf"))

    def __init__(
        self,
        participants: List[str],
        generation_time_of: Optional[Callable[[int], float]] = None,
        straggler_threshold: Optional[float] = None,
        latest_point_id: Optional[Callable[[], int]] = None,
    ) -> None:
        if not participants:
            raise ValueError("delivery-clock ordering needs at least one participant")
        if len(set(participants)) != len(participants):
            raise ValueError("duplicate participant ids")
        # Imported lazily: this module must stay importable without
        # touching repro.core (whose package init imports the ordering
        # buffer, which imports this module — runtime imports either way
        # round would cycle).
        from repro.core.delivery_clock import DeliveryClockStamp

        self._TOP = DeliveryClockStamp(2**62, float("inf"))
        self.generation_time_of = generation_time_of
        self.straggler_threshold = straggler_threshold
        # Latest point id the CES has generated (the OB is colocated with
        # the CES).  Lets the lag estimate catch *starvation*: a
        # participant whose delivery frontier is far behind generation.
        self.latest_point_id = latest_point_id
        self.states: Dict[str, ParticipantState] = {
            mp_id: ParticipantState(mp_id) for mp_id in participants
        }
        # Watermarks as plain tuples (mirrors states[*].watermark) plus a
        # lazy min-heap of (watermark, mp_id) entries over non-straggler
        # participants.  Advances push a fresh entry; reads pop entries
        # whose tuple no longer matches `_wm` (stale).  Straggler flips,
        # crashes and membership changes mark the heap dirty, forcing a
        # rare O(N) rebuild that also refreshes the waited/unreported
        # counts.
        self._wm: Dict[str, WatermarkTuple] = {}
        self._ext_heap: List[Tuple[WatermarkTuple, str]] = []
        self._n_waited = len(participants)
        self._n_unreported = len(participants)
        self._ext_dirty = False
        self.straggler_ejections = 0
        self.straggler_readmissions = 0
        # Pending store for the *generic* engine path only; the fused
        # OrderingBuffer keeps its own heap and never touches this.
        self._heap: List[Tuple[WatermarkTuple, str, int, "TaggedTrade"]] = []

    # ------------------------------------------------------------------
    # Watermark bookkeeping (shared by both engines)
    # ------------------------------------------------------------------
    def straggler_ids(self) -> List[str]:
        """Participants currently excluded from the release rule."""
        return [s.mp_id for s in self.states.values() if s.is_straggler]

    def advance_watermark(self, mp_id: str, stamp: DeliveryClockStamp) -> None:
        new_t = (stamp.last_point_id, stamp.elapsed)
        wm = self._wm
        old_t = wm.get(mp_id)
        if old_t is not None and new_t <= old_t:
            return
        wm[mp_id] = new_t
        state = self.states[mp_id]
        state.watermark = stamp
        if not state.is_straggler:
            if old_t is None:
                self._n_unreported -= 1
            heapq.heappush(self._ext_heap, (new_t, mp_id))

    def update_straggler_state(
        self,
        state: ParticipantState,
        stamp: DeliveryClockStamp,
        arrival_time: float,
    ) -> None:
        if self.straggler_threshold is None or self.generation_time_of is None:
            return
        generation = self.generation_time_of(stamp.last_point_id)
        # Heartbeat generated `elapsed` after the delivery of point ld; it
        # arrived now. Lag = full loop time from generation to arrival,
        # minus the participant's own dwell time.
        lag = arrival_time - generation - stamp.elapsed
        if self.latest_point_id is not None:
            latest = self.latest_point_id()
            if latest > stamp.last_point_id:
                # The next point this participant is owed has been
                # outstanding since its generation: starvation counts as
                # lag even while old-data heartbeats look healthy.
                outstanding = arrival_time - self.generation_time_of(
                    stamp.last_point_id + 1
                )
                lag = max(lag, outstanding)
        state.last_lag_estimate = lag
        straggler = lag > self.straggler_threshold
        if straggler != state.is_straggler:
            state.is_straggler = straggler
            if straggler:
                self.straggler_ejections += 1
            else:
                self.straggler_readmissions += 1
            self._ext_dirty = True

    def check_silent_stragglers(self, now: float) -> None:
        if self.straggler_threshold is None:
            return
        for state in self.states.values():
            if state.last_heartbeat_arrival is None:
                continue
            if now - state.last_heartbeat_arrival > self.straggler_threshold:
                if not state.is_straggler:
                    state.is_straggler = True
                    self.straggler_ejections += 1
                    self._ext_dirty = True

    def watermark_extremes(
        self, now: float
    ) -> Tuple[Optional[DeliveryClockStamp], Optional[str], Optional[DeliveryClockStamp]]:
        """Lowest and second-lowest watermarks over non-straggler MPs.

        Returns ``(min_watermark, min_mp_id, second_min_watermark)``.
        A ``None`` min means some waited-on participant has not reported
        yet; when every participant is a straggler both minima degrade to
        a +∞ sentinel (release everything — pure FCFS degradation beats
        stalling the market).
        """
        self.check_silent_stragglers(now)
        min1: Optional[DeliveryClockStamp] = None
        min1_mp: Optional[str] = None
        min2: Optional[DeliveryClockStamp] = None
        any_waited = False
        for state in self.states.values():
            if state.is_straggler:
                continue
            any_waited = True
            if state.watermark is None:
                return None, None, None
            if min1 is None or state.watermark < min1:
                min2 = min1
                min1 = state.watermark
                min1_mp = state.mp_id
            elif min2 is None or state.watermark < min2:
                min2 = state.watermark
        if not any_waited:
            return self._TOP, None, self._TOP
        if min2 is None:
            # Single waited-on participant: for its own trades there is
            # nobody else to wait for.
            min2 = self._TOP
        return min1, min1_mp, min2

    def rebuild_ext_heap(self) -> None:
        """Rebuild the lazy watermark heap and the waited/unreported counts.

        Runs only after straggler flips, crashes, membership changes or
        heap compaction — the steady-state path never scans all states.
        """
        wm = self._wm
        entries: List[Tuple[WatermarkTuple, str]] = []
        waited = 0
        unreported = 0
        for mp_id, state in self.states.items():
            if state.is_straggler:
                continue
            waited += 1
            t = wm.get(mp_id)
            if t is None:
                unreported += 1
            else:
                entries.append((t, mp_id))
        heapq.heapify(entries)
        self._ext_heap = entries
        self._n_waited = waited
        self._n_unreported = unreported
        self._ext_dirty = False

    def reset(self) -> None:
        """Forget all progress state (OB crash): watermarks are rebuilt
        from subsequent heartbeats, which carry absolute readings."""
        for state in self.states.values():
            state.watermark = None
            state.last_heartbeat_arrival = None
            state.last_lag_estimate = None
            state.is_straggler = False
        self._wm.clear()
        self._ext_dirty = True

    def add_participant(self, mp_id: str) -> None:
        """Start waiting on a new participant (shard rerouting)."""
        if mp_id in self.states:
            return
        self.states[mp_id] = ParticipantState(mp_id)
        self._ext_dirty = True

    def carry_over_counters(self, predecessor: "DeliveryClockPolicy") -> None:
        self.straggler_ejections += predecessor.straggler_ejections
        self.straggler_readmissions += predecessor.straggler_readmissions

    # ------------------------------------------------------------------
    # OrderingPolicy protocol (generic-engine path)
    # ------------------------------------------------------------------
    def key_of(self, item: "TaggedTrade") -> Tuple[str, int]:
        return item.trade.key

    def admit(self, item: "TaggedTrade", now: float) -> Admission:
        heapq.heappush(
            self._heap,
            (item.clock.as_tuple(), item.trade.mp_id, item.trade.trade_seq, item),
        )
        # The trade itself is proof of its sender's progress (in-order
        # delivery: nothing earlier from this participant is in flight).
        self.advance_watermark(item.trade.mp_id, item.clock)
        return HOLD

    def on_watermark(self, source: str, value: Any, now: float) -> None:
        state = self.states.get(source)
        if state is None:
            raise KeyError(f"heartbeat from unknown participant {source!r}")
        state.last_heartbeat_arrival = now
        if value is not None:
            self.advance_watermark(source, value)
            if self.straggler_threshold is not None:
                self.update_straggler_state(state, value, now)

    def pop_due(self, now: float) -> Iterator["TaggedTrade"]:
        # Correctness-first release loop over `watermark_extremes` — the
        # generic twin of OrderingBuffer's fused incremental fast path.
        heap = self._heap
        while heap:
            min1, min1_mp, min2 = self.watermark_extremes(now)
            if min1 is None:
                return
            head = heap[0]
            bound = min2 if head[1] == min1_mp else min1
            assert bound is not None
            if head[0] >= bound.as_tuple():
                return
            yield heapq.heappop(heap)[3]

    def on_boundary(self, now: float) -> None:
        pass

    def pop_all(self, now: float) -> Iterator["TaggedTrade"]:
        heap = self._heap
        while heap:
            yield heapq.heappop(heap)[3]

    def pending_count(self) -> int:
        return len(self._heap)
