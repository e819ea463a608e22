"""DBO's delivery-clock LRTF rule — the watermark decision state (§4).

This module owns everything about *when a delivery-clock-stamped trade
may be released*: per-participant watermarks, the lazy (min, second-min)
extremes heap, and straggler mitigation (§4.2.1).  One engine drives it:
:class:`repro.core.ordering_buffer.OrderingBuffer`, whose fused
heap/release loop reaches directly into this state (aliasing the hot
attributes into locals) and carries the recovery surface — warm-up,
crash, release-log adoption — that the flat OB, every shard and the
probabilistic buffer share.  This is *decision state*, not an
:class:`~repro.ordering.policy.OrderingPolicy`: it has no pending store
of its own, so there is exactly one implementation of the watermark
rule and the conformance suite checks it through the buffer that ships.

The release rule: a trade from participant ``m`` needs every *other*
non-straggler participant's watermark strictly past its stamp; ``m``'s
own progress is proven by the trade itself (in-order delivery).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.core.delivery_clock import DeliveryClockStamp

__all__ = ["DeliveryClockPolicy", "ParticipantState"]

WatermarkTuple = Tuple[int, float]


@dataclass(slots=True)
class ParticipantState:
    """The policy's per-participant progress view (slotted: written on
    every heartbeat arrival)."""

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
        self.generation_time_of = generation_time_of
        self.straggler_threshold = straggler_threshold
        # Latest point id the CES has generated (the OB is colocated with
        # the CES).  Lets the lag estimate catch *starvation*: a
        # participant whose delivery frontier is far behind generation.
        self.latest_point_id = latest_point_id
        self.states: Dict[str, ParticipantState] = {
            mp_id: ParticipantState(mp_id) for mp_id in participants
        }
        # Watermark keys (mirrors states[*].watermark: an entry exactly for
        # each participant that has reported — ShardOB takes its subset
        # minimum over it) plus a lazy min-heap of (watermark, mp_id)
        # entries over non-straggler participants.  Advances push a fresh
        # entry; reads pop entries whose tuple no longer matches `_wm`
        # (stale).  A push past 64 + 4 entries per waited participant
        # compacts the heap — reads alone would not, since heartbeats
        # with nothing queued never reach a read.  Straggler flips,
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

    # ------------------------------------------------------------------
    # Watermark bookkeeping
    # ------------------------------------------------------------------
    def straggler_ids(self) -> List[str]:
        """Participants currently excluded from the release rule."""
        return [s.mp_id for s in self.states.values() if s.is_straggler]

    def advance_watermark(self, mp_id: str, stamp: DeliveryClockStamp) -> None:
        new_t = stamp.key
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
            ext_heap = self._ext_heap
            heapq.heappush(ext_heap, (new_t, mp_id))
            if len(ext_heap) > 64 + 4 * self._n_waited:
                self.rebuild_ext_heap()

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
