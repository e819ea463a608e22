"""Front-running prevention gateway (§4.2.5, Appendix E).

Threat: a participant could relay a market data point to an accomplice —
through a proxy outside the cloud — who sees it *before* their own RB
delivers it, gaining an unfair head start.

The paper's defence has two parts:

1. participants and their helpers may not talk to other participants
   inside the cloud (a security-group rule; enforced here by simply not
   wiring such links), and
2. any data a participant sends **out of the cloud** is tagged with the
   sender's delivery clock at the RB and buffered at an egress gateway
   until every data point the sender could have embedded — i.e. every
   point with id ≤ the tag's ``ld`` — has been delivered to *all*
   participants.

The gateway learns delivery progress from the RBs' periodic delivery-
clock reports.  Trade orders bypass the gateway (they go to the OB), so
speed-trade latency is unaffected; only outbound data pays the hold.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.core.delivery_clock import DeliveryClockStamp

__all__ = ["EgressGateway", "EgressMessage"]

EgressSink = Callable[["EgressMessage", float], None]


@dataclass(frozen=True)
class EgressMessage:
    """An outbound message tagged with the sender's delivery clock."""

    sender: str
    payload: Any
    tag: DeliveryClockStamp
    submitted_at: float


class EgressGateway:
    """Buffers outbound data until its tag is globally delivered.

    Parameters
    ----------
    participants:
        Every participant whose delivery progress gates egress.
    sink:
        Receives ``(message, release_time)`` when a message clears.
    """

    endpoint = "gateway"

    def __init__(self, participants: List[str], sink: Optional[EgressSink] = None) -> None:
        if not participants:
            raise ValueError("gateway needs at least one participant")
        self.sink = sink
        self._delivered_up_to: Dict[str, Optional[int]] = {
            mp_id: None for mp_id in participants
        }
        # Pending egress messages ordered by tag point id.
        self._pending: Deque[EgressMessage] = deque()
        self.messages_buffered = 0
        self.messages_released = 0
        self.stalled = False
        self.stalls = 0
        self.max_hold = 0.0

    def set_sink(self, sink: EgressSink) -> None:
        self.sink = sink

    # ------------------------------------------------------------------
    def stall(self) -> None:
        """Fault injection: the gateway stops draining (process hang).

        Clock reports and egress submissions keep accumulating state;
        nothing is lost — outbound data just waits, which is exactly the
        safe failure mode the design wants (fail closed, never leak
        early).
        """
        if not self.stalled:
            self.stalled = True
            self.stalls += 1

    def resume(self, now: float) -> None:
        """Recover from a stall and drain everything now releasable."""
        self.stalled = False
        self._drain(now)

    # ------------------------------------------------------------------
    def on_clock_report(self, mp_id: str, stamp: DeliveryClockStamp, now: float) -> None:
        """An RB reports its participant's delivery progress."""
        if mp_id not in self._delivered_up_to:
            raise KeyError(f"unknown participant {mp_id!r}")
        current = self._delivered_up_to[mp_id]
        if current is None or stamp.last_point_id > current:
            self._delivered_up_to[mp_id] = stamp.last_point_id
        self._drain(now)

    def on_egress(self, sender: str, payload: Any, tag: DeliveryClockStamp, now: float) -> None:
        """A participant sends data out of the cloud; hold until safe.

        Messages from one sender carry monotonically non-decreasing tags
        (the RB tags them in submission order), so a FIFO per the global
        order is sufficient.
        """
        if self._pending and tag.last_point_id < self._pending[-1].tag.last_point_id:
            # Keep the deque sorted by tag id even across senders.
            message = EgressMessage(sender, payload, tag, now)
            inserted = False
            for index, existing in enumerate(self._pending):
                if existing.tag.last_point_id > tag.last_point_id:
                    self._pending.insert(index, message)
                    inserted = True
                    break
            if not inserted:
                self._pending.append(message)
        else:
            self._pending.append(EgressMessage(sender, payload, tag, now))
        self.messages_buffered += 1
        self._drain(now)

    # ------------------------------------------------------------------
    def _global_delivered_id(self) -> Optional[int]:
        """Highest point id delivered to *every* participant."""
        minimum: Optional[int] = None
        for delivered in self._delivered_up_to.values():
            if delivered is None:
                return None
            if minimum is None or delivered < minimum:
                minimum = delivered
        return minimum

    def _drain(self, now: float) -> None:
        if self.stalled:
            return
        safe_id = self._global_delivered_id()
        if safe_id is None:
            return
        while self._pending and self._pending[0].tag.last_point_id <= safe_id:
            message = self._pending.popleft()
            self.messages_released += 1
            self.max_hold = max(self.max_hold, now - message.submitted_at)
            if self.sink is not None:
                self.sink(message, now)

    def odometer(self) -> float:
        return float(self.messages_released)

    @property
    def pending_count(self) -> int:
        return len(self._pending)
