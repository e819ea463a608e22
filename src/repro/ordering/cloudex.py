"""CloudEx's resequencing-buffer hold — deadline at ``S + C2`` (§2.1).

A trade stamped ``S`` by the participant's synchronized clock is held
until local synchronized time ``S + C2`` and released in stamp order.
A trade arriving *after* its deadline has missed its slot and is
forwarded immediately — out of order, i.e. unfairly ("overrun", the
paper's Figure 2 failure mode).

Items are ``(order, submit_stamp)`` tuples exactly as they ride the
reverse channels; the deployment's sink unwraps the order.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Iterator, List, Tuple

from repro.ordering.policy import RELEASE_NOW, Admission

if TYPE_CHECKING:
    from repro.exchange.messages import TradeOrder
    from repro.sim.clocks import SynchronizedClock

StampedOrder = Tuple["TradeOrder", float]

__all__ = ["SyncDeadlinePolicy"]


class SyncDeadlinePolicy:
    """Hold until ``S + C2`` on the sync clock; release in stamp order."""

    name = "cloudex"

    def __init__(self, c2: float, clock: "SynchronizedClock") -> None:
        self.c2 = self.checked_c2(c2)
        self.clock = clock
        # Heap keyed by (stamped submission time, mp_id, seq): deadline
        # order == stamp order since C2 is constant.
        self._heap: List[Tuple[float, str, int, StampedOrder]] = []
        self.overruns = 0

    @staticmethod
    def checked_c2(c2: float) -> float:
        """``c2`` as a float, or ``ValueError`` if it cannot be a hold."""
        if not 0 < c2 < math.inf:  # also rejects NaN
            raise ValueError("c2 must be positive and finite")
        return float(c2)

    def key_of(self, item: StampedOrder) -> Tuple[str, int]:
        return item[0].key

    def admit(self, item: StampedOrder, now: float) -> Admission:
        order, submit_stamp = item
        deadline_local = submit_stamp + self.c2
        deadline_true = deadline_local - self.clock.error_at(now)
        if now >= deadline_true:
            # Deadline already missed: forward now, out of order.
            self.overruns += 1
            return RELEASE_NOW
        heapq.heappush(
            self._heap, (submit_stamp, order.mp_id, order.trade_seq, item)
        )
        return Admission(wake_at=deadline_true)

    def pop_due(self, now: float) -> Iterator[StampedOrder]:
        heap = self._heap
        while heap:
            submit_stamp = heap[0][0]
            deadline_true = submit_stamp + self.c2 - self.clock.error_at(now)
            if deadline_true > now + 1e-9:
                break
            yield heapq.heappop(heap)[3]

    def on_boundary(self, now: float) -> None:
        pass

    def pop_all(self, now: float) -> Iterator[StampedOrder]:
        heap = self._heap
        while heap:
            yield heapq.heappop(heap)[3]

    def pending_count(self) -> int:
        return len(self._heap)
