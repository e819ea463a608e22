"""Probabilistic fair ordering as a full deployment (the sixth scheme).

:class:`ProbDeployment` keeps DBO's entire topology — tagged trades,
delivery-clock stamps, release buffers, heartbeats, retransmission and
failover machinery — and swaps only the ordering buffer's *release rule*:
instead of waiting for watermark proof that no smaller-stamped trade is
in flight (a heartbeat round, ~τ µs), :class:`ProbOrderingBuffer` holds
each trade for a fixed confidence horizon ``h`` after arrival and then
releases in stamp order.

The trade-off is explicit and measured:

* release latency drops from "next heartbeat round" to exactly ``h``;
* a trade whose rival arrives unusually late can be released before the
  rival, producing an *ordering inversion* — counted per release against
  the running stamp maximum, never silently dropped;
* the inversion rate is bounded by
  :func:`repro.theory.bounds.prob_ordering_bound` — the violation-rate
  CI measured by the chaos harness must sit inside that bound.

This module intentionally lives outside ``repro.ordering.__init__``'s
import surface: it imports :mod:`repro.core.system`, and ``repro.core``
imports the (pure, core-free) policy modules of this package — the
scheme registry imports this module directly instead.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.ordering_buffer import OrderingBuffer, ReleaseSink
from repro.baselines.base import NetworkSpec
from repro.core.system import DBODeployment
from repro.exchange.messages import TaggedTrade
from repro.sim.engine import Scheduler

__all__ = ["ProbOrderingBuffer", "ProbDeployment"]

WatermarkTuple = Tuple[int, float]


class ProbOrderingBuffer(OrderingBuffer):
    """A delivery-clock OB releasing on horizon expiry, not proof.

    Inherits the whole DBO buffer — heap, dedup, warm-up, crash/failover,
    straggler bookkeeping — and overrides only the release decision: a
    queued trade becomes *due* ``horizon`` µs after its arrival and is
    released once it is due **and** every smaller-stamped queued trade
    has been released (stamp-FIFO within the buffer).  Inversions can
    therefore only arise from trades that arrive after a larger-stamped
    trade already left; each one increments ``ordering_inversions``.

    Parameters beyond :class:`~repro.core.ordering_buffer.OrderingBuffer`:

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
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        super().__init__(
            participants,
            sink=sink,
            generation_time_of=generation_time_of,
            straggler_threshold=straggler_threshold,
            latest_point_id=latest_point_id,
        )
        self._engine = engine
        self.horizon = float(horizon)
        self._due: Dict[Tuple[str, int], float] = {}
        self._max_released_t: Optional[WatermarkTuple] = None
        self.ordering_inversions = 0

    # ------------------------------------------------------------------
    def on_tagged_trade(
        self, tagged: TaggedTrade, send_time: float, arrival_time: float
    ) -> None:
        key = tagged.trade.key
        if key not in self._released and key not in self._queued:
            due = arrival_time + self.horizon
            self._due[key] = due
            self._engine.schedule_at(due, self._horizon_due, priority=2)
        super().on_tagged_trade(tagged, send_time, arrival_time)

    def _horizon_due(self) -> None:
        self._try_release(self._engine.now)

    def _note_release(self, stamp_t: WatermarkTuple) -> None:
        if self._max_released_t is not None and stamp_t < self._max_released_t:
            self.ordering_inversions += 1
        else:
            self._max_released_t = stamp_t

    def _try_release(self, now: float) -> None:
        """Release every due head trade, in stamp order."""
        if self._warmup_pending:
            return
        heap = self._heap
        due = self._due
        while heap:
            head = heap[0]
            if due.get((head[1], head[2]), now) > now + 1e-9:
                break
            tagged = heapq.heappop(heap)[3]
            key = tagged.trade.key
            self._queued.discard(key)
            due.pop(key, None)
            if key in self._released:
                raise RuntimeError(f"trade {key} queued twice in the OB")
            self._released.add(key)
            self.trades_released += 1
            self._note_release(head[0])
            if self.sink is not None:
                self.sink(tagged, now)

    def flush(self, now: float) -> int:
        flushed = 0
        while self._heap:
            entry = heapq.heappop(self._heap)
            tagged = entry[3]
            key = tagged.trade.key
            self._queued.discard(key)
            self._due.pop(key, None)
            if key in self._released:
                continue
            self._released.add(key)
            self.trades_released += 1
            self._note_release(entry[0])
            flushed += 1
            if self.sink is not None:
                self.sink(tagged, now)
        return flushed

    def crash(self) -> int:
        self._due.clear()
        return super().crash()

    def carry_over_counters(self, predecessor: "OrderingBuffer") -> None:
        super().carry_over_counters(predecessor)
        self.ordering_inversions += getattr(predecessor, "ordering_inversions", 0)
        prior_max = getattr(predecessor, "_max_released_t", None)
        if prior_max is not None and (
            self._max_released_t is None or prior_max > self._max_released_t
        ):
            self._max_released_t = prior_max


class ProbDeployment(DBODeployment):
    """A runnable probabilistic-ordering system (flat OB only).

    Parameters beyond :class:`~repro.core.system.DBODeployment`:

    horizon:
        Confidence hold ``h`` in µs (default 6.0 — comfortably below the
        default heartbeat period τ = 20, so the latency win is real,
        while covering most of the cloud profile's reverse-lag spread).

    Sharded OBs and aggregation trees are rejected: the horizon rule is
    a property of the single release point; distributing it is a
    different (and unimplemented) design.
    """

    scheme_name = "prob"
    ordering_guarantee = "probabilistic"

    def __init__(
        self, specs: Sequence[NetworkSpec], horizon: float = 6.0, **kwargs: Any
    ) -> None:
        if kwargs.get("n_ob_shards", 1) > 1:
            raise ValueError("prob supports only the flat (non-sharded) ordering buffer")
        topology = kwargs.get("topology")
        if topology is not None and topology.enabled:
            raise ValueError("prob does not support aggregation-tree mode")
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        super().__init__(specs, **kwargs)
        self.horizon = float(horizon)

    def _make_ordering_buffer(self, sink: ReleaseSink) -> ProbOrderingBuffer:
        return ProbOrderingBuffer(
            participants=list(self.mp_ids),
            engine=self.engine,
            horizon=self.horizon,
            sink=sink,
            generation_time_of=self.ces.generation_time_of,
            straggler_threshold=self.params.straggler_threshold,
            latest_point_id=lambda: self.ces.points_generated - 1,
        )

    def _counters(self) -> Dict[str, float]:
        counters = super()._counters()
        ob = self.ordering_buffer
        if ob is not None:
            counters["ordering_inversions"] = float(ob.ordering_inversions)
            counters["ob_trades_released"] = float(ob.trades_released)
        return counters
