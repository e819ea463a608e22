"""Probabilistic fair ordering as a full deployment (the sixth scheme).

:class:`ProbDeployment` keeps DBO's entire topology — tagged trades,
delivery-clock stamps, release buffers, heartbeats, retransmission and
failover machinery — and swaps only the ordering buffer's *release rule*:
instead of waiting for watermark proof that no smaller-stamped trade is
in flight (a heartbeat round, ~τ µs), :class:`ProbOrderingBuffer` holds
each trade for a fixed confidence horizon ``h`` after arrival and then
releases in stamp order.  The rule itself — due times, the released
maximum, the inversion count — is
:class:`~repro.ordering.prob.ProbabilisticPolicy`; the buffer arms the
horizon wake and asks it, and every other line is the DBO buffer's.

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
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.ordering_buffer import HeapEntry, OrderingBuffer, ReleaseSink
from repro.baselines.base import NetworkSpec
from repro.core.system import DBODeployment
from repro.exchange.messages import TaggedTrade
from repro.ordering.prob import ProbabilisticPolicy
from repro.sim.engine import Scheduler

__all__ = ["ProbOrderingBuffer", "ProbDeployment"]


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
        self.horizon = ProbabilisticPolicy.checked_horizon(horizon)
        super().__init__(specs, **kwargs)

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
