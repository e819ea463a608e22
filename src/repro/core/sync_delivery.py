"""Sync-assisted delivery — the paper's §4.2.6 extension.

DBO's guarantee is limited to response times below δ.  The paper sketches
a best-of-both extension for deployments that *do* have (imperfectly)
synchronized clocks:

    "In case we have access to synchronized clocks, we can try and
    ensure (to the extent possible) that batches are indeed delivered at
    the same time across participants.  When batches are delivered
    simultaneously, delivery clocks also get synchronized and DBO simply
    orders trades in the order of submission time.  DBO thus ensures
    better fairness for such trades ... while always guaranteeing LRTF."

:class:`SyncAssistedReleaseBuffer` implements that: each batch gets a
*target* release time ``close_time + C1`` on the synchronized clock, and
the RB releases at

    ``max(target, arrival, pacing_earliest)``

— i.e. it *waits* for the common target when the network was fast,
equalizing inter-delivery times across participants (better-than-LRTF
fairness for slow responders), and degrades gracefully to plain DBO
pacing when the network was slow (LRTF still guaranteed, unlike CloudEx
which simply overruns).  Synchronization error shifts each RB's notion
of the target by a bounded amount, eroding the beyond-horizon bonus but
never the LRTF guarantee.
"""

from __future__ import annotations

from typing import Optional

from repro.core.release_buffer import ReleaseBuffer, RetransmitPolicy
from repro.exchange.messages import MarketDataBatch
from repro.net.latency import LatencyModel
from repro.sim.clocks import Clock, SynchronizedClock
from repro.sim.engine import EventEngine

__all__ = ["SyncAssistedReleaseBuffer"]


class SyncAssistedReleaseBuffer(ReleaseBuffer):
    """A release buffer that aims deliveries at a synchronized target.

    Parameters beyond :class:`~repro.core.release_buffer.ReleaseBuffer`:

    sync_clock:
        The RB's synchronized clock (bounded error).  Used *only* to aim
        the release target; the delivery clock still runs on the local
        interval clock, so every DBO guarantee survives arbitrarily bad
        synchronization.
    target_delay:
        ``C1`` — the common one-way delivery target (µs after the batch
        close time).  Like CloudEx's threshold, it should clear the
        typical network latency; unlike CloudEx, exceeding it costs only
        the *bonus*, never LRTF.
    """

    __slots__ = ("sync_clock", "target_delay", "targets_met", "targets_missed")

    def __init__(
        self,
        engine: EventEngine,
        mp_id: str,
        pacing_gap: float,
        heartbeat_period: float,
        sync_clock: SynchronizedClock,
        target_delay: float,
        local_clock: Optional[Clock] = None,
        rb_to_mp: Optional[LatencyModel] = None,
        retransmit_policy: Optional[RetransmitPolicy] = None,
    ) -> None:
        super().__init__(
            engine,
            mp_id,
            pacing_gap=pacing_gap,
            heartbeat_period=heartbeat_period,
            local_clock=local_clock,
            rb_to_mp=rb_to_mp,
            retransmit_policy=retransmit_policy,
        )
        if target_delay <= 0:
            raise ValueError("target_delay (C1) must be positive")
        self.sync_clock = sync_clock
        self.target_delay = float(target_delay)
        self.targets_met = 0
        self.targets_missed = 0

    def _target_true_time(self, batch: MarketDataBatch, arrival_time: float) -> float:
        """True time at which this RB's sync clock reads close + C1."""
        target_sync = batch.close_time + self.target_delay
        # sync reading = true + error  ⇒  true = reading − error(≈ at arrival).
        return target_sync - self.sync_clock.error_at(arrival_time)

    def _schedule_delivery(self) -> None:
        if self._delivery_scheduled or not self._queue:
            return
        self._delivery_scheduled = True
        batch = self._queue[0]
        target = self._target_true_time(batch, self.engine.now)
        when = max(self._earliest_delivery_time(), target)
        if when <= target + 1e-9:
            self.targets_met += 1
        else:
            self.targets_missed += 1
        self.engine.schedule_at(when, self._deliver_head, priority=2)
