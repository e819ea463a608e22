"""CloudEx — the clock-synchronization baseline (§2.1, Figure 13).

CloudEx equalizes latency *ex ante*: every component has a synchronized
clock; a data point generated at ``t`` is held by each release buffer and
handed to its participant at ``t + C1``; a trade submitted at ``t`` is
held by the ordering buffer and forwarded to the matching engine at
``t + C2``, with trades ordered by their (synchronized) submission
timestamps.

Its failure mode is exactly the paper's Figure 2: when the network
latency of some leg exceeds the threshold, the deadline is already gone
when the packet arrives — the component can only forward immediately
("overrun"), and fairness breaks.  Raising C1/C2 buys fairness but
inflates latency *always*, not just during spikes.  §6.4 evaluates
CloudEx with perfectly synchronized clocks; the ``sync_error`` knob here
additionally models imperfect synchronization.

The trade-side hold rule is
:class:`repro.ordering.cloudex.SyncDeadlinePolicy` on the shared
:class:`repro.core.release_engine.ReleaseEngine`, built directly in
:meth:`CloudExDeployment._build`; this module carries topology plus the
data-side release buffer.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

from repro.baselines.base import BaseDeployment
from repro.core.release_engine import ReleaseEngine
from repro.exchange.messages import MarketDataPoint, TradeOrder
from repro.ordering.cloudex import SyncDeadlinePolicy
from repro.sim.clocks import SynchronizedClock
from repro.sim.dense import PointSeries, grow

__all__ = ["CloudExDeployment", "CloudExReleaseBuffer"]


def _point_id(point: MarketDataPoint) -> int:
    return point.point_id


def _stamped_key(stamped: Tuple[TradeOrder, float]) -> Tuple[str, int]:
    return stamped[0].key


class CloudExReleaseBuffer:
    """Per-participant buffer releasing data at ``G(x) + C1`` (sync time)."""

    def __init__(self, engine, mp_id: str, c1: float, clock: SynchronizedClock) -> None:
        self.engine = engine
        self.mp_id = mp_id
        self.c1 = float(c1)
        self.clock = clock
        self._mp_handler = None
        self._last_release = float("-inf")
        self.release_times = PointSeries()
        self.raw_arrivals = PointSeries()
        self.overruns = 0

    def connect_mp(self, handler) -> None:
        self._mp_handler = handler

    def on_point(self, point: MarketDataPoint, send_time: float, arrival_time: float) -> None:
        times = self.raw_arrivals.times
        x = point.point_id
        if x >= len(times):
            grow(times, x)
        times[x] = arrival_time
        # Target release in *local synchronized* time is G(x) + C1; the
        # local clock's error shifts the corresponding true time.
        target_local = point.generation_time + self.c1
        target_true = target_local - self.clock.error_at(arrival_time)
        release = max(target_true, arrival_time, self._last_release)
        if release > target_true:
            self.overruns += 1
        self._last_release = release
        self.engine.schedule_at(release, self._deliver, priority=0, args=(point, release))

    def _deliver(self, point: MarketDataPoint, release: float) -> None:
        times = self.release_times.times
        x = point.point_id
        if x >= len(times):
            grow(times, x)
        times[x] = release
        self._mp_handler((point,), release)


class CloudExDeployment(BaseDeployment):
    """A runnable CloudEx system.

    Parameters beyond the base: one-way thresholds ``c1`` (data) and
    ``c2`` (trades), and ``sync_error`` — the clock synchronization error
    bound (0 reproduces §6.4's perfect-sync assumption).
    """

    scheme_name = "cloudex"

    def __init__(
        self,
        specs,
        c1: float = 50.0,
        c2: float = 50.0,
        sync_error: float = 0.0,
        **kwargs,
    ) -> None:
        super().__init__(specs, **kwargs)
        if not 0 < c1 < math.inf:  # also rejects NaN
            raise ValueError("c1 must be positive and finite")
        if not math.isfinite(sync_error):
            raise ValueError("sync_error must be finite")
        self.c1 = c1
        self.c2 = SyncDeadlinePolicy.checked_c2(c2)
        self.sync_error = sync_error
        self.rbs: List[CloudExReleaseBuffer] = []
        # CES-side buffer forwarding trades at ``S + C2``, ordered by
        # ``S``; items are the reverse-channel ``(order, stamp)`` tuples.
        self.ob: Optional[ReleaseEngine] = None

    def _make_sync_clock(self, salt: int) -> SynchronizedClock:
        return SynchronizedClock(
            error_bound=self.sync_error, seed=self.runtime.u64(salt)
        )

    def _build(self) -> None:
        me = self.ces.matching_engine
        self.ob = ReleaseEngine(
            SyncDeadlinePolicy(c2=self.c2, clock=self._make_sync_clock(9999)),
            sink=lambda stamped, now: me.submit(stamped[0], forward_time=now),
            engine=self.engine,
        )
        for index in range(len(self.specs)):
            mp_id = self.mp_ids[index]
            mp = self.participants[index]
            rb = CloudExReleaseBuffer(
                self.engine, mp_id, c1=self.c1, clock=self._make_sync_clock(index)
            )
            rb.connect_mp(mp.on_data)
            self.rbs.append(rb)

            # Reverse messages are (order, sync stamp) tuples; the order
            # key dedups because the ME rejects duplicate submissions.
            self._open_leg(index, "forward", _point_id, rb.on_point)
            reverse = self._open_leg(index, "reverse", _stamped_key, self.ob.on_trade)

            mp_clock = self._make_sync_clock(1000 + index)

            def submit(order: TradeOrder, link=reverse, mp_clock=mp_clock) -> None:
                # The trusted component at the participant stamps the trade
                # with the synchronized clock at submission.
                stamp = mp_clock.now(self.engine.now)
                link.send((order, stamp))

            self._wire_mp_submitter(index, submit)

        self.ces.set_distributor(self._publish_point)

    def _publish_point(self, point: MarketDataPoint) -> None:
        """Stamp the point's network send time and multicast it."""
        now = self.engine.now
        self.network_send_times[point.point_id] = now
        self.multicast.broadcast(point, send_time=now)

    # ------------------------------------------------------------------
    # The RBs' own series, handed over: a finished run records no more.
    def _raw_arrivals(self) -> Dict[str, Mapping[int, float]]:
        return {rb.mp_id: rb.raw_arrivals for rb in self.rbs}

    def _delivery_times(self) -> Dict[str, Mapping[int, float]]:
        return {rb.mp_id: rb.release_times for rb in self.rbs}

    def _counters(self) -> Dict[str, float]:
        ob = self.ob
        return {
            "data_overruns": float(sum(rb.overruns for rb in self.rbs)),
            "trade_overruns": float(ob.policy.overruns if ob else 0),
            # Historically every forward — including the duplicate
            # deliveries the matching engine then rejected — counted.
            "trades_forwarded": float(
                ob.trades_released + ob.duplicates_ignored if ob else 0
            ),
        }
