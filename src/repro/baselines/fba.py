"""Frequent Batch Auctions (Budish et al.) — the matching-engine-change
baseline (§2.1).

FBA discretizes time: market data is released periodically (the paper
quotes 1 batch per 100 ms — slow enough that every participant can
respond before the next release), and all trades responding to a batch
are executed with *equal priority*; we realize equal priority as a
deterministic-seeded random shuffle at the auction boundary.

FBA is "fair" in the sense that network latency gives nobody an edge —
but it does so by abolishing the speed race entirely (a faster responder
wins only 50 % of pairwise races) and its latency is the batch interval.
Both effects show up in the comparison benchmarks.

The hold-and-shuffle rule is
:class:`repro.ordering.fba.BatchAuctionPolicy` on the shared
:class:`repro.core.release_engine.ReleaseEngine`; this module carries
the topology and the data-side batching.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.baselines.base import BaseDeployment
from repro.core.release_engine import ReleaseEngine
from repro.exchange.messages import MarketDataPoint
from repro.ordering.fba import BatchAuctionPolicy

__all__ = ["FBADeployment"]


class FBADeployment(BaseDeployment):
    """A runnable Frequent-Batch-Auction system.

    Parameters beyond the base:

    batch_interval:
        Auction period in µs (paper: 100 ms = 100 000 µs).  Data points
        are buffered at the CES and released together at each boundary;
        trades accumulated over a period are executed at the next
        boundary in shuffled order.
    """

    scheme_name = "fba"

    def __init__(self, specs, batch_interval: float = 100_000.0, **kwargs) -> None:
        super().__init__(specs, **kwargs)
        if not 0 < batch_interval < math.inf:  # also rejects NaN
            raise ValueError("batch_interval must be positive and finite")
        self.batch_interval = batch_interval
        self._pending_points: List[MarketDataPoint] = []
        self._arrivals: Dict[str, Dict[int, float]] = {}
        self._deliveries: Dict[str, Dict[int, float]] = {}
        # One unit draw per batched trade at each non-empty boundary
        # (substream salts are position-independent, so creating the
        # stream here is digest-identical to the historical in-place
        # shuffler).
        self.release_engine = ReleaseEngine(
            BatchAuctionPolicy(self.runtime.substream(77)),
            sink=self._execute,
        )
        self.auctions_held = 0

    def _execute(self, order, now: float) -> None:
        self.ces.matching_engine.submit(order, forward_time=now)

    def _build(self) -> None:
        self._arrivals = {mp_id: {} for mp_id in self.mp_ids}
        self._deliveries = self._arrivals  # no extra hold beyond CES batching

        for index in range(len(self.specs)):
            mp_id = self.mp_ids[index]
            mp = self.participants[index]
            def on_points(
                points: Tuple[MarketDataPoint, ...],
                send_time: float,
                arrival_time: float,
                mp=mp,
                mp_id=mp_id,
            ) -> None:
                for point in points:
                    self._arrivals[mp_id][point.point_id] = arrival_time
                mp.on_data(points, arrival_time)

            # Each auction publishes one point tuple; its id span is a
            # unique identity for channel-level dedup.  A duplicated trade
            # would reach the matching engine twice at the next auction —
            # dedup by order key at the channel.
            self._open_forward_leg(
                index,
                lambda points: (points[0].point_id, points[-1].point_id),
                on_points,
            )
            reverse = self._open_reverse_leg(
                index, lambda order: order.key, self.release_engine.on_trade
            )
            self._wire_mp_submitter(index, lambda order, link=reverse: link.send(order))

        # Late-bound lambda: _auction swaps the pending list out, so the
        # distributor must resolve the attribute at call time.
        self.ces.set_distributor(lambda point: self._pending_points.append(point))

    def _start(self, duration: float) -> None:
        self.engine.schedule_periodic(
            self.batch_interval, self.batch_interval, self._auction
        )

    def _auction(self) -> None:
        now = self.engine.now
        self.auctions_held += 1
        if self._pending_points:
            points = tuple(self._pending_points)
            self._pending_points = []
            for point in points:
                self.network_send_times[point.point_id] = now
            self.multicast.broadcast(points, send_time=now)
        # Equal priority: the policy shuffles the period's trades and the
        # engine releases them into the matching engine, all inside this
        # one boundary event (points first — the historical order).
        self.release_engine.on_boundary(now)

    # ------------------------------------------------------------------
    def _raw_arrivals(self) -> Dict[str, Dict[int, float]]:
        return {mp_id: dict(points) for mp_id, points in self._arrivals.items()}

    def _delivery_times(self) -> Dict[str, Dict[int, float]]:
        return self._raw_arrivals()

    def _counters(self) -> Dict[str, float]:
        return {"auctions_held": float(self.auctions_held)}
