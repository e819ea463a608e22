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
        # One unit draw per batched trade at each non-empty boundary
        # (substream salts are position-independent, so creating the
        # stream here is digest-identical to the historical in-place
        # shuffler).
        self.release_engine = ReleaseEngine(
            BatchAuctionPolicy(self.runtime.substream(77)),
            sink=self._execute,
        )
        self.auctions_held = 0

    @staticmethod
    def interval_for(duration: float) -> float:
        """The auction period for a ``duration`` µs run that sets none: an
        eighth of the run, so the first trades release a quarter of the
        way in (the paper's 100 ms never fires inside a short window)."""
        return duration / 8.0

    def _execute(self, order, now: float) -> None:
        self.ces.matching_engine.submit(order, forward_time=now)

    def _build(self) -> None:
        # Points wait at the CES for the next auction.  Late-bound: the
        # auction swaps the pending list out.
        self._build_unicast_legs(
            self.release_engine.on_trade,
            distributor=lambda point: self._pending_points.append(point),
        )

    def _start(self, duration: float) -> None:
        self.engine.schedule_periodic(
            self.batch_interval, self.batch_interval, self._auction
        )

    def _first_release(self) -> Tuple[float, str]:
        # Data waits for the first auction, the trades it triggers for
        # the second.
        return 2 * self.batch_interval, "2 × batch_interval"

    def _auction(self) -> None:
        now = self.engine.now
        self.auctions_held += 1
        if self._pending_points:
            points = tuple(self._pending_points)
            self._pending_points = []
            self._publish_points(points)
        # Equal priority: the policy shuffles the period's trades and the
        # engine releases them into the matching engine, all inside this
        # one boundary event (points first — the historical order).
        self.release_engine.on_boundary(now)

    def _settled(self) -> bool:
        # Points wait for the next auction, a periodic timer the base
        # predicate counts as idle.
        return not self._pending_points and super()._settled()

    def _counters(self) -> Dict[str, float]:
        return {"auctions_held": float(self.auctions_held)}
