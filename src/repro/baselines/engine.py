"""One deployment for the schemes that differ only in their release rule.

Direct (FCFS, §6.1), Frequent Batch Auctions (Budish et al., §2.1) and
Libra (Mavroudis & Melton, AFT'19: randomised order within a window,
§2.1) run the same machine.  Every participant is wired straight to the
CES over a unicast forward and reverse leg, and its trades reach the
matching engine through one
:class:`~repro.core.release_engine.ReleaseEngine`.  What tells them
apart is one :class:`EngineRow` of data:

* the release rule: :class:`~repro.ordering.direct.PassthroughPolicy`
  (never holds, so arrival order) or
  :class:`~repro.ordering.fba.BatchAuctionPolicy` (hold, then release
  in shuffled order: equal priority), with the substream salt its
  shuffle draws from;
* an optional periodic boundary that closes the batch, with its keyword
  and default period: FBA's auction every ``batch_interval`` µs (the
  paper quotes 100 ms) and Libra's window every ``window`` µs;
* whether the boundary first releases the market data held at the CES.
  FBA batches data as well as trades; Libra leaves the forward path
  alone;
* the name of its one counter.

Direct is as fast as the network allows and as fair as its asymmetry
happens to be (74.6 % on the paper's quiet testbed, 57.6 % in the
cloud).  FBA abolishes the speed race: a faster responder wins half its
races, and latency is the auction period.  Libra's faster participant
lands in an earlier window more often than not while latency variability
stays within the window, so it wins more than half its races but never
with certainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from operator import itemgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.baselines.base import BaseDeployment
from repro.core.release_engine import ReleaseEngine
from repro.exchange.messages import MarketDataPoint, TradeOrder
from repro.ordering.direct import PassthroughPolicy
from repro.ordering.fba import BatchAuctionPolicy
from repro.participants.mp import MarketParticipant
from repro.sim.dense import PointSeries, grow

__all__ = ["EngineRow", "EngineDeployment", "DIRECT", "FBA", "LIBRA", "batch_interval_for"]


@dataclass(frozen=True)
class EngineRow:
    """What one engine scheme is, as data.

    ``policy`` is called with no argument when ``salt`` is ``None``,
    else with the run's substream for ``salt``.  A row with a
    ``boundary`` keyword closes a batch every ``period`` µs (the
    keyword's default); ``holds_data`` makes the CES keep its market data
    for that boundary too.
    """

    name: str
    counter: str
    policy: Callable[..., Any] = PassthroughPolicy
    salt: Optional[int] = None
    boundary: Optional[str] = None
    period: float = 0.0
    holds_data: bool = False


DIRECT = EngineRow("direct", "trades_sequenced")
FBA = EngineRow(
    "fba", "auctions_held", BatchAuctionPolicy, salt=77,
    boundary="batch_interval", period=100_000.0, holds_data=True,
)
LIBRA = EngineRow(
    "libra", "windows_closed", BatchAuctionPolicy, salt=78, boundary="window", period=10.0
)


def batch_interval_for(duration: float) -> float:
    """The auction period for a ``duration`` µs FBA run that sets none: an
    eighth of the run, so the first trades release a quarter of the way in
    (the paper's 100 ms never fires inside a short window)."""
    return duration / 8.0


# Dedup keys: a publication's sequence number, an order's key.  Both
# count up densely, so the channels' dedup logs stay one run each.
_publication = itemgetter(0)


def _order_key(order: TradeOrder) -> Tuple[str, int]:
    return order.key


class EngineDeployment(BaseDeployment):
    """A runnable engine scheme: ``row`` says which.

    The row's ``boundary`` keyword, when it has one, sets the period in
    µs (``batch_interval=`` for fba, ``window=`` for libra).
    """

    def __init__(self, specs, row: EngineRow, **kwargs: Any) -> None:
        period = kwargs.pop(row.boundary, row.period) if row.boundary else None
        super().__init__(specs, **kwargs)
        if period is not None and not 0 < period < math.inf:  # also rejects NaN
            raise ValueError(f"{row.boundary} must be positive and finite")
        self.row = row
        self.scheme_name = row.name
        self.period = period
        policy = row.policy() if row.salt is None else row.policy(self.runtime.substream(row.salt))
        me = self.ces.matching_engine
        self.release_engine = ReleaseEngine(
            policy, sink=lambda order, now: me.submit(order, forward_time=now)
        )
        self.boundaries_closed = 0
        # Points the CES holds for the next boundary (``holds_data`` rows).
        self._held: List[MarketDataPoint] = []
        self._publications = count()
        # Per-participant raw arrival time per point.
        self._arrivals: Dict[str, PointSeries] = {}

    def _build(self) -> None:
        """Wire every participant straight to the CES.

        Each publication is ``(sequence number, points)``; a participant
        takes the points on arrival, recorded in ``self._arrivals``, and
        its trades ride the reverse leg into the release engine.  Channel
        dedup absorbs at-least-once delivery on both legs, so a
        duplicated trade never reaches the matching engine twice.
        """
        self._arrivals = {mp_id: PointSeries() for mp_id in self.mp_ids}
        for index, mp in enumerate(self.participants):

            def on_points(
                message: Tuple[int, Tuple[MarketDataPoint, ...]],
                send_time: float,
                arrival_time: float,
                mp: MarketParticipant = mp,
                times: Any = self._arrivals[mp.mp_id].times,
            ) -> None:
                points = message[1]
                for point in points:
                    x = point.point_id
                    if x >= len(times):
                        grow(times, x)
                    times[x] = arrival_time
                mp.on_data(points, arrival_time)

            self._open_leg(index, "forward", _publication, on_points)
            reverse = self._open_leg(index, "reverse", _order_key, self.release_engine.on_trade)
            self._wire_mp_submitter(index, reverse.send)
        self.ces.set_distributor(
            self._held.append if self.row.holds_data else lambda point: self._publish((point,))
        )

    def _publish(self, points: Tuple[MarketDataPoint, ...]) -> None:
        """Stamp the points' network send time and multicast them as one message."""
        now = self.engine.now
        for point in points:
            self.network_send_times[point.point_id] = now
        self.multicast.broadcast((next(self._publications), points), send_time=now)

    def _start(self, duration: float) -> None:
        if self.period is not None:
            self.engine.schedule_periodic(self.period, self.period, self._close_boundary)

    def _close_boundary(self) -> None:
        self.boundaries_closed += 1
        held = self._held
        if held:
            points = tuple(held)
            held.clear()
            self._publish(points)
        # The policy shuffles the period's trades and the engine releases
        # them into the matching engine, inside this one boundary event
        # (held points first).
        self.release_engine.on_boundary(self.engine.now)

    def _first_release(self) -> Optional[Tuple[float, str]]:
        if self.period is None:
            return None
        if self.row.holds_data:
            # Data waits for the first boundary, the trades it triggers
            # for the second.
            return 2 * self.period, f"2 × {self.row.boundary}"
        return self.period, str(self.row.boundary)

    def _settled(self) -> bool:
        # Held points wait for the next boundary, a periodic timer the
        # base predicate counts as idle.
        return not self._held and super()._settled()

    # The recorder's own series, handed over: a finished run records no more.
    def _raw_arrivals(self) -> Dict[str, Mapping[int, float]]:
        return dict(self._arrivals)

    # No hold between arrival and participant: delivery is the raw arrival.
    _delivery_times = _raw_arrivals

    def _counters(self) -> Dict[str, float]:
        if self.period is not None:
            return {self.row.counter: float(self.boundaries_closed)}
        # Without a boundary the row counts trades; duplicates counted
        # from when they reached the (idempotent) matching engine.
        engine = self.release_engine
        return {self.row.counter: float(engine.trades_released + engine.duplicates_ignored)}
