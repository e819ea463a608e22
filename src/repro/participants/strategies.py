"""Trading strategies: what a participant does with a delivered tick.

The fairness experiments only need the paper's *speed racer* — react to
every opportunity tick with one order.  The examples exercise richer
strategies (a market maker, a momentum taker) to show the public API on
realistic order flow, with the matching engine executing for real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.exchange.messages import MarketDataPoint, OrderType, Side, TimeInForce
from repro.sim.randomness import SubstreamCounter

__all__ = [
    "TradeIntent",
    "Strategy",
    "SpeedRacer",
    "MarketMaker",
    "AggressiveTaker",
]


@dataclass(frozen=True)
class TradeIntent:
    """What the strategy wants to submit (the MP adds identity/timing)."""

    side: Side
    price: float
    quantity: int = 1
    order_type: Optional[OrderType] = None  # None → LIMIT
    time_in_force: Optional[TimeInForce] = None  # None → GTC


class Strategy:
    """Interface: intents produced in response to one delivered point."""

    def on_point(self, point: MarketDataPoint) -> List[TradeIntent]:
        raise NotImplementedError


class SpeedRacer(Strategy):
    """The paper's workload: one aggressive order per opportunity tick.

    Alternates sides so that, when the matching engine executes for real,
    racers provide each other liquidity; price follows the tick so orders
    cross.
    """

    def __init__(self, quantity: int = 1, seed: int = 0) -> None:
        if quantity <= 0:
            raise ValueError("quantity must be positive")
        self.quantity = quantity
        self._stream = SubstreamCounter(seed, stream_id=5)

    def on_point(self, point: MarketDataPoint) -> List[TradeIntent]:
        if not point.is_opportunity:
            return []
        side = Side.BUY if self._stream.next_unit() < 0.5 else Side.SELL
        return [TradeIntent(side=side, price=point.price, quantity=self.quantity)]


class MarketMaker(Strategy):
    """Quotes both sides around the reference price with a fixed spread."""

    def __init__(self, half_spread: float = 0.05, quantity: int = 10) -> None:
        if half_spread <= 0:
            raise ValueError("half_spread must be positive")
        if quantity <= 0:
            raise ValueError("quantity must be positive")
        self.half_spread = half_spread
        self.quantity = quantity

    def on_point(self, point: MarketDataPoint) -> List[TradeIntent]:
        return [
            TradeIntent(Side.BUY, round(point.price - self.half_spread, 6), self.quantity),
            TradeIntent(Side.SELL, round(point.price + self.half_spread, 6), self.quantity),
        ]


class AggressiveTaker(Strategy):
    """Races to lift the offer on every opportunity, immediate-or-cancel.

    The canonical speed-race economics: a taker crossing the spread to
    capture whatever stale liquidity rests at the top of the book.  IOC
    keeps misses from resting (and later crossing unintended quotes).
    """

    def __init__(self, quantity: int = 1, aggression: float = 1.0) -> None:
        if quantity <= 0:
            raise ValueError("quantity must be positive")
        self.quantity = quantity
        self.aggression = aggression

    def on_point(self, point: MarketDataPoint) -> List[TradeIntent]:
        if not point.is_opportunity:
            return []
        return [
            TradeIntent(
                Side.BUY,
                point.price + self.aggression,
                self.quantity,
                time_in_force=TimeInForce.IOC,
            )
        ]
