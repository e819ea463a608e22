"""Market-data feed generation at the CES.

The paper's evaluation generates a data point at a fixed cadence (one tick
every 40 µs ⇒ 25k ticks/s, §6.2-§6.3).  The feed here produces
:class:`~repro.exchange.messages.MarketDataPoint` objects on that cadence
with a simple reference-price process and a configurable fraction of
"opportunity" ticks that open speed races (every tick is an opportunity by
default, matching the paper's workload where each MP responds to each
tick).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Optional

from repro.exchange.messages import MarketDataPoint
from repro.sim.randomness import SubstreamCounter

__all__ = ["FeedConfig", "MarketDataFeed"]


@dataclass
class FeedConfig:
    """Parameters of the market-data generator.

    Attributes
    ----------
    interval:
        Microseconds between consecutive data points (paper: 40 µs).
        For ``mode="poisson"`` this is the *mean* inter-point time.
    mode:
        ``"periodic"`` (the paper's fixed cadence) or ``"poisson"``
        (bursty/sparse feeds — exercises the batcher's window-timer path
        and Appendix D's sparse-feed discussion).
    initial_price:
        Starting reference price.
    price_volatility:
        Per-tick standard deviation of the price random walk.
    opportunity_fraction:
        Fraction of ticks flagged as speed-race opportunities.
    seed:
        Seeds the price walk, opportunity coin-flips and Poisson gaps.
    """

    interval: float = 40.0
    mode: str = "periodic"
    initial_price: float = 100.0
    price_volatility: float = 0.01
    opportunity_fraction: float = 1.0
    seed: int = 7

    def __post_init__(self) -> None:
        if not 0.0 < self.interval < math.inf:
            raise ValueError("interval must be positive and finite")
        if self.mode not in ("periodic", "poisson"):
            raise ValueError(f"unknown feed mode: {self.mode!r}")
        if not 0.0 <= self.opportunity_fraction <= 1.0:
            raise ValueError("opportunity_fraction must be in [0, 1]")

    @property
    def is_periodic(self) -> bool:
        return self.mode == "periodic"


class MarketDataFeed:
    """Generates the CES market-data stream.

    The feed is a pull-based generator: the CES asks for the next point
    and timestamps it ``G(x)`` at generation.  Keeping it pull-based lets
    the CES batcher own the timing (and lets tests drive the feed without
    an event loop).
    """

    def __init__(self, config: Optional[FeedConfig] = None) -> None:
        self.config = config if config is not None else FeedConfig()
        self._next_id = 0
        self._price = self.config.initial_price
        self._stream = SubstreamCounter(self.config.seed, stream_id=1)
        self._gap_stream = SubstreamCounter(self.config.seed, stream_id=2)
        self.generated: List[MarketDataPoint] = []

    def next_gap(self) -> float:
        """Time until the next point (fixed, or exponential for Poisson)."""
        if self.config.is_periodic:
            return self.config.interval
        return max(self._gap_stream.next_exponential(self.config.interval), 1e-6)

    @property
    def points_generated(self) -> int:
        return self._next_id

    def generation_time_of(self, point_id: int) -> float:
        """``G(x)`` for an already-generated point."""
        return self.generated[point_id].generation_time

    def next_point(
        self,
        generation_time: float,
        payload: Any = None,
        opportunity: Optional[bool] = None,
    ) -> MarketDataPoint:
        """Produce the next data point, stamped at ``generation_time``.

        ``payload``/``opportunity`` let the CES serialize *external*
        events (news, competing-exchange data) into the same id space —
        the super-stream of §4.2.6.
        """
        # Symmetric two-point step keeps the walk mean-zero and cheap.
        step = self.config.price_volatility * (2.0 * self._stream.next_unit() - 1.0)
        self._price = max(0.01, self._price + step)
        if opportunity is None:
            opportunity = (
                self.config.opportunity_fraction >= 1.0
                or self._stream.next_unit() < self.config.opportunity_fraction
            )
        point = MarketDataPoint(
            point_id=self._next_id,
            generation_time=generation_time,
            price=self._price,
            is_opportunity=opportunity,
            payload=payload,
        )
        self._next_id += 1
        self.generated.append(point)
        return point
