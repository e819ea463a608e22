"""The Central Exchange Server (CES).

The CES owns three things (Figure 1 of the paper):

1. the **market-data feed** — points generated on a fixed cadence and
   handed to a pluggable *distributor* (direct multicast for the Direct
   and CloudEx baselines, the batcher for DBO);
2. the **matching engine** and whatever sits in front of it (FCFS
   sequencer or ordering buffer);
3. global ground-truth records: ``G(x)`` per point, used by every metric.

The CES is scheme-agnostic: schemes are assembled around it by the
deployment builders in :mod:`repro.core.system` and
:mod:`repro.baselines`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.exchange.feed import FeedConfig, MarketDataFeed
from repro.exchange.matching import MatchingEngine
from repro.exchange.messages import MarketDataPoint
from repro.sim.engine import EventEngine, PeriodicTimer

__all__ = ["CentralExchangeServer"]

Distributor = Callable[[MarketDataPoint], None]


class CentralExchangeServer:
    """Generates the market data stream and hosts the matching engine.

    Parameters
    ----------
    engine:
        Event engine driving the simulation.
    feed_config:
        Cadence and price-process parameters.
    distributor:
        Receives each freshly generated point.  Set via
        :meth:`set_distributor` after the scheme's delivery pipeline is
        built.
    execute_trades:
        Whether the matching engine crosses trades against a real book.
    """

    def __init__(
        self,
        engine: EventEngine,
        feed_config: Optional[FeedConfig] = None,
        distributor: Optional[Distributor] = None,
        execute_trades: bool = False,
    ) -> None:
        self.engine = engine
        self.feed = MarketDataFeed(feed_config)
        self.matching_engine = MatchingEngine(execute=execute_trades)
        self._distributor = distributor
        self._stop_time: Optional[float] = None
        self._started = False
        self._last_emit_time: Optional[float] = None
        self.keepalives_published = 0
        # Appendix D: for sparse feeds the CES should emit periodic
        # keepalive points so a loss-lagged participant's delivery clock
        # recovers quickly.  None disables (the paper's dense-feed case).
        self.keepalive_interval: Optional[float] = None
        self._keepalive_timer: Optional[PeriodicTimer] = None
        # Fault injection (``ces_hiccup``): while paused the tick chain
        # dies and no points are generated; resume() re-arms it.
        self._paused = False
        self._tick_chain_alive = False
        self.feed_hiccups = 0

    # ------------------------------------------------------------------
    def set_distributor(self, distributor: Distributor) -> None:
        """Wire the delivery pipeline that receives generated points."""
        self._distributor = distributor

    def generation_time_of(self, point_id: int) -> float:
        """``G(x)`` — generation time of point ``point_id``."""
        return self.feed.generation_time_of(point_id)

    @property
    def points_generated(self) -> int:
        return self.feed.points_generated

    # ------------------------------------------------------------------
    def start(self, start_time: float = 0.0, stop_time: Optional[float] = None) -> None:
        """Begin generating data points on the feed cadence.

        Parameters
        ----------
        start_time:
            Time of the first tick.
        stop_time:
            No ticks are generated at or after this time (the run keeps
            draining in-flight trades afterwards).
        """
        if self._distributor is None:
            raise RuntimeError("CES has no distributor; call set_distributor() first")
        if self._started:
            raise RuntimeError("CES already started")
        self._started = True
        self._stop_time = stop_time
        self._tick_chain_alive = True
        self.engine.schedule_at(start_time, self._tick)
        if self.keepalive_interval is not None:
            if self.keepalive_interval <= 0:
                raise ValueError("keepalive_interval must be positive")
            self._keepalive_timer = self.engine.schedule_periodic(
                start_time + self.keepalive_interval,
                self.keepalive_interval,
                self._keepalive,
                priority=3,
            )

    def _tick(self) -> None:
        now = self.engine.now
        if self._paused:
            # The chain dies here; resume() re-arms it exactly once.
            self._tick_chain_alive = False
            return
        if self._stop_time is not None and now >= self._stop_time:
            self._tick_chain_alive = False
            return
        point = self.feed.next_point(generation_time=now)
        self._last_emit_time = now
        self._distributor(point)
        self.engine.schedule_after(self.feed.next_gap(), self._tick)

    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Fault injection (``ces_hiccup``): the feed process hangs.

        Generation stops at the next scheduled tick; everything else
        (matching engine, keepalives disabled-by-default) is untouched.
        Idempotent while already paused.
        """
        if not self._paused:
            self._paused = True
            self.feed_hiccups += 1

    def resume(self) -> None:
        """Heal a hiccup: restart generation one cadence gap from now.

        Guarded against double-arming: if a pending tick is still in
        flight (resume landed before the pause was noticed), that tick
        carries the chain and no second chain is started.
        """
        if not self._paused:
            return
        self._paused = False
        if self._started and not self._tick_chain_alive:
            self._tick_chain_alive = True
            self.engine.schedule_after(self.feed.next_gap(), self._tick)

    def _keepalive(self) -> None:
        now = self.engine.now
        interval = self.keepalive_interval
        assert interval is not None and self._keepalive_timer is not None
        if self._stop_time is not None and now >= self._stop_time:
            self._keepalive_timer.cancel()
            return
        quiet_for = (
            now - self._last_emit_time if self._last_emit_time is not None else now
        )
        if quiet_for >= interval - 1e-9:
            self.keepalives_published += 1
            self._last_emit_time = now
            self.inject_external(payload="keepalive", opportunity=False)

    # ------------------------------------------------------------------
    def inject_external(self, payload: Any, opportunity: bool = True) -> MarketDataPoint:
        """Serialize an external event into the market-data stream.

        §4.2.6: external streams (news, competing-exchange feeds) can be
        merged with the market data into one *super stream*; the merged
        events then enjoy the same delivery-clock fairness as native
        ticks.  The event becomes the next data point (sequential id,
        generation time = now) and flows through whatever distributor —
        batcher, direct multicast — the scheme wired.

        Returns the created point.
        """
        if self._distributor is None:
            raise RuntimeError("CES has no distributor; call set_distributor() first")
        point = self.feed.next_point(
            generation_time=self.engine.now, payload=payload, opportunity=opportunity
        )
        self._distributor(point)
        return point
