"""The market participant (MP) model.

Mirrors the paper's evaluation methodology (§6.1): the MP reacts to each
delivered opportunity tick after a *known*, pre-drawn response time, so
the harness can compute the expected fair ordering exactly.  The reaction
itself (side/price/quantity) comes from a pluggable strategy.

The MP is scheme-agnostic: it receives ``(points, delivery_time)`` from
whatever delivery pipeline the scheme wires (RB under DBO/CloudEx, raw
link under Direct) and submits :class:`TradeOrder` objects through a
scheme-provided submitter.  It keeps no order: each trade's ground truth
(trigger point, response time, submission time) goes to typed columns
indexed by ``trade_seq``, the one copy a run result is assembled from.
"""

from __future__ import annotations

from array import array
from typing import Callable, Optional, Tuple

from repro.exchange.messages import MarketDataPoint, TradeOrder
from repro.participants.response_time import ResponseTimeModel, UniformResponseTime
from repro.participants.strategies import SpeedRacer, Strategy
from repro.sim.engine import EventEngine

__all__ = ["MarketParticipant"]

TradeSubmitter = Callable[[TradeOrder], None]


class MarketParticipant:
    """A trading agent with a known response-time profile.

    Parameters
    ----------
    engine:
        Event engine.
    mp_id:
        Participant name (e.g. ``"mp3"``).
    mp_index:
        Dense index used to seed the response-time draws.
    response_time_model:
        RT distribution; defaults to the paper's Uniform[5, 20) µs.
    strategy:
        Reaction logic; defaults to the speed-racer workload.
    submitter:
        Called with each trade at its submission time ``S(i, a)``.
        Set after wiring via :meth:`connect`.
    """

    def __init__(
        self,
        engine: EventEngine,
        mp_id: str,
        mp_index: int,
        response_time_model: Optional[ResponseTimeModel] = None,
        strategy: Optional[Strategy] = None,
        submitter: Optional[TradeSubmitter] = None,
    ) -> None:
        self.engine = engine
        self.mp_id = mp_id
        self.mp_index = mp_index
        self.response_time_model = (
            response_time_model if response_time_model is not None else UniformResponseTime()
        )
        self.strategy = strategy if strategy is not None else SpeedRacer(seed=mp_index)
        self._submitter = submitter
        # Ground truth per trade, indexed by ``trade_seq``.
        self.trigger_points = array("q")
        self.response_times = array("d")
        self.submission_times = array("d")
        self.points_seen = 0

    def connect(self, submitter: TradeSubmitter) -> None:
        """Attach the outbound trade path (RB intercept or direct link)."""
        self._submitter = submitter

    # ------------------------------------------------------------------
    def on_data(self, points: Tuple[MarketDataPoint, ...], delivery_time: float) -> None:
        """Delivery handler: react to each point after its response time.

        ``delivery_time`` is ``D(i, x)`` for every point in the delivered
        group (batch delivery is atomic).
        """
        if self._submitter is None:
            raise RuntimeError(f"MP {self.mp_id!r} has no trade submitter")
        for point in points:
            self.points_seen += 1
            intents = self.strategy.on_point(point)
            if not intents:
                continue
            response_time = self.response_time_model.response_time(
                self.mp_index, point.point_id
            )
            submission_time = delivery_time + response_time
            for intent in intents:
                order = TradeOrder(
                    mp_id=self.mp_id,
                    trade_seq=len(self.trigger_points),
                    side=intent.side,
                    price=intent.price,
                    quantity=intent.quantity,
                    order_type=intent.order_type,
                    time_in_force=intent.time_in_force,
                    trigger_point=point.point_id,
                    response_time=response_time,
                    submission_time=submission_time,
                )
                self.trigger_points.append(point.point_id)
                self.response_times.append(response_time)
                self.submission_times.append(submission_time)
                self.engine.schedule_at(submission_time, self._submit, 1, (order,))

    def _submit(self, order: TradeOrder) -> None:
        # Resolved at submission time, so a re-connect reaches orders
        # already scheduled.
        self._submitter(order)  # type: ignore[misc]

    @property
    def trades_submitted(self) -> int:
        return len(self.trigger_points)
