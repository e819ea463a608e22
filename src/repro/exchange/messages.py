"""Wire messages exchanged between CES, release buffers and participants.

Naming follows the paper's notation (Table 1):

* ``x`` — a market data point, identified by ``MarketDataPoint.point_id``;
  its generation time is ``G(x)``.
* ``(i, a)`` — the ``a``-th trade from participant ``i``; carried as a
  :class:`TradeOrder` with ``mp_id`` and ``trade_seq``.
* Delivery-clock tags (:class:`repro.core.delivery_clock.DeliveryClock`)
  are attached by the release buffer in a :class:`TaggedTrade` envelope.
* :class:`Heartbeat` carries ``DC(i, h)`` for the ordering buffer's
  release rule (§4.1.3).

The three messages built per heartbeat or per trade — :class:`Heartbeat`,
:class:`TaggedTrade`, :class:`TradeOrder` — are frozen, slotted
dataclasses with a hand-written ``__init__`` that fills the slots through
their descriptors: the generated frozen ``__init__`` routes every field
through ``object.__setattr__`` and costs about twice as much.  Equality,
hashing, ``repr`` and immutability are the dataclass's, unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Optional, Tuple

__all__ = [
    "Side",
    "OrderType",
    "TimeInForce",
    "MarketDataPoint",
    "MarketDataBatch",
    "TradeOrder",
    "TaggedTrade",
    "Heartbeat",
    "RecoveryMarker",
    "Execution",
]


class Side(enum.Enum):
    """Order side for the matching engine."""

    BUY = "buy"
    SELL = "sell"

    def opposite(self) -> "Side":
        return Side.SELL if self is Side.BUY else Side.BUY


class OrderType(enum.Enum):
    """How the order interacts with price."""

    LIMIT = "limit"
    MARKET = "market"  # crosses at any price; never rests


class TimeInForce(enum.Enum):
    """How long an unfilled (remainder of an) order lives."""

    GTC = "gtc"  # good-till-cancel: remainder rests in the book
    IOC = "ioc"  # immediate-or-cancel: remainder is discarded
    FOK = "fok"  # fill-or-kill: executes fully immediately or not at all


@dataclass(frozen=True)
class MarketDataPoint:
    """One tick of the market data feed.

    Attributes
    ----------
    point_id:
        Sequential id ``x`` (0-based).
    generation_time:
        ``G(x)`` — true time at which the CES produced the point.
    price:
        Reference price carried by the tick (drives strategies).
    is_opportunity:
        Whether this tick opens a speed-race trading opportunity (a
        mispricing that racers compete to capture).
    payload:
        Opaque extra data (unused by the core; available to strategies).
    """

    point_id: int
    generation_time: float
    price: float = 0.0
    is_opportunity: bool = False
    payload: Any = None


@dataclass(frozen=True)
class MarketDataBatch:
    """A batch of consecutive data points (§4.1.2).

    The CES closes a batch every ``(1 + κ)·δ`` microseconds; release
    buffers deliver all points of a batch at the same instant.
    """

    batch_id: int
    points: Tuple[MarketDataPoint, ...]
    close_time: float

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a batch must contain at least one point")
        ids = [p.point_id for p in self.points]
        if any(b != a + 1 for a, b in zip(ids, ids[1:])):
            raise ValueError("batch points must have consecutive ids")

    @property
    def first_point_id(self) -> int:
        return self.points[0].point_id

    @property
    def last_point_id(self) -> int:
        """Id of the batch's last point — what the delivery clock advances to."""
        return self.points[-1].point_id

    def __len__(self) -> int:
        return len(self.points)


def _slot_setters(cls: type) -> Tuple[Callable[[Any, Any], None], ...]:
    """The ``__set__`` of each of dataclass ``cls``'s slots, in field order."""
    return tuple(cls.__dict__[field.name].__set__ for field in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class TradeOrder:
    """A trade order as submitted by a market participant.

    ``trigger_point`` and ``response_time`` are ground-truth fields used
    *only* for evaluation (§6.1 measures fairness against the known
    trigger/response time); no scheme is allowed to order trades by them.

    ``key`` is the paper's ``(i, a)`` identifier, built once here: every
    map that indexes trades (the RB's unacked window, the ME's index)
    holds this one tuple; the release and dedup logs keep runs of
    ``trade_seq`` per participant instead (:mod:`repro.sim.dense`).  It is not an ``__init__`` argument and takes no part in
    equality, hashing or ``repr``.
    """

    mp_id: str
    trade_seq: int
    side: Side = Side.BUY
    price: float = 0.0
    quantity: int = 1
    order_type: Optional[OrderType] = None  # None → LIMIT
    time_in_force: Optional[TimeInForce] = None  # None → GTC
    # --- ground truth for evaluation only -----------------------------
    trigger_point: Optional[int] = None
    response_time: Optional[float] = None
    submission_time: Optional[float] = None
    key: Tuple[str, int] = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        mp_id: str,
        trade_seq: int,
        side: Side = Side.BUY,
        price: float = 0.0,
        quantity: int = 1,
        order_type: Optional[OrderType] = None,
        time_in_force: Optional[TimeInForce] = None,
        trigger_point: Optional[int] = None,
        response_time: Optional[float] = None,
        submission_time: Optional[float] = None,
    ) -> None:
        _set_mp_id(self, mp_id)
        _set_trade_seq(self, trade_seq)
        _set_side(self, side)
        _set_price(self, price)
        _set_quantity(self, quantity)
        _set_order_type(self, OrderType.LIMIT if order_type is None else order_type)
        _set_time_in_force(self, TimeInForce.GTC if time_in_force is None else time_in_force)
        _set_trigger_point(self, trigger_point)
        _set_response_time(self, response_time)
        _set_submission_time(self, submission_time)
        _set_key(self, (mp_id, trade_seq))


(
    _set_mp_id, _set_trade_seq, _set_side, _set_price, _set_quantity,
    _set_order_type, _set_time_in_force, _set_trigger_point,
    _set_response_time, _set_submission_time, _set_key,
) = _slot_setters(TradeOrder)


@dataclass(frozen=True, slots=True, init=False)
class TaggedTrade:
    """A trade order tagged with its delivery-clock timestamp by the RB."""

    trade: TradeOrder
    clock: Any  # DeliveryClock; typed loosely to avoid a core<->exchange cycle
    tagged_at: float = 0.0

    def __init__(self, trade: TradeOrder, clock: Any, tagged_at: float = 0.0) -> None:
        _set_trade(self, trade)
        _set_tagged_clock(self, clock)
        _set_tagged_at(self, tagged_at)

    @property
    def key(self) -> Tuple[str, int]:
        return self.trade.key


_set_trade, _set_tagged_clock, _set_tagged_at = _slot_setters(TaggedTrade)


@dataclass(frozen=True, slots=True, init=False)
class Heartbeat:
    """Periodic liveness/progress beacon from a release buffer (§4.1.3)."""

    mp_id: str
    clock: Any  # DeliveryClock
    generated_at: float = 0.0

    def __init__(self, mp_id: str, clock: Any, generated_at: float = 0.0) -> None:
        _set_heartbeat_mp_id(self, mp_id)
        _set_heartbeat_clock(self, clock)
        _set_generated_at(self, generated_at)


_set_heartbeat_mp_id, _set_heartbeat_clock, _set_generated_at = _slot_setters(Heartbeat)


@dataclass(frozen=True)
class RecoveryMarker:
    """End-of-warm-up fence from a release buffer.

    During push-based recovery a promoted/adopting ordering buffer asks
    each affected RB to resend its unacked window; the RB answers with
    the resends followed by one ``RecoveryMarker`` on the *same* FIFO
    reverse channel.  Receiving the marker therefore proves every resent
    trade from that RB has already arrived, which is what lets the
    receiver lift its release hold without any timing assumptions.
    """

    mp_id: str
    requested_at: float = 0.0
    resent: int = 0


@dataclass(frozen=True)
class Execution:
    """A fill produced by the matching engine."""

    buy_key: Tuple[str, int]
    sell_key: Tuple[str, int]
    price: float
    quantity: int
    match_time: float
