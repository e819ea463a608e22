"""Exchange substrate: feed, order book, matching engine, CES."""

from repro.exchange.accounting import Account, Ledger
from repro.exchange.ces import CentralExchangeServer
from repro.exchange.external import ExternalEvent, ExternalSource, StreamMerger
from repro.exchange.feed import FeedConfig, MarketDataFeed
from repro.exchange.matching import MatchingEngine
from repro.exchange.messages import (
    Execution,
    Heartbeat,
    MarketDataBatch,
    MarketDataPoint,
    OrderType,
    Side,
    TaggedTrade,
    TimeInForce,
    TradeOrder,
)
from repro.exchange.order_book import BookLevel, LimitOrderBook, RestingOrder

__all__ = [
    "Account",
    "Ledger",
    "CentralExchangeServer",
    "ExternalEvent",
    "ExternalSource",
    "StreamMerger",
    "OrderType",
    "TimeInForce",
    "FeedConfig",
    "MarketDataFeed",
    "MatchingEngine",
    "Execution",
    "Heartbeat",
    "MarketDataBatch",
    "MarketDataPoint",
    "Side",
    "TaggedTrade",
    "TradeOrder",
    "BookLevel",
    "LimitOrderBook",
    "RestingOrder",
]
