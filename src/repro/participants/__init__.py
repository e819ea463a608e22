"""Market participants: agents, strategies, response-time models."""

from repro.participants.mp import MarketParticipant
from repro.participants.response_time import (
    FixedResponseTime,
    RaceResponseTime,
    ResponseTimeModel,
    SpeedTieredResponseTime,
    UniformResponseTime,
)
from repro.participants.strategies import (
    AggressiveTaker,
    MarketMaker,
    SpeedRacer,
    Strategy,
    TradeIntent,
)

__all__ = [
    "MarketParticipant",
    "FixedResponseTime",
    "RaceResponseTime",
    "ResponseTimeModel",
    "SpeedTieredResponseTime",
    "UniformResponseTime",
    "AggressiveTaker",
    "MarketMaker",
    "SpeedRacer",
    "Strategy",
    "TradeIntent",
]
