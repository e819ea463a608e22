"""DBO core: delivery clocks, release/ordering buffers, the full system."""

from repro.core.aggregation import MasterOB
from repro.core.batcher import Batcher
from repro.core.delivery_clock import (
    ClockNotStartedError,
    DeliveryClock,
    DeliveryClockStamp,
)
from repro.core.gateway import EgressGateway, EgressMessage
from repro.core.ordering_buffer import OrderingBuffer, ParticipantState
from repro.core.params import DBOParams
from repro.core.release_buffer import ReleaseBuffer
from repro.core.sharded_ob import ShardOB
from repro.core.sync_delivery import SyncAssistedReleaseBuffer
from repro.core.system import DBODeployment

__all__ = [
    "Batcher",
    "ClockNotStartedError",
    "DeliveryClock",
    "DeliveryClockStamp",
    "EgressGateway",
    "EgressMessage",
    "OrderingBuffer",
    "ParticipantState",
    "DBOParams",
    "ReleaseBuffer",
    "MasterOB",
    "ShardOB",
    "DBODeployment",
    "SyncAssistedReleaseBuffer",
]
