"""The :class:`OrderingPolicy` protocol — one contract, four schemes.

A policy owns the *pending store* (whatever shape fits its hold rule —
a stamp-keyed heap, a batch list, nothing at all) and answers the
release question; the engine driving it,
:class:`repro.core.release_engine.ReleaseEngine`, owns everything
scheme-independent: dedup against retransmitted duplicates,
double-release protection, counters, timer wiring, and the sink.
direct, cloudex, fba and libra implement it.  The two delivery-clock
schemes do not: their buffer must survive crashes and adoptions, so the
pending store lives in :class:`repro.core.ordering_buffer.OrderingBuffer`
and :mod:`repro.ordering.dbo` / :mod:`repro.ordering.prob` hold only the
decision state it consults.

The lifecycle of one trade through the engine:

1. ``key_of(item)`` — the dedup identity (``(mp_id, trade_seq)``).
2. ``admit(item, now)`` — the policy either keeps the item in its
   pending store and returns :data:`HOLD` (optionally with a ``wake_at``
   time the engine must schedule a drain for), or declines to store it
   and returns :data:`RELEASE_NOW` (the engine releases immediately).
3. ``pop_due(now)`` — yields stored items whose hold has lifted, in
   final release order.  Called by the engine after every wake and
   boundary.
4. ``on_boundary(now)`` — the one non-timer signal that can lift holds:
   a batch/auction boundary closed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterator, Optional, Protocol, runtime_checkable

__all__ = ["Admission", "HOLD", "OrderingPolicy", "RELEASE_NOW"]


@dataclass(frozen=True)
class Admission:
    """The policy's verdict on a newly arrived trade.

    ``release_now`` means the policy did *not* store the item — the
    engine forwards it immediately (passthrough, or a deadline overrun).
    Otherwise the item sits in the policy's pending store; a non-``None``
    ``wake_at`` asks the engine to schedule a drain at that time (batch
    policies leave it ``None`` and rely on ``on_boundary``).
    """

    release_now: bool = False
    wake_at: Optional[float] = None


RELEASE_NOW = Admission(release_now=True)
HOLD = Admission()


@runtime_checkable
class OrderingPolicy(Protocol):
    """The release decision, abstracted over its driving engine."""

    name: str

    def key_of(self, item: Any) -> Hashable:
        """The dedup identity of ``item`` (stable across retransmits)."""
        ...

    def admit(self, item: Any, now: float) -> Admission:
        """Store ``item`` (returning :data:`HOLD`) or decline to
        (:data:`RELEASE_NOW`); never releases by itself."""
        ...

    def pop_due(self, now: float) -> Iterator[Any]:
        """Yield stored items whose hold has lifted, in release order.

        Must remove each yielded item from the pending store; an item is
        yielded at most once over the policy's lifetime.
        """
        ...

    def on_boundary(self, now: float) -> None:
        """A batch/auction boundary closed (no-op for non-batch policies)."""
        ...

    def pop_all(self, now: float) -> Iterator[Any]:
        """Yield *every* stored item regardless of holds (end-of-run
        drain / failover flush), emptying the pending store."""
        ...

    def pending_count(self) -> int:
        """Number of items currently held."""
        ...
