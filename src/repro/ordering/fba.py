"""Frequent Batch Auctions — equal priority via a boundary shuffle (§2.1).

Trades accumulate over the auction period and are released together at
the boundary in uniformly random order: network latency gives nobody an
edge because *within* a batch, order is dice.  The shuffle draws from a
deterministic seeded substream, so runs are reproducible bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Tuple

from repro.ordering.policy import HOLD, Admission

if TYPE_CHECKING:
    from repro.exchange.messages import TradeOrder
    from repro.sim.randomness import SubstreamCounter

__all__ = ["BatchAuctionPolicy"]


class BatchAuctionPolicy:
    """Hold until the next boundary; release in shuffled order.

    Parameters
    ----------
    shuffler:
        A deterministic unit-interval stream
        (:meth:`repro.sim.runtime.Runtime.substream`); one draw per
        batched trade at each non-empty boundary.
    """

    name = "fba"

    def __init__(self, shuffler: "SubstreamCounter") -> None:
        self._shuffler = shuffler
        self._pending: List["TradeOrder"] = []
        self._ready: List["TradeOrder"] = []

    def key_of(self, item: "TradeOrder") -> Tuple[str, int]:
        return item.key

    def admit(self, item: "TradeOrder", now: float) -> Admission:
        self._pending.append(item)
        return HOLD

    def on_boundary(self, now: float) -> None:
        if not self._pending:
            return
        trades = self._pending
        self._pending = []
        # Equal priority: uniform random execution order (one unit draw
        # per trade, consumed in list order — the historical draw order).
        order = sorted(range(len(trades)), key=lambda _: self._shuffler.next_unit())
        self._ready.extend(trades[position] for position in order)

    def pop_due(self, now: float) -> Iterator["TradeOrder"]:
        while self._ready:
            yield self._ready.pop(0)

    def pop_all(self, now: float) -> Iterator["TradeOrder"]:
        # Boundary-shuffle anything still unshuffled, then drain.
        self.on_boundary(now)
        yield from self.pop_due(now)

    def pending_count(self) -> int:
        return len(self._pending) + len(self._ready)
