"""Passthrough — the Direct baseline's (non-)policy (§6.1).

No hold, no reordering: every trade is released the instant it arrives,
so the matching engine sees pure network arrival order (FCFS).  Fairness
is whatever the network's asymmetry happens to produce.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Hashable, Iterator, Tuple

from repro.ordering.policy import RELEASE_NOW, Admission

if TYPE_CHECKING:
    from repro.exchange.messages import TradeOrder

__all__ = ["PassthroughPolicy"]


class PassthroughPolicy:
    """Never holds: release order is arrival order."""

    name = "direct"

    def key_of(self, item: "TradeOrder") -> Tuple[str, int]:
        return item.key

    def admit(self, item: "TradeOrder", now: float) -> Admission:
        return RELEASE_NOW

    def pop_due(self, now: float) -> Iterator[Any]:
        return iter(())

    def on_boundary(self, now: float) -> None:
        pass

    def pop_all(self, now: float) -> Iterator[Any]:
        return iter(())

    def pending_count(self) -> int:
        return 0
